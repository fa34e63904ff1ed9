"""Exception hierarchy for the viewflux engine."""


class ViewfluxError(Exception):
    """Base class for all errors raised by this package."""


class ArityMismatch(ViewfluxError):
    """A tuple does not match the declared arity of its relation."""


class UnknownConstant(ViewfluxError):
    """A constant is not a member of the configured domain."""


class UniverseTooLarge(ViewfluxError):
    """Enumerating or saturating the relation universe would exceed the configured bound."""


class EnumerationTooLarge(ViewfluxError):
    """An exhaustive enumeration would exceed the configured bound."""


class QuerySyntaxError(ViewfluxError):
    """Query text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownRelation(ViewfluxError):
    """A query references a base relation name that is not bound."""


class ArityError(ViewfluxError):
    """A query term is not well formed with respect to static arities."""


class ResultNotInTarget(ViewfluxError):
    """A view-map result is not a relation of the target instance."""


class DomainMismatch(ViewfluxError):
    """Operands do not share the required domain, configuration or endpoint."""


class NotParallel(ViewfluxError):
    """An arrow comparison requires two arrows with equal source and target."""


class NotClosedDomain(ViewfluxError):
    """An operation that needs a closed instance was given one that is not.

    Raised by totalization (closed source and target), by ``certify_closed``
    and by ``closed_subsets``.
    """


class NotMonic(ViewfluxError):
    """The operation requires a monomorphism."""


class FluxOutOfRange(ViewfluxError):
    """A prescribed flux is not a closed set inside the allowed range."""


class NotAPullback(ViewfluxError):
    """An input square fails the pullback verification."""


class UnknownSuite(ViewfluxError):
    """The requested property-suite name does not exist."""
