"""Expected ``checked=`` counts of every law, written apart from viewflux.

At max-relations 1 over a domain of ``n`` constants the closure classes are
fixed by their active domains, so they are the subsets of the domain, and the
hom-set between classes ``a`` and ``b`` has ``2 ** |a & b|`` arrows (one per
set of shared constants).  An arrow is monic when it transmits all of its
source, so ``hom(a, b)`` holds one monic arrow when ``a <= b`` and none
otherwise; those pairs are also the subobject inclusions.  The closed subsets
of the total object are the closures of the classes.  The enumeration has
``2 ** n + 1`` instances: the empty one, and one per relation of the
universe, which at arity 1 is a set of constants (the empty set is the
bottom).

Each law's count is a sum over tuples of classes or instances, the loops of
the law read as a formula.  Summed one constant at a time, a sum over classes
factors into a per-constant term, which gives the closed forms of
``CLOSED_FORMS``; the laws of ``POWERS`` count exactly ``c ** n``.

This module imports nothing from ``viewflux``.
"""

from __future__ import annotations

import itertools


def classes(n: int) -> list[frozenset[int]]:
    """The closure classes of a domain of ``n`` constants: its subsets."""
    return [
        frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)
    ]


def instances(n: int) -> list[tuple[frozenset[int], ...]]:
    """The instances with at most one relation: each a tuple of its relations,
    a relation being its set of constants."""
    return [()] + [(r,) for r in classes(n)]


def hom(a: frozenset[int], b: frozenset[int]) -> int:
    """The number of arrows between two classes."""
    return 2 ** len(a & b)


#: Laws checked once per arrow of every pair of classes (or of closed subsets).
PER_ARROW = (
    "category.mono-cancellation", "category.epi-cancellation", "category.mono-epi-iso",
    "category.two-cells", "category.closure-functor", "category.duality",
    "category.totalize", "category.principal", "monoidal.flux-range", "topos.factorization",
)
#: Laws checked once per instance, per ordered pair of instances, per pair of
#: classes and per triple of classes.
PER_INSTANCE = (
    "closure.extensive", "closure.idempotent", "closure.algebraic",
    "monoidal.idempotent-unit-zero", "monoidal.monoid", "lattice.bounds",
    "lattice.omega-chain", "metric.self-distance", "metric.locally-closed",
)
INSTANCE_PAIRS = (
    "closure.order", "monoidal.commutative", "lattice.absorption", "metric.symmetry",
    "metric.indiscernible", "metric.order", "metric.infinite-distance",
)
CLASS_PAIRS = ("closure.intersections", "lattice.inf-sup", "lattice.federation")
CLASS_TRIPLES = ("monoidal.associative", "monoidal.hom-counting", "lattice.distributive")
#: Laws checked once per subobject inclusion, that is per monic arrow.
INCLUSIONS = ("category.retraction", "topos.classifier", "topos.classifier-audit",
              "topos.equalizer")
#: Laws checked once per run.
SINGLE = (
    "closure.total-fixpoint", "lattice.closed-count", "lattice.sup-all",
    "topos.true-arrow", "negative.pullback-epi", "negative.not-well-pointed",
)
#: The slot counts of the four query contexts of ``category.monad``.
MONAD_SLOTS = (1, 1, 2, 2)


def counted(n: int) -> dict[str, int]:
    """Each law's count, summed over the classes and instances as its loops run."""
    cs, insts = classes(n), instances(n)
    i = len(insts)
    pairs = list(itertools.product(cs, repeat=2))
    triples = list(itertools.product(cs, repeat=3))
    arrows = sum(hom(a, b) for a, b in pairs)
    composable = sum(hom(a, b) * hom(b, c) for a, b, c in triples)
    nonzero = [a for a in cs if a]
    return {
        **dict.fromkeys(PER_ARROW, arrows),
        **dict.fromkeys(PER_INSTANCE, i),
        **dict.fromkeys(INSTANCE_PAIRS, i**2),
        **dict.fromkeys(CLASS_PAIRS, len(pairs)),
        **dict.fromkeys(CLASS_TRIPLES, len(triples)),
        **dict.fromkeys(INCLUSIONS, sum(a <= b for a, b in pairs)),
        **dict.fromkeys(SINGLE, 1),
        # Every comparable pair of distinct instances, taken once.
        "closure.monotone": sum(
            set(a) <= set(b) or set(b) <= set(a) for a, b in itertools.combinations(insts, 2)
        ),
        # The zero object and the empty instance.
        "closure.bottom": 2,
        "category.flux-composition": composable,
        "category.associativity": sum(
            hom(a, b) * hom(b, c) * hom(c, d) for a, b, c, d in itertools.product(cs, repeat=4)
        ),
        # Every instance is an identity check, then every arrow of every pair.
        "category.identity": i + arrows,
        "category.idempotents": len(cs),
        # Every instance, then every context on every tuple of its relations.
        "category.monad": i + sum(len(a) ** k for a in insts for k in MONAD_SLOTS),
        # Every pair of arrows of two pairs of classes.
        "monoidal.arrow-tensor": arrows**2,
        # Every pair, then every class against the total object.
        "monoidal.hom-object": len(pairs) + len(cs),
        # Every pair, then every arrow out of the matching of two classes.
        "monoidal.exponent": len(pairs) + sum(hom(a & b, c) for a, b, c in triples),
        "monoidal.internal-arrows": len(triples) + len(cs),
        # Ordered instance pairs, instances, then class triples.
        "lattice.join-laws": i**2 + i + len(triples),
        # Identities on every pair, then every class against composable arrows.
        "lattice.merge-functor": len(pairs) + len(cs) * composable,
        # Pairs of non-zero classes, each non-zero class, and the zero unit.
        "lattice.coproduct-count": len(nonzero) ** 2 + len(nonzero) + 1,
        "metric.triangle": i**3,
        # Every cospan of arrows into one class.
        "topos.pullback": sum(hom(a, c) * hom(b, c) for c, a, b in triples),
        # Every ordered pair of legs into e, for every arrow from d to e.
        "topos.coproduct-pullback": sum(
            hom(d, e) * sum(hom(b, e) for b in cs) ** 2 for d, e in pairs
        ),
        # Every non-zero class against every closed subset of the total object.
        "negative.no-power-object": len(nonzero) * len(cs),
    }


def squares(n: int) -> int:
    """The number of distinct squares ``topos.pullback`` verifies, leaving out
    the cospan target: one per pair of leg sources ``(a, b)`` and pair of leg
    fluxes, a set of constants of ``a`` and one of ``b`` (the top class
    receives every such flux)."""
    return sum(2 ** len(a) * 2 ** len(b) for a, b in itertools.product(classes(n), repeat=2))


#: The laws whose count is exactly ``c ** n``, with their ``c``.
POWERS = {
    "category.associativity": 34,
    "topos.coproduct-pullback": 35,
    "monoidal.arrow-tensor": 25,
    "category.flux-composition": 13,
    "topos.pullback": 13,
    **dict.fromkeys(CLASS_TRIPLES, 8),
    **dict.fromkeys(PER_ARROW, 5),
    **dict.fromkeys(CLASS_PAIRS, 4),
    **dict.fromkeys(INCLUSIONS, 3),
    "closure.monotone": 2,
    "category.idempotents": 2,
    **dict.fromkeys(SINGLE, 1),
}


def _instances(n: int) -> int:
    return 2**n + 1


#: Each law's count as a function of the domain size.
CLOSED_FORMS = {
    **{law: (lambda n, c=c: c**n) for law, c in POWERS.items()},
    **dict.fromkeys(PER_INSTANCE, _instances),
    **dict.fromkeys(INSTANCE_PAIRS, lambda n: _instances(n) ** 2),
    "metric.triangle": lambda n: _instances(n) ** 3,
    "closure.bottom": lambda n: 2,
    "category.identity": lambda n: _instances(n) + 5**n,
    "category.monad": lambda n: _instances(n) + 2 ** (n + 2),
    "lattice.join-laws": lambda n: _instances(n) ** 2 + _instances(n) + 8**n,
    "lattice.merge-functor": lambda n: 4**n + 26**n,
    "monoidal.exponent": lambda n: 4**n + 9**n,
    "monoidal.internal-arrows": lambda n: 8**n + 2**n,
    "monoidal.hom-object": lambda n: 4**n + 2**n,
    "lattice.coproduct-count": lambda n: (2**n - 1) ** 2 + (2**n - 1) + 1,
    "negative.no-power-object": lambda n: (2**n - 1) * 2**n,
}
