"""Finite relations, database instances and the enumerable relation universe.

Relations are positional (columns are 1-based positions) and set-valued.
The single empty relation ``BOTTOM`` is arity-erased: every empty extension
canonicalizes to it, so two relations are equal exactly when their canonical
extensions are equal.  All values are immutable and safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import (
    ArityMismatch,
    EnumerationTooLarge,
    UniverseTooLarge,
    UnknownConstant,
    ViewfluxError,
)

Constant = str


@dataclass(frozen=True)
class Relation:
    """An extension: arity plus a finite set of tuples of constants.

    ``tag`` records the coproduct component a relation originates from; it is
    empty for ordinary relations and the bottom relation is never tagged.
    """

    arity: int
    tuples: frozenset[tuple[Constant, ...]]
    tag: tuple[str, ...] = ()

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.arity:
                raise ArityMismatch(
                    f"tuple {t!r} has length {len(t)}, expected arity {self.arity}"
                )
        if not self.tuples and (self.arity != 0 or self.tag):
            raise ArityMismatch("empty extensions must be built through make_relation")

    @property
    def is_bottom(self) -> bool:
        return not self.tuples

    def sort_key(self):
        return (
            (0,) if self.is_bottom
            else (1, self.tag, self.arity, tuple(sorted(self.tuples)))
        )

    def __repr__(self):
        if self.is_bottom:
            return "bot"
        body = ",".join("(" + " ".join(t) + ")" for t in sorted(self.tuples))
        prefix = ".".join(self.tag) + ":" if self.tag else ""
        return f"{prefix}{{{body}}}/{self.arity}"


#: The unique empty relation; present in every closed instance.
BOTTOM = Relation(0, frozenset())


def make_relation(
    arity: int,
    tuples: Iterable[tuple[Constant, ...]],
    domain: frozenset[Constant] | None = None,
    tag: tuple[str, ...] = (),
) -> Relation:
    """Build a canonical relation; an empty tuple set yields ``BOTTOM``.

    When ``domain`` is given, every constant must belong to it.  Nonempty
    nullary relations are rejected: the only nullary relation is the bottom.
    """
    if arity < 0:
        raise ArityMismatch(f"arity must be non-negative, got {arity}")
    tset = frozenset(tuple(t) for t in tuples)
    if not tset:
        return BOTTOM
    if arity == 0:
        raise ArityMismatch("the only nullary relation is the bottom relation")
    for t in tset:
        if len(t) != arity:
            raise ArityMismatch(f"tuple {t!r} has length {len(t)}, expected arity {arity}")
        if domain is not None:
            for c in t:
                if c not in domain:
                    raise UnknownConstant(f"constant {c!r} is not in the domain")
    return Relation(arity, tset, tag)


def sorted_relations(relations: Iterable[Relation]) -> list[Relation]:
    """Canonical deterministic ordering used everywhere an order is needed."""
    return sorted(relations, key=Relation.sort_key)


@dataclass(frozen=True, eq=False)
class Instance:
    """A database instance: a finite set of relations plus optional name labels.

    Two instances are equal exactly when their relation sets are equal; labels
    only serve query resolution and never take part in equality or hashing.
    """

    relations: frozenset[Relation]
    labels: Mapping[str, Relation] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "relations", frozenset(self.relations))
        object.__setattr__(self, "labels", dict(self.labels))
        for name, rel in self.labels.items():
            if rel not in self.relations:
                raise ViewfluxError(
                    f"label {name!r} refers to a relation that is not in the instance"
                )

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.relations == other.relations

    def __hash__(self):
        return hash(self.relations)

    def __contains__(self, relation: Relation) -> bool:
        return relation in self.relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(sorted_relations(self.relations))

    def __len__(self) -> int:
        return len(self.relations)

    def __repr__(self):
        return "{" + ", ".join(repr(r) for r in self) + "}"


#: The zero object: the instance holding only the bottom relation.
ZERO = Instance(frozenset({BOTTOM}), {})


def instance(*relations: Relation, labels: Mapping[str, Relation] | None = None) -> Instance:
    return Instance(frozenset(relations), labels or {})


def with_default_labels(inst: Instance, prefix: str = "r") -> Instance:
    """Return an equal instance where every relation carries a name.

    Existing labels are kept; unlabeled relations get ``r1..rn`` in canonical
    order (skipping names already taken).
    """
    labels = dict(inst.labels)
    labeled = set(labels.values())
    taken = set(labels)
    counter = itertools.count(1)
    for rel in sorted_relations(inst.relations):
        if rel in labeled:
            continue
        name = f"{prefix}{next(counter)}"
        while name in taken:
            name = f"{prefix}{next(counter)}"
        labels[name] = rel
        labeled.add(rel)
        taken.add(name)
    return Instance(inst.relations, labels)


def instance_union(a: Instance, b: Instance) -> Instance:
    """Set union of two instances; colliding labels are source-qualified."""
    labels: dict[str, Relation] = dict(a.labels)
    for name, rel in b.labels.items():
        if name not in labels:
            labels[name] = rel
        elif labels[name] != rel:
            left = labels.pop(name)
            labels[f"left_{name}"] = left
            labels[f"right_{name}"] = rel
    return Instance(a.relations | b.relations, labels)


IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_identifier(symbol: str) -> None:
    if not symbol or symbol[0].isdigit() or any(ch not in IDENT_OK for ch in symbol):
        raise UnknownConstant(f"{symbol!r} is not a valid ASCII identifier")


@dataclass(frozen=True)
class UniverseConfig:
    """A finite constant domain plus the view-arity cap.

    The cap bounds the arity of every view the closure operator may produce;
    without it the join operator would grow arities without bound and the
    relation universe would be infinite.  The remaining fields are hard
    enumeration bounds: exceeding them raises instead of silently truncating.
    """

    domain: frozenset[Constant]
    k_max: int = 1
    max_universe: int = 20000
    max_homset_ground: int = 64
    max_enumeration: int = 200000

    def __post_init__(self):
        object.__setattr__(self, "domain", frozenset(self.domain))
        if not self.domain:
            raise UnknownConstant("the domain must contain at least one constant")
        if self.k_max < 1:
            raise ArityMismatch("k_max must be at least 1")
        for c in self.domain:
            _check_identifier(c)
            if c == "bot":
                raise UnknownConstant("'bot' is reserved and cannot be a constant")

    def constants(self) -> list[Constant]:
        return sorted(self.domain)

    def universe_size(self) -> int:
        """Number of distinct relations with arity at most k_max, bottom included."""
        total = 1
        for n in range(1, self.k_max + 1):
            exponent = len(self.domain) ** n
            if exponent > 60:
                raise UniverseTooLarge(
                    f"2**{exponent} relations of arity {n} exceed any workable bound"
                )
            total += (1 << exponent) - 1
        return total


def universe_relations(cfg: UniverseConfig) -> tuple[Relation, ...]:
    """Every relation over the domain with arity <= k_max, in canonical order.

    The bottom relation appears once; all empty extensions are identified
    with it.
    """
    size = cfg.universe_size()
    if size > cfg.max_universe:
        raise UniverseTooLarge(f"universe holds {size} relations, bound is {cfg.max_universe}")
    out = [BOTTOM]
    constants = cfg.constants()
    for n in range(1, cfg.k_max + 1):
        all_tuples = sorted(itertools.product(constants, repeat=n))
        for k in range(1, len(all_tuples) + 1):
            for combo in itertools.combinations(all_tuples, k):
                out.append(Relation(n, frozenset(combo)))
    return tuple(sorted_relations(out))


def subset_instances(
    cfg: UniverseConfig, max_relations: int
) -> Iterator[Instance]:
    """All instances whose relations are universe subsets of bounded size.

    Instances stream in canonical order (by size, then lexicographically by
    the canonical relation order) and carry auto-labels ``r1..rn``.  The
    empty subset plays the role of the zero object.
    """
    universe = universe_relations(cfg)
    total = sum(_n_choose_k(len(universe), k) for k in range(0, max_relations + 1))
    if total > cfg.max_enumeration:
        raise EnumerationTooLarge(
            f"{total} instances requested, bound is {cfg.max_enumeration}"
        )
    for k in range(0, max_relations + 1):
        for combo in itertools.combinations(range(len(universe)), k):
            rels = [universe[i] for i in combo]
            labels = {f"r{i + 1}": rel for i, rel in enumerate(rels)}
            yield Instance(frozenset(rels), labels)


def _n_choose_k(n: int, k: int) -> int:
    if k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
