"""The power-view closure operator, closed instances and closed-subset lattices.

``power_view`` saturates an instance under select, project, union and join
(with results capped at the configured view arity), yielding the set of all
views of the instance.  It is extensive, monotone and idempotent, so closed
instances (fixed points) form a closure system; their sublattices drive the
semantic hom-sets.  Saturation is one deterministic worklist: the resulting
set does not depend on processing order, and for each view it records the
first derivation found (the operator and its operand views), from which
``generating_queries`` rebuilds a witness query per view.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from .core import (
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    ZERO,
    sorted_relations,
    universe_relations,
    with_default_labels,
)
from .errors import EnumerationTooLarge, UniverseTooLarge
from .queries import (
    Base,
    Bot,
    ColEqCol,
    ColEqConst,
    Join,
    Project,
    QueryTerm,
    Select,
    UnionTerm,
)


class ClosedInstance(Instance):
    """An instance certified equal to its own power view.

    Instances of this type are only built by operations that establish the
    closure property (saturation, verified fixed points, intersections of
    closed sets), so holding one is the certificate.
    """


def _closed(relations: Iterable[Relation]) -> ClosedInstance:
    return ClosedInstance(frozenset(relations) | {BOTTOM}, {})


def _apply_unary(rel: Relation, cfg: UniverseConfig):
    """Yield (result, query-builder) for every select/project applicable to rel."""
    if rel.is_bottom:
        return
    n = rel.arity
    for i in range(1, n + 1):
        for c in cfg.constants():
            kept = frozenset(t for t in rel.tuples if t[i - 1] == c)
            yield _can(n, kept, rel.tag), lambda q, i=i, c=c: Select(ColEqConst(i, c), q)
        for j in range(i + 1, n + 1):
            kept = frozenset(t for t in rel.tuples if t[i - 1] == t[j - 1])
            yield _can(n, kept, rel.tag), lambda q, i=i, j=j: Select(ColEqCol(i, j), q)
    for m in range(1, cfg.k_max + 1):
        for cols in itertools.product(range(1, n + 1), repeat=m):
            rows = frozenset(tuple(t[c - 1] for c in cols) for t in rel.tuples)
            yield _can(m, rows, rel.tag), lambda q, cols=cols: Project(cols, q)


def _can(arity: int, tuples: frozenset, tag: tuple) -> Relation:
    return BOTTOM if not tuples else Relation(arity, tuples, tag)


def _compatible(a: Relation, b: Relation) -> bool:
    return not a.tag or not b.tag or a.tag == b.tag


def _record(views: dict[Relation, tuple], rel: Relation, how: tuple, cfg: UniverseConfig) -> None:
    """Insert a new view with its derivation; fail once there are too many."""
    views[rel] = how
    if len(views) > cfg.max_universe:
        raise UniverseTooLarge(f"saturation produced more than {cfg.max_universe} views")


def _saturate(relations: frozenset[Relation], cfg: UniverseConfig) -> dict[Relation, tuple]:
    """Least superset of the input (plus bottom) closed under the operators.

    Maps each view to its first derivation, in insertion order: ``()`` for
    the bottom and the inputs, otherwise ``(build, operand, ...)``, where
    ``build`` turns the operands' query terms into the view's term.  Every
    operand is inserted before the views derived from it.
    """
    views: dict[Relation, tuple] = {}
    for rel in sorted_relations(set(relations) | {BOTTOM}):
        _record(views, rel, (), cfg)
    frontier = list(views)
    while frontier:
        known = len(views)
        for rel in frontier:
            for result, build in _apply_unary(rel, cfg):
                if result not in views:
                    _record(views, result, (build, rel), cfg)
        current = sorted_relations(views)
        for a in current:
            if a.is_bottom:
                continue
            for b in current:
                if b.is_bottom or not _compatible(a, b):
                    continue
                if a.arity == b.arity:
                    union = _can(a.arity, a.tuples | b.tuples, a.tag or b.tag)
                    if union not in views:
                        _record(views, union, (UnionTerm, a, b), cfg)
                if a.arity + b.arity <= cfg.k_max:
                    rows = frozenset(x + y for x in a.tuples for y in b.tuples)
                    join = _can(a.arity + b.arity, rows, a.tag or b.tag)
                    if join not in views:
                        _record(views, join, (Join, a, b), cfg)
        frontier = sorted_relations(itertools.islice(views, known, None))
    return views


@lru_cache(maxsize=None)
def _power_view_cached(relations: frozenset[Relation], cfg: UniverseConfig) -> ClosedInstance:
    return _closed(_saturate(relations, cfg))


def power_view(inst: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The set of all views of an instance: its closure under the operators.

    Extensive (A is contained in the result), monotone, and idempotent.
    Results are memoized; the cache is read-mostly and safe to share between
    threads because every value is immutable.
    """
    return _power_view_cached(inst.relations, cfg)


def is_closed(inst: Instance, cfg: UniverseConfig) -> bool:
    return BOTTOM in inst.relations and power_view(inst, cfg).relations == inst.relations


def certify_closed(inst: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """Wrap an instance after verifying it is a fixed point of power_view."""
    if not is_closed(inst, cfg):
        raise UniverseTooLarge(f"instance {inst!r} is not closed")
    return _closed(inst.relations)


def meet_closed(a: Instance, b: Instance) -> ClosedInstance:
    """Intersection of two closed instances; closed because the system is
    closed under arbitrary intersections."""
    return _closed(a.relations & b.relations)


def generating_queries(inst: Instance, cfg: UniverseConfig) -> dict[Relation, QueryTerm]:
    """A deterministic generating query (over the instance's labels) per view.

    Unlabeled relations are auto-named first.  Base relations map to base
    queries and the bottom to the bottom term; every other view gets the
    term of its first derivation in the saturation, built from its operands'
    terms.
    """
    labeled = with_default_labels(inst)
    witness: dict[Relation, QueryTerm] = {
        rel: Base(name) for name, rel in labeled.labels.items()
    }
    witness[BOTTOM] = Bot()
    for rel, how in _saturate(labeled.relations, cfg).items():
        if how:
            build, *operands = how
            witness[rel] = build(*(witness[op] for op in operands))
    return witness


def total_object(cfg: UniverseConfig) -> ClosedInstance:
    """The local total object: every relation over the domain up to the cap.

    Verified to be a fixed point of power_view before being returned.
    """
    candidate = Instance(frozenset(universe_relations(cfg)), {})
    result = power_view(candidate, cfg)
    if result.relations != candidate.relations:
        raise UniverseTooLarge("universe enumeration is not closed; cap too small")
    return _closed(candidate.relations)


def po_leq(a: Instance, b: Instance, cfg: UniverseConfig) -> bool:
    """Behavioral inclusion: every view of a is a view of b."""
    return power_view(a, cfg).relations <= power_view(b, cfg).relations


def isomorphic(a: Instance, b: Instance, cfg: UniverseConfig) -> bool:
    """Behavioral equivalence: a and b have the same views."""
    return power_view(a, cfg).relations == power_view(b, cfg).relations


def zero_object() -> ClosedInstance:
    return _closed(ZERO.relations)


def closed_subsets(x: Instance, cfg: UniverseConfig) -> tuple[ClosedInstance, ...]:
    """All bottom-containing subsets of a closed instance that are themselves closed.

    Enumerates the fixed-point lattice directly (one saturation per closed
    subset) rather than testing all subsets; the count grows with the number
    of closed sets, not with 2**|x|.  Results are in canonical order and
    memoized.
    """
    return _closed_subsets_cached(frozenset(x.relations), cfg)


@lru_cache(maxsize=None)
def _closed_subsets_cached(
    relations: frozenset[Relation], cfg: UniverseConfig
) -> tuple[ClosedInstance, ...]:
    x = Instance(relations, {})
    if not is_closed(x, cfg):
        raise EnumerationTooLarge("closed_subsets needs a closed instance")
    ground = [r for r in sorted_relations(x.relations) if not r.is_bottom]
    if len(ground) > cfg.max_homset_ground:
        raise EnumerationTooLarge(
            f"{len(ground)} relations exceed the closed-subset bound "
            f"{cfg.max_homset_ground}"
        )
    index = {rel: i for i, rel in enumerate(ground)}

    def close(subset: frozenset[Relation]) -> frozenset[Relation]:
        return frozenset(
            r for r in _saturate(subset, cfg) if not r.is_bottom
        )

    results = []
    current = close(frozenset())
    results.append(current)
    n = len(ground)
    while True:
        for i in reversed(range(n)):
            if ground[i] in current:
                continue
            seed = frozenset(r for r in current if index[r] < i) | {ground[i]}
            candidate = close(seed)
            if all(index[r] >= i for r in candidate - current):
                current = candidate
                results.append(current)
                break
        else:
            break
    closed_list = [_closed(rels) for rels in results]
    return tuple(sorted(closed_list, key=lambda c: tuple(r.sort_key() for r in c)))


def brute_force_closed_subsets(
    x: Instance, cfg: UniverseConfig, limit: int = 1 << 20
) -> tuple[ClosedInstance, ...]:
    """Reference enumeration: test every bottom-containing subset for closure.

    Exponential in |x|; kept as the independent check for closed_subsets.
    """
    ground = [r for r in sorted_relations(x.relations) if not r.is_bottom]
    if 1 << len(ground) > limit:
        raise EnumerationTooLarge(f"2**{len(ground)} subsets exceed the limit {limit}")
    out = []
    for k in range(0, len(ground) + 1):
        for combo in itertools.combinations(ground, k):
            subset = frozenset(combo) | {BOTTOM}
            if _saturate(subset, cfg).keys() == subset:
                out.append(_closed(subset))
    return tuple(sorted(out, key=lambda c: tuple(r.sort_key() for r in c)))
