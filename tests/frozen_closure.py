"""Frozen references: two earlier forms of the power-view saturation.

``viewflux.closure`` once ran the power-view saturation twice, in
``_saturate`` (the view set) and in ``generating_queries`` (a witness query
per view).  Both are kept here verbatim, with the helpers they used, so the
single worklist that replaced them and any later kernel can be compared
against them.

The single worklist that replaced them, which recombined every pair of views
in every round and recorded each view's first derivation, is kept verbatim
too, as ``_saturate_record`` and ``generating_queries_record`` (renamed only
to sit beside the first pair).  A later kernel must reproduce its record
exactly: the same views in the same insertion order with the same operands.

The NextClosure enumeration of closed subsets (Ganter, 1984) that the
closed-form enumeration replaced is kept verbatim too, as
``closed_subsets_next_closure`` (renamed only).  Its ``close`` step is the
library's ``_closed_form``, which ``adom_oracle`` checks on its own.

Do not edit: a change here hides a change in the library.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from viewflux.core import (
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    sorted_relations,
    with_default_labels,
)
from viewflux.closure import ClosedInstance, is_closed, power_view


def _closed_form(relations, cfg):
    """The library's closure of ``relations``, the bottom left out."""
    return power_view(Instance(relations, {}), cfg).relations - {BOTTOM}
from viewflux.errors import EnumerationTooLarge, NotClosedDomain, UniverseTooLarge
from viewflux.queries import (
    Base,
    Bot,
    ColEqCol,
    ColEqConst,
    Join,
    Project,
    QueryTerm,
    Select,
    UnionTerm,
    evaluate,
)


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


def _saturate(relations: frozenset[Relation], cfg: UniverseConfig) -> frozenset[Relation]:
    """Least superset of the input (plus bottom) closed under the operators."""
    closed = set(relations) | {BOTTOM}
    frontier = sorted_relations(closed)
    while frontier:
        if len(closed) > cfg.max_universe:
            raise UniverseTooLarge(
                f"saturation produced more than {cfg.max_universe} views"
            )
        fresh: set[Relation] = set()

        def emit(rel: Relation) -> None:
            if rel not in closed and rel not in fresh:
                fresh.add(rel)

        for rel in frontier:
            for result, _ in _apply_unary(rel, cfg):
                emit(result)
        current = sorted_relations(closed | fresh)
        for a in current:
            if a.is_bottom:
                continue
            for b in current:
                if b.is_bottom or not _compatible(a, b):
                    continue
                if a.arity == b.arity:
                    emit(_can(a.arity, a.tuples | b.tuples, a.tag or b.tag))
                if a.arity + b.arity <= cfg.k_max:
                    rows = frozenset(x + y for x in a.tuples for y in b.tuples)
                    emit(_can(a.arity + b.arity, rows, a.tag or b.tag))
        closed |= fresh
        frontier = sorted_relations(fresh)
    return frozenset(closed)


def generating_queries(inst: Instance, cfg: UniverseConfig) -> dict[Relation, QueryTerm]:
    """A deterministic generating query (over the instance's labels) per view.

    Unlabeled relations are auto-named first.  For each view of the instance
    the first query found during saturation is recorded; base relations map
    to base queries and the bottom maps to the bottom term.
    """
    labeled = with_default_labels(inst)
    name_of = {rel: name for name, rel in labeled.labels.items()}
    witness: dict[Relation, QueryTerm] = {BOTTOM: Bot()}
    for rel in sorted_relations(labeled.relations):
        if rel.is_bottom:
            continue
        witness[rel] = Base(name_of[rel])

    closed = set(witness)
    frontier = sorted_relations(closed)
    while frontier:
        fresh: dict[Relation, QueryTerm] = {}

        def emit(rel: Relation, query: QueryTerm) -> None:
            if rel not in witness and rel not in fresh:
                fresh[rel] = query

        for rel in frontier:
            for result, build in _apply_unary(rel, cfg):
                emit(result, build(witness[rel]))
        current = sorted_relations(closed | set(fresh))

        def query_of(rel: Relation) -> QueryTerm:
            return witness[rel] if rel in witness else fresh[rel]

        for a in current:
            if a.is_bottom:
                continue
            for b in current:
                if b.is_bottom or not _compatible(a, b):
                    continue
                if a.arity == b.arity:
                    emit(
                        _can(a.arity, a.tuples | b.tuples, a.tag or b.tag),
                        UnionTerm(query_of(a), query_of(b)),
                    )
                if a.arity + b.arity <= cfg.k_max:
                    rows = frozenset(x + y for x in a.tuples for y in b.tuples)
                    emit(
                        _can(a.arity + b.arity, rows, a.tag or b.tag),
                        Join(query_of(a), query_of(b)),
                    )
        witness.update(fresh)
        closed |= set(fresh)
        frontier = sorted_relations(fresh)

    # Sanity: witnesses evaluate to their views.
    for rel, query in witness.items():
        assert evaluate(query, labeled) == rel
    return witness


def _record(views: dict[Relation, tuple], rel: Relation, how: tuple, cfg: UniverseConfig) -> None:
    """Insert a new view with its derivation; fail once there are too many."""
    views[rel] = how
    if len(views) > cfg.max_universe:
        raise UniverseTooLarge(f"saturation produced more than {cfg.max_universe} views")


def _saturate_record(relations: frozenset[Relation], cfg: UniverseConfig) -> dict[Relation, tuple]:
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


def generating_queries_record(inst: Instance, cfg: UniverseConfig) -> dict[Relation, QueryTerm]:
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
    for rel, how in _saturate_record(labeled.relations, cfg).items():
        if how:
            build, *operands = how
            witness[rel] = build(*(witness[op] for op in operands))
    return witness


def closed_subsets_next_closure(x: Instance, cfg: UniverseConfig) -> tuple[ClosedInstance, ...]:
    """All bottom-containing subsets of a closed instance that are themselves closed.

    Enumerates the fixed-point lattice directly (one saturation per closed
    subset) rather than testing all subsets; the count grows with the number
    of closed sets, not with 2**|x|.  Results are in canonical order and
    memoized.
    """
    return _closed_subsets_next_closure_cached(frozenset(x.relations), cfg)


@lru_cache(maxsize=None)
def _closed_subsets_next_closure_cached(
    relations: frozenset[Relation], cfg: UniverseConfig
) -> tuple[ClosedInstance, ...]:
    x = Instance(relations, {})
    if not is_closed(x, cfg):
        raise NotClosedDomain("closed_subsets needs a closed instance")
    ground = [r for r in sorted_relations(x.relations) if not r.is_bottom]
    if len(ground) > 64:
        raise EnumerationTooLarge(f"{len(ground)} relations exceed the closed-subset bound 64")
    index = {rel: i for i, rel in enumerate(ground)}

    def close(subset: frozenset[Relation]) -> frozenset[Relation]:
        return frozenset(_closed_form(subset, cfg))

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
    closed_list = [power_view(Instance(rels | {BOTTOM}, {}), cfg) for rels in results]
    return tuple(sorted(closed_list, key=lambda c: tuple(r.sort_key() for r in c)))
