"""Frozen reference: the two saturation worklists as they stood before the merge.

``viewflux.closure`` once ran the power-view saturation twice, in
``_saturate`` (the view set) and in ``generating_queries`` (a witness query
per view).  Both are kept here verbatim, with the helpers they used, so the
single worklist that replaced them and any later kernel can be compared
against them.  Do not edit: a change here hides a change in the library.
"""

from __future__ import annotations

import itertools

from viewflux.core import (
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    sorted_relations,
    with_default_labels,
)
from viewflux.errors import UniverseTooLarge
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
