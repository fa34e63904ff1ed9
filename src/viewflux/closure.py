"""The power-view closure operator, closed instances and closed-subset lattices.

``power_view`` is the closure of an instance under select, project, union
and join (results capped at the view arity ``k_max``): the set of all views.
It is extensive, monotone and idempotent, so closed instances (fixed points)
form a closure system; their sublattices drive the semantic hom-sets.
Queries select on every constant of the domain, so the closure has a closed
form (BP-completeness; Bancilhon 1978, Paredaens 1978), built per coproduct
tag by ``_closed_form``: every non-empty relation over ``adom^n`` for each
arity ``n <= k_max``, where ``adom`` is the component's set of constants,
every non-empty set of its input tuples of each higher arity of its own
relations, and the bottom.  Untagged relations belong to every component.
Its reference is the operational definition: ``_saturate``, a semi-naive
worklist that records each view's first derivation (the operator and its
operands), from which ``generating_queries`` rebuilds a witness query.

An atom of a closed instance is a view of it with exactly one tuple whose
arity is 1 or above ``k_max``; a tagged atom and its untagged twin are two
atoms.  By the closed form, a closed set is the closure of the atoms it
holds, so ``closed_subsets`` enumerates the closures of sets of atoms.

Closed sets are interned (hash-consed): ``_closed`` keeps one
``ClosedInstance`` per relation set, so every operation that yields a closed
set hands back that one object, and ``meet_closed`` and ``matching`` are
memoized on the relation sets.  Their labels stay empty and shared.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

from .core import (
    BOTTOM,
    Constant,
    Instance,
    Relation,
    UniverseConfig,
    ZERO,
    sorted_relations,
    universe_relations,
    with_default_labels,
)
from .errors import EnumerationTooLarge, NotClosedDomain, UniverseTooLarge, UnknownConstant
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
    closed sets), so holding one is the certificate.  There is one object per
    relation set (``_closed`` interns them); its labels are empty and shared,
    and it does not record the configuration it was closed under.
    """


def _closed(relations: Iterable[Relation]) -> ClosedInstance:
    return _interned(frozenset(relations) | {BOTTOM})


@lru_cache(maxsize=None)
def _interned(relations: frozenset[Relation]) -> ClosedInstance:
    return ClosedInstance(relations, {})


def _select_const(i: int, c: Constant):
    return lambda q: Select(ColEqConst(i, c), q)


def _select_cols(i: int, j: int):
    return lambda q: Select(ColEqCol(i, j), q)


def _project(cols: tuple[int, ...]):
    return lambda q: Project(cols, q)


def _apply_unary(rel: Relation, cfg: UniverseConfig):
    """Yield (arity, tuples, make, args) for every select/project applicable to rel.

    ``make(*args)`` is the candidate's query builder; it is made only for a
    candidate that turns out to be a new view.  Raises before the first one
    when the projections (one per column tuple) exceed ``cfg.max_enumeration``.
    """
    if rel.is_bottom:
        return
    n = rel.arity
    counts = itertools.accumulate(n**m for m in range(1, cfg.k_max + 1))
    if any(count > cfg.max_enumeration for count in counts):  # lazy: a huge k_max costs nothing
        raise EnumerationTooLarge(
            f"projections of arity {n} up to arity {cfg.k_max} exceed the bound {cfg.max_enumeration}"
        )
    for i in range(1, n + 1):
        for c in cfg.constants():
            kept = frozenset(t for t in rel.tuples if t[i - 1] == c)
            yield n, kept, _select_const, (i, c)
        for j in range(i + 1, n + 1):
            kept = frozenset(t for t in rel.tuples if t[i - 1] == t[j - 1])
            yield n, kept, _select_cols, (i, j)
    for m in range(1, cfg.k_max + 1):
        for cols in itertools.product(range(1, n + 1), repeat=m):
            rows = frozenset(tuple(t[c - 1] for c in cols) for t in rel.tuples)
            yield m, rows, _project, (cols,)


def _compatible(a: Relation, b: Relation) -> bool:
    return not a.tag or not b.tag or a.tag == b.tag


def _record(
    views: dict[Relation, tuple], keys: set[tuple], rel: Relation, how: tuple, cfg: UniverseConfig
) -> None:
    """Insert a new view with its derivation; fail once there are too many."""
    views[rel] = how
    keys.add((rel.arity, rel.tuples, rel.tag))
    if len(views) > cfg.max_universe:
        raise UniverseTooLarge(f"saturation produced more than {cfg.max_universe} views")


def _saturate(relations: frozenset[Relation], cfg: UniverseConfig) -> dict[Relation, tuple]:
    """Least superset of the input (plus bottom) closed under the operators.

    Maps each view to its first derivation, in insertion order: ``()`` for
    the bottom and the inputs, otherwise ``(build, operand, ...)``, where
    ``build`` turns the operands' query terms into the view's term.  Every
    operand is inserted before the views derived from it.

    A round applies the unary operators to the views the last round added,
    then combines pairs of non-bottom views in canonical order.  A pair of
    views both present at the last pair pass is skipped (it was combined
    then), and a union is formed only at the pair whose second view sorts
    later (the mirrored pair gave the same union earlier).  Candidates are
    looked up by their ``(arity, tuples, tag)`` key, and a ``Relation`` is
    built only for a new view.  No skipped candidate could have been new,
    so the record is the one that combining all pairs every round gives.
    """
    views: dict[Relation, tuple] = {}
    keys: set[tuple] = set()
    for rel in sorted_relations(set(relations) | {BOTTOM}):
        _record(views, keys, rel, (), cfg)
    frontier = list(views)
    old: set[Relation] = set()
    while frontier:
        known = len(views)
        for rel in frontier:
            for arity, rows, make, args in _apply_unary(rel, cfg):
                key = (arity, rows, rel.tag)
                if rows and key not in keys:
                    _record(views, keys, Relation(*key), (make(*args), rel), cfg)
        # The bottom drops out: a union or join of non-empty relations is non-empty.
        current = list(enumerate(sorted_relations(r for r in views if not r.is_bottom)))
        fresh = [(j, b) for j, b in current if b not in old]
        for i, a in current:
            for j, b in fresh if a in old else current:
                if not _compatible(a, b):
                    continue
                tag = a.tag or b.tag
                if j > i and a.arity == b.arity:
                    key = (a.arity, a.tuples | b.tuples, tag)
                    if key not in keys:
                        _record(views, keys, Relation(*key), (UnionTerm, a, b), cfg)
                if a.arity + b.arity <= cfg.k_max:
                    rows = frozenset(x + y for x in a.tuples for y in b.tuples)
                    key = (a.arity + b.arity, rows, tag)
                    if key not in keys:
                        _record(views, keys, Relation(*key), (Join, a, b), cfg)
        old = {a for _, a in current}
        frontier = sorted_relations(itertools.islice(views, known, None))
    return views


def _closed_form(relations: Iterable[Relation], cfg: UniverseConfig) -> Iterator[Relation]:
    """Yield ``_saturate``'s views but the bottom, by the closed form (module docstring)."""
    parts: dict[tuple[str, ...], tuple[set, dict]] = {(): (set(), {})}
    for rel in relations:  # the bottom adds no constant and no tuple
        adom, high = parts.setdefault(rel.tag, (set(), {}))
        adom.update(c for t in rel.tuples for c in t)
        if rel.arity > cfg.k_max:
            high.setdefault(rel.arity, set()).update(rel.tuples)
    shared_adom, shared_high = parts[()]
    shapes = []
    for tag, (adom, high) in parts.items():
        if not adom <= cfg.domain:
            raise UnknownConstant(f"constant {min(adom - cfg.domain)!r} is not in the domain")
        adom = sorted(adom | shared_adom)
        shapes += [(tag, n, adom, len(adom) ** n) for n in range(1, cfg.k_max + 1)]
        for n, rows in high.items():
            rows = sorted(rows | shared_high.get(n, set()))
            shapes.append((tag, n, rows, len(rows)))
    cap = cfg.max_universe.bit_length() + 1  # count the views before building one
    if 1 + sum((1 << min(size, cap)) - 1 for *_, size in shapes) > cfg.max_universe:
        raise UniverseTooLarge(f"saturation produced more than {cfg.max_universe} views")
    for tag, n, rows, size in shapes:
        if n <= cfg.k_max:
            rows = list(itertools.product(rows, repeat=n))
        for k in range(1, size + 1):
            yield from (Relation(n, frozenset(c), tag) for c in itertools.combinations(rows, k))


@lru_cache(maxsize=None)
def _power_view_cached(relations: frozenset[Relation], cfg: UniverseConfig) -> ClosedInstance:
    inputs = {rel: rel for rel in relations}  # the cache keeps one object per input relation
    return _closed(inputs.get(rel, rel) for rel in _closed_form(relations, cfg))


def power_view(inst: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The set of all views of an instance: its closure under the operators.

    Built from the closed form, so its constants must be in the domain.
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
        raise NotClosedDomain(f"instance {inst!r} is not closed")
    return _closed(inst.relations)


def meet_closed(a: Instance, b: Instance) -> ClosedInstance:
    """Intersection of two closed instances; closed because the system is
    closed under arbitrary intersections.  Memoized on the two relation sets."""
    return _meet_cached(a.relations, b.relations)


@lru_cache(maxsize=None)
def _meet_cached(a: frozenset[Relation], b: frozenset[Relation]) -> ClosedInstance:
    return _closed(a & b)


def matching(a: Instance, b: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The overlap of two instances: the intersection of their view closures.

    Commutative; matching with the total object gives the closure, matching
    with the zero object gives the zero object.  Memoized on relation sets and ``cfg``.
    """
    return _matching_cached(a.relations, b.relations, cfg)


@lru_cache(maxsize=None)
def _matching_cached(
    a: frozenset[Relation], b: frozenset[Relation], cfg: UniverseConfig
) -> ClosedInstance:
    return meet_closed(_power_view_cached(a, cfg), _power_view_cached(b, cfg))


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
    return result


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

    Each one is the closure of the atoms it holds (module docstring), so the
    lattice is enumerated as the closures of the sets of atoms of ``x``, one
    closed form per set, with repeats dropped.  Results are in canonical
    order and memoized.
    """
    return _closed_subsets_cached(frozenset(x.relations), cfg)


@lru_cache(maxsize=None)
def _closed_subsets_cached(
    relations: frozenset[Relation], cfg: UniverseConfig
) -> tuple[ClosedInstance, ...]:
    if not is_closed(Instance(relations, {}), cfg):
        raise NotClosedDomain("closed_subsets needs a closed instance")
    ground = [r for r in relations if not r.is_bottom]
    if len(ground) > cfg.max_homset_ground:
        raise EnumerationTooLarge(
            f"{len(ground)} relations exceed the closed-subset bound "
            f"{cfg.max_homset_ground}"
        )
    atoms = [r for r in ground if len(r.tuples) == 1 and (r.arity == 1 or r.arity > cfg.k_max)]
    inputs = {rel: rel for rel in relations}  # the cache keeps one object per input relation
    closures = {
        frozenset(inputs[rel] for rel in _closed_form(subset, cfg))
        for k in range(len(atoms) + 1)
        for subset in itertools.combinations(atoms, k)
    }
    return tuple(sorted(map(_closed, closures), key=lambda c: tuple(r.sort_key() for r in c)))
