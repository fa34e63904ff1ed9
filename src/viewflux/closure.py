"""The power-view closure operator, closed instances and closed-subset lattices.

``power_view`` is the closure of an instance under select, project, union
and join (results capped at the view arity ``k_max``): the set of all views.
It is extensive, monotone and idempotent, so closed instances (fixed points)
form a closure system; their sublattices drive the semantic hom-sets.
Queries select on every constant of the domain, so the closure has a closed
form (BP-completeness; Bancilhon 1978, Paredaens 1978): per coproduct tag,
every non-empty relation over ``adom^n`` for each arity ``n <= k_max``,
where ``adom`` is the component's set of constants, every non-empty set of
its input tuples of each higher arity of its own relations, and the bottom.
Untagged relations belong to every component.  It is the only closure here
(the tests keep the operational worklist as its reference), and
``generating_queries`` reads each view's witness query off it.

So a closure is fixed by its support, which ``support`` computes before it
builds a view: per tag and arity, in order, the sorted rows its views draw
on (every row over the tag's constants up to the cap, the tag's input rows
above it).  The closed set is the bottom and each shape's non-empty subsets
of its rows in lexicographic order, which is the canonical order
(``core.sorted_relations``), kept as ``ClosedInstance.views``.

A closed set's ``mask`` encodes its support as a bit vector (Ganter & Wille,
*Formal Concept Analysis*, 1999): bit 0 for the bottom and, per support row
``(tag, arity, row)``, its index in ``_serial``, a table that only grows, so
a closed set rebuilt after its caches are emptied gets the same mask.  A
shape's views are the non-empty subsets of its rows, so meet, equality and
inclusion of closed sets are ``&``, ``==`` and ``x & ~y == 0`` on masks.
The rows do not depend on the cap (a set closed under two caps has one
mask); at k=1 they are the atoms.

``_closed`` is the one table of closed sets, keyed on the mask, so equal
closures, meets, closed subsets, certified fixed points, zero and total
objects are one object (hash-consing), whatever path or cap built it first
(``{a}`` with the row ``(a,a)`` above cap 1 and ``{a}`` at cap 2 have one
support).  ``_closure`` looks up the mask of a support and on a miss builds
the closed set's views from the support, reusing the relation objects its
caller held; ``meet_closed`` looks up the AND of two masks and on a miss
cuts its first operand's support to the rows the AND keeps and its views to
those the second operand holds.  Each stores the closed set with its views
through ``_intern``: the laws read the views of every closed set they
build, and a plain object with one attribute layout is the one whose reads
the interpreter specializes.  A closed set's sort key reads its support
rows, and ``formats.render_closed`` prints a support, so the ``closure``
command prints the support it computes without building a closed set.
``power_view`` and ``matching`` are memoized on relation sets in front of
the table.  The total object is the closure of the domain's unary relation.

An atom of a closed instance is a view of it with exactly one tuple whose
arity is 1 or above ``k_max``; a tagged atom and its untagged twin are two
atoms.  A closed set is the closure of the atoms it holds, so
``closed_subsets`` closes the sets of atoms of its input, their number,
``2**atoms``, held to ``max_enumeration`` first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache, lru_cache, reduce
from typing import Iterable, Iterator, Mapping

from .core import (
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    sorted_relations,
    with_default_labels,
)
from .errors import EnumerationTooLarge, NotClosedDomain, UniverseTooLarge, UnknownConstant
from .queries import Base, Bot, ColEqConst, Join, Project, QueryTerm, Select, UnionTerm


@dataclass(frozen=True, eq=False, repr=False)
class ClosedInstance(Instance):
    """An instance certified equal to its own power view.

    Only ``_intern`` builds one, stored in the table ``_closed`` under its
    mask, so holding one is the certificate; its labels are empty and it does
    not record its cap.  ``mask`` holds its support rows as bits, ``support``
    the rows themselves (module docstring) and ``views`` its relations in
    canonical order, all set when it is built.
    """

    mask: int = field(kw_only=True)
    support: list[tuple] = field(kw_only=True)
    views: tuple[Relation, ...] = field(kw_only=True)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.views)

    def sort_key(self) -> tuple:
        """The canonical order of closed sets: by their views' keys, in order,
        read off the support (a view's key is ``Relation.sort_key``)."""
        return ((0,), *((1, tag, n, s) for tag, n, rows in self.support for s in lex_subsets(rows)))


#: The bit of each support row in a mask, numbered from 1 in order of first use.
_serial: dict[tuple, int] = {}
_serials = itertools.count(1)


def lex_subsets(rows: list) -> list[tuple]:
    """The non-empty subsets of the sorted ``rows``, each a sorted tuple, in
    lexicographic order: ``L(j) = [(r_j,)] + [(r_j,) + s for s in L(j+1)] + L(j+1)``."""
    out: list[tuple] = []
    for row in reversed(rows):
        head = (row,)
        out = [head, *map(head.__add__, out), *out]
    return out


def support(relations: Iterable[Relation], cfg: UniverseConfig) -> list[tuple]:
    """The shapes ``(tag, arity, rows)`` of the support of the closure of
    ``relations``; a constant outside the domain, then a closure of more than
    ``max_universe`` views, is refused before a row is formed."""
    parts: dict[tuple[str, ...], tuple[set, dict]] = {(): (set(), {})}
    for rel in relations:  # the bottom adds no constant and no tuple
        adom, high = parts.setdefault(rel.tag, (set(), {}))
        adom.update(c for t in rel.tuples for c in t)
        if rel.arity > cfg.k_max:
            high.setdefault(rel.arity, set()).update(rel.tuples)
    shared_adom, shared_high = parts[()]
    cap = cfg.max_universe.bit_length() + 1  # count the views before building one
    views, shapes = 1, []
    for tag in sorted(parts):
        adom, high = parts[tag]
        if not adom <= cfg.domain:
            raise UnknownConstant(f"constant {min(adom - cfg.domain)!r} is not in the domain")
        adom = sorted(adom | shared_adom)
        # Past the bound no arity is formed, so a large k_max costs no more.
        for n in range(1, cfg.k_max + 1) if adom else ():
            if views > cfg.max_universe:
                break
            shapes.append((tag, n, adom))
            views += (1 << min(len(adom) ** n, cap)) - 1
        for n in sorted(high):
            rows = sorted(high[n] | shared_high.get(n, set()))
            shapes.append((tag, n, rows))
            views += (1 << min(len(rows), cap)) - 1
    if views > cfg.max_universe:
        raise UniverseTooLarge(f"saturation produced more than {cfg.max_universe} views")
    return [
        (tag, n, tuple(itertools.product(rows, repeat=n)) if n <= cfg.k_max else tuple(rows))
        for tag, n, rows in shapes
    ]


#: The one table of closed sets, keyed on their masks (module docstring).
_closed: dict[int, ClosedInstance] = {}


def _intern(mask: int, support: list[tuple], views: tuple[Relation, ...]) -> ClosedInstance:
    """The closed set of ``mask`` stored in the table, built with its support
    and views; ``setdefault`` is atomic, so threads agree on one object."""
    closed = ClosedInstance(frozenset(views), {}, mask=mask, support=support, views=views)
    return _closed.setdefault(mask, closed)


def _closure(support: list[tuple], held: Mapping[Relation, Relation]) -> ClosedInstance:
    """The closed set of a support: its mask looked up, or stored with its
    views built in canonical order, reusing the objects that ``held`` maps to
    themselves."""
    mask = 1
    for tag, n, rows in support:
        for row in rows:
            key = (tag, n, row)
            if key not in _serial:
                _serial.setdefault(key, next(_serials))  # atomic, so threads agree on each bit
            mask |= 1 << _serial[key]
    if mask in _closed:
        return _closed[mask]
    return _intern(mask, support, _views(support, held))


def _views(support: list[tuple], held: Mapping[Relation, Relation]) -> tuple[Relation, ...]:
    """The views of a support in canonical order, ``held``'s objects reused."""
    views = [BOTTOM]
    for tag, n, rows in support:
        views += (Relation(n, frozenset(subset), tag) for subset in lex_subsets(rows))
    return tuple(map(held.get, views, views))


@lru_cache(maxsize=None)
def _power_view_cached(relations: frozenset[Relation], cfg: UniverseConfig) -> ClosedInstance:
    return _closure(support(relations, cfg), {rel: rel for rel in relations})


def power_view(inst: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The set of all views of an instance: its closure under the operators.

    Built from the closed form, so its constants must be in the domain.
    Extensive (A is contained in the result), monotone, and idempotent.
    Memoized on the relation set in front of ``_closed``, the table keyed on
    masks; both are read-mostly and safe to share between threads because
    every value is immutable.
    """
    return _power_view_cached(inst.relations, cfg)


def is_closed(inst: Instance, cfg: UniverseConfig) -> bool:
    return BOTTOM in inst.relations and power_view(inst, cfg) == inst


def certify_closed(inst: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The closure of an instance verified to be a fixed point of power_view."""
    if not is_closed(inst, cfg):
        raise NotClosedDomain(f"instance {inst!r} is not closed")
    return power_view(inst, cfg)


def meet_closed(a: ClosedInstance, b: ClosedInstance) -> ClosedInstance:
    """Intersection of two closed sets, closed because the system is closed
    under arbitrary intersections: the AND of their masks, looked up in the
    table.  Stored on a miss with the rows of ``a``'s support that the AND
    keeps and the views of ``a`` that ``b`` holds, in ``a``'s order, which is
    canonical since a subsequence of it is."""
    mask = a.mask & b.mask
    if mask in _closed:
        return _closed[mask]
    return _intern(mask, _kept_rows(a.support, mask), _kept_views(a, b))


def _kept_rows(support: list[tuple], mask: int) -> list[tuple]:
    """The shapes of ``support`` cut to the rows whose bits ``mask`` sets
    (a function of its own, so that ``meet_closed`` holds no cell)."""
    shapes = (
        (tag, n, tuple(row for row in rows if mask >> _serial[tag, n, row] & 1))
        for tag, n, rows in support
    )
    return [shape for shape in shapes if shape[2]]


def _kept_views(a: ClosedInstance, b: ClosedInstance) -> tuple[Relation, ...]:
    """The views of the meet of ``a`` and ``b``: those of ``a`` that ``b`` holds
    (a function of its own, so that ``meet_closed`` holds no cell)."""
    return tuple(view for view in a.views if view in b.relations)


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
    queries and the bottom to the bottom term.  Every other view is read off
    the closed form: the union, over its tuples in sorted order, of a term
    yielding just that tuple.  Such a term reads the first base relation
    ``r``, in canonical order, of the view's component that holds what it
    needs.  A tuple up to ``k_max`` is the join of ``sel[1='c'](proj[j](r))``
    over its constants ``c``, with ``c`` in column ``j`` of ``r``; a tuple
    above the cap is ``r`` holding it, selected on every column.  An
    untagged ``r`` under a tagged view is first united with a relation of
    that tag, of the arity needed, which carries the tag over; the closed
    form gives a view a tag, and a tag an arity above the cap, only when an
    input relation has them, so there is one.
    """
    labeled = with_default_labels(inst)
    witness: dict[Relation, QueryTerm] = {
        rel: Base(name) for name, rel in labeled.labels.items()
    }
    witness[BOTTOM] = Bot()
    bases = [(rel, witness[rel]) for rel in sorted_relations(labeled.relations) if rel.tuples]

    def tagged(term, rel, tag, arity):
        """``term``, read from ``rel`` and of ``arity``, made to carry ``tag``."""
        if rel.tag == tag:
            return term
        own = next(t for o, t in bases if o.tag == tag and arity in (1, o.arity))
        return UnionTerm(term, Project((1,), own) if arity == 1 else own)

    @cache
    def constant_term(tag, c):
        rel, term, col = next(
            (rel, term, col) for rel, term in bases if rel.tag in ((), tag)
            for col in range(1, rel.arity + 1) if any(t[col - 1] == c for t in rel.tuples)
        )
        return Select(ColEqConst(1, c), tagged(Project((col,), term), rel, tag, 1))

    @cache
    def row_term(tag, row):
        if len(row) <= cfg.k_max:
            return reduce(Join, (constant_term(tag, c) for c in row))
        rel, term = next(
            (rel, term) for rel, term in bases if rel.tag in ((), tag) and row in rel.tuples
        )
        term = tagged(term, rel, tag, len(row))
        for i, c in enumerate(row, 1):
            term = Select(ColEqConst(i, c), term)
        return term

    for view in power_view(labeled, cfg).relations:
        if view not in witness:
            terms = (row_term(view.tag, row) for row in sorted(view.tuples))
            witness[view] = reduce(UnionTerm, terms)
    return witness


def total_object(cfg: UniverseConfig) -> ClosedInstance:
    """The local total object: every relation over the domain up to the cap,
    refused past ``max_universe`` as ``universe_size`` refuses it.  By the
    closed form it is the closure of the unary relation of all constants,
    looked up in the table alone, not through ``power_view``'s memo."""
    cfg.universe_size()
    return _closure(support([Relation(1, frozenset(zip(cfg.domain)))], cfg), {})


def po_leq(a: Instance, b: Instance, cfg: UniverseConfig) -> bool:
    """Behavioral inclusion: every view of a is a view of b."""
    return power_view(a, cfg).mask & ~power_view(b, cfg).mask == 0


def isomorphic(a: Instance, b: Instance, cfg: UniverseConfig) -> bool:
    """Behavioral equivalence: a and b have the same views."""
    return power_view(a, cfg).mask == power_view(b, cfg).mask


def zero_object() -> ClosedInstance:
    """The closed set of the bottom alone, mask 1."""
    return _closure([], {})


def closed_subsets(x: Instance, cfg: UniverseConfig) -> tuple[ClosedInstance, ...]:
    """All bottom-containing subsets of a closed instance that are themselves closed.

    Each one is the closure of the atoms it holds (module docstring), so the
    lattice is enumerated as the closures of the sets of atoms of ``x``, with
    repeats dropped.  Results are in canonical order and memoized.
    """
    return _closed_subsets_cached(frozenset(x.relations), cfg)


@lru_cache(maxsize=None)
def _closed_subsets_cached(
    relations: frozenset[Relation], cfg: UniverseConfig
) -> tuple[ClosedInstance, ...]:
    if not is_closed(Instance(relations, {}), cfg):
        raise NotClosedDomain("closed_subsets needs a closed instance")
    atoms = [r for r in relations if len(r.tuples) == 1 and (r.arity == 1 or r.arity > cfg.k_max)]
    if 1 << len(atoms) > cfg.max_enumeration:  # one support per set of atoms
        raise EnumerationTooLarge(
            f"2**{len(atoms)} sets of atoms exceed the enumeration bound {cfg.max_enumeration}"
        )
    held = {rel: rel for rel in relations}
    closures = {}  # keyed on masks, which hash without walking the views
    for k in range(len(atoms) + 1):
        for subset in itertools.combinations(atoms, k):
            closed = _closure(support(subset, cfg), held)
            closures[closed.mask] = closed
    return tuple(sorted(closures.values(), key=ClosedInstance.sort_key))
