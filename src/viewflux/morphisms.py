"""View-based morphisms between instances: syntax trees plus information flux.

A morphism carries two layers.  The syntactic layer is a set of view-map
trees (queries over the source, possibly grafted through intermediate
stages by composition).  The semantic layer is the information flux: the
closed set of views actually transmitted, which is the identity of the
arrow (two arrows are equivalent exactly when their fluxes are equal).
Composition intersects fluxes; the category's laws all live at that layer,
with trees kept as witnesses.  An arrow built from its fluxes alone (identity,
reversal, lift, characteristic arrow) holds a builder of its trees, run on
first read, so the laws, which read no trees, build none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable

from .closure import (
    ClosedInstance,
    closed_subsets,
    generating_queries,
    is_closed,
    matching,
    meet_closed,
    power_view,
    zero_object,
)
from .core import (
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    sorted_relations,
    with_default_labels,
)
from .errors import (
    DomainMismatch,
    FluxOutOfRange,
    NotClosedDomain,
    NotParallel,
    ResultNotInTarget,
)
from .queries import QueryTerm, base_names, evaluate, parse_query


@dataclass(frozen=True)
class ViewMap:
    """An elementary query arrow: a query over an instance and its view."""

    query: QueryTerm
    source: Instance
    result: Relation

    @property
    def inputs(self) -> frozenset[Relation]:
        """The argument relations the query reads (the bottom for the bottom term)."""
        names = base_names(self.query)
        if not names:
            return frozenset({BOTTOM})
        return frozenset(self.source.labels[n] for n in names)


def view_map(query: QueryTerm | str, source: Instance) -> ViewMap:
    if isinstance(query, str):
        schema = {n: r.arity for n, r in source.labels.items()}
        query = parse_query(query, schema)
    return ViewMap(query, source, evaluate(query, source))


@dataclass(frozen=True)
class ViewTree:
    """A view-map with the subtrees (from earlier stages) feeding its inputs."""

    head: ViewMap
    children: tuple["ViewTree", ...] = ()

    @property
    def result(self) -> Relation:
        return self.head.result


@dataclass(frozen=True, eq=False, slots=True)
class Morphism:
    """A mapping between instances: view-map trees plus cached flux.

    Equality of morphisms is deliberately not structural; use ``equiv`` for
    the semantic equivalence (flux equality) the laws are stated in.  A law
    pass interns its witness-free arrows; beyond one pass identity means nothing.
    The laws' flux equations read the flux's mask (``closure`` module docstring).
    """

    source: Instance
    target: Instance
    _trees: frozenset[ViewTree] | Callable[[], list[ViewTree]]
    flux: ClosedInstance
    cfg: UniverseConfig

    @property
    def trees(self) -> frozenset[ViewTree]:
        """The view-map trees, built by the arrow's builder on first read."""
        if callable(self._trees):
            object.__setattr__(self, "_trees", frozenset(self._trees()))
        return self._trees

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r}, flux={self.flux!r})"


#: Witness-free arrows of one law pass, keyed by the identity of their endpoint, flux and cfg
#: objects (equal instances may differ in labels); the arrows among them that ``semantic_arrow``
#: verified, keyed alike; and the memos that ``per_pass`` registers.
_interned, _verified, _pass_memos = {}, {}, []
_NO_TREES = frozenset()  # shared by every witness-free arrow


def per_pass(fn: Callable) -> Callable:
    """Memoize ``fn`` per law pass (``clear_arrows`` empties it); a raising call stores nothing."""
    memo = lru_cache(maxsize=None)(fn)
    _pass_memos.append(memo)
    return memo


def clear_arrows() -> None:
    """Empty the arrow tables; each law pass starts with them empty."""
    _interned.clear()
    _verified.clear()
    for memo in _pass_memos:
        memo.cache_clear()


def _morphism(
    source: Instance,
    target: Instance,
    trees: Iterable[ViewTree] | Callable[[], list[ViewTree]],
    flux: ClosedInstance,
    cfg: UniverseConfig,
    check_range: bool = True,
    interned: bool = False,
) -> Morphism:
    if check_range and flux.mask & ~matching(source, target, cfg).mask:
        raise FluxOutOfRange(f"flux {flux!r} escapes the matching of the endpoints")
    if not interned:
        trees = trees if callable(trees) else frozenset(trees) or _NO_TREES
        return Morphism(source, target, trees, flux, cfg)
    key = (id(source), id(target), id(flux), id(cfg))
    arrow = _interned.get(key)
    if arrow is None:
        arrow = _interned[key] = Morphism(source, target, _NO_TREES, flux, cfg)
    return arrow


def atomic_morphism(
    source: Instance,
    target: Instance,
    queries: Iterable[QueryTerm | str],
    cfg: UniverseConfig,
) -> Morphism:
    """A depth-one morphism from a set of queries over the source.

    Every query result must be a relation of the target; the flux is the
    closure of the result set.  An empty query set yields the empty arrow.
    """
    trees = []
    results = set()
    for q in queries:
        vm = view_map(q, source)
        if vm.result not in target.relations and not vm.result.is_bottom:
            raise ResultNotInTarget(f"view {vm.result!r} is not in the target instance")
        trees.append(ViewTree(vm))
        results.add(vm.result)
    flux = power_view(Instance(frozenset(results) | {BOTTOM}, {}), cfg)
    return _morphism(source, target, trees, flux, cfg)


def empty_arrow(source: Instance, target: Instance, cfg: UniverseConfig) -> Morphism:
    """The arrow that transmits nothing; it exists between any two instances."""
    return _morphism(source, target, (), zero_object(), cfg)


def semantic_arrow(
    source: Instance,
    target: Instance,
    flux: Instance | Iterable[Relation],
    cfg: UniverseConfig,
) -> Morphism:
    """A morphism with a prescribed flux and no syntactic witnesses.

    The flux must be a closed set inside the matching of the endpoints.
    That is checked once per law pass for each set of endpoint, flux and
    ``cfg`` objects: an arrow that passed is kept in ``_verified``, and a later
    call with the same objects returns it.  Every equivalence class of arrows
    contains such a representative, so the exhaustive suites quantify over these.
    """
    key = (id(source), id(target), id(flux), id(cfg))
    arrow = _verified.get(key)
    if arrow is not None:
        return arrow
    if not isinstance(flux, Instance):
        flux = Instance(frozenset(flux), {})
    closed = power_view(flux, cfg)
    # A closed set is interned, so a flux closed under cfg is its own closure.
    if closed is not flux and closed.relations != flux.relations | {BOTTOM}:
        raise FluxOutOfRange(
            f"prescribed flux {sorted_relations(flux.relations | {BOTTOM})!r} is not closed"
        )
    arrow = _morphism(source, target, (), closed, cfg, interned=True)
    if closed is flux:  # the arrow holds the key's objects, so their ids stay theirs
        _verified[key] = arrow
    return arrow


def _witness_trees(
    source: Instance, views: Iterable[Relation], cfg: UniverseConfig
) -> list[ViewTree]:
    """One view-map per view over ``source`` (labeled by default), in canonical
    order, each with the view's query from ``generating_queries``."""
    labeled = with_default_labels(source)
    witness = generating_queries(labeled, cfg)
    return [ViewTree(ViewMap(witness[v], labeled, v)) for v in sorted_relations(views)]


def identity(a: Instance, cfg: UniverseConfig) -> Morphism:
    """The identity arrow: flux is the full closure, one view-map per view."""
    closed = power_view(a, cfg)
    return _morphism(a, a, partial(_witness_trees, a, closed.relations, cfg), closed, cfg)


def _graft(tree: ViewTree, below: list[ViewTree]) -> tuple[ViewTree, bool]:
    """Graft under each leaf of ``tree`` the trees ``below`` that feed it; tell if any did."""
    if tree.children:
        grafted = [_graft(child, below) for child in tree.children]
        return ViewTree(tree.head, tuple(t for t, _ in grafted)), any(m for _, m in grafted)
    matches = tuple(t for t in below if t.result in tree.head.inputs)
    return ViewTree(tree.head, matches), bool(matches)


@per_pass
def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite g after f.

    Trees: keep each top-level tree of g at least one of whose leaves reads
    a view produced by f, grafting the matching trees of f under those
    leaves (the natural extension of single-stage grafting to nested trees).
    Flux: the intersection of the two fluxes.  Memoized per law pass on the
    pair, so the checks below run on the first call only.
    """
    if f.cfg is not g.cfg and f.cfg != g.cfg:
        raise DomainMismatch("morphisms built over different configurations")
    if f.target is not g.source and f.target != g.source:
        raise DomainMismatch(
            f"cannot compose: intermediate objects differ ({f.target!r} vs {g.source!r})"
        )
    trees = []
    # Test for trees without building any: a builder always yields some (its views hold the bottom).
    if f._trees and g._trees:
        below = sorted(f.trees, key=lambda tr: tr.result.sort_key())
        for tree in g.trees:
            grafted, matched = _graft(tree, below)
            if matched:
                trees.append(grafted)
    flux = meet_closed(g.flux, f.flux)
    return _morphism(f.source, g.target, trees, flux, f.cfg, check_range=False, interned=not trees)


def equiv(f: Morphism, g: Morphism) -> bool:
    """Semantic equality of arrows: equal fluxes."""
    return f.flux.mask == g.flux.mask


def arrow_po_leq(f: Morphism, g: Morphism) -> bool:
    """The two-cell order on parallel arrows: flux inclusion."""
    if f.source != g.source or f.target != g.target:
        raise NotParallel("arrow order is defined for parallel arrows only")
    return f.flux.mask & ~g.flux.mask == 0


def is_mono(f: Morphism) -> bool:
    return f.flux.mask == power_view(f.source, f.cfg).mask


def is_epi(f: Morphism) -> bool:
    return f.flux.mask == power_view(f.target, f.cfg).mask


def is_iso(f: Morphism) -> bool:
    return is_mono(f) and is_epi(f)


def lift_arrow(f: Morphism) -> Morphism:
    """Lift an arrow to the closures of its endpoints, keeping its flux.

    The lifted arrow has one identity view-map per transmitted view and
    preserves the mono/epi/iso properties of the original.
    """
    src = with_default_labels(power_view(f.source, f.cfg), "v")
    tgt = power_view(f.target, f.cfg)
    # Every view of src is labeled, so each witness query is its label (Bot for the bottom).
    trees = partial(_witness_trees, src, f.flux.relations, f.cfg)
    return _morphism(src, tgt, trees, f.flux, f.cfg)


def invert(f: Morphism) -> Morphism:
    """The reversed arrow with the same flux (the duality involution)."""
    trees = partial(_witness_trees, f.target, f.flux.relations, f.cfg)
    return _morphism(f.target, f.source, trees, f.flux, f.cfg)


def totalize(f: Morphism) -> dict[Relation, Relation]:
    """The total-function form of an arrow between closed instances.

    Maps every view of the source to itself when transmitted, and to the
    bottom otherwise.  Two parallel arrows have equal tables exactly when
    they are equivalent.
    """
    if not is_closed(f.source, f.cfg) or not is_closed(f.target, f.cfg):
        raise NotClosedDomain("totalization needs closed source and target")
    return {
        v: (v if v in f.flux.relations else BOTTOM)
        for v in sorted_relations(f.source.relations)
    }


def semantic_homset(
    a: Instance, b: Instance, cfg: UniverseConfig
) -> tuple[ClosedInstance, ...]:
    """The canonical semantic hom-set: closed subsets of the endpoint matching.

    Each closed set between the zero object and the matching of the
    endpoints is the flux of exactly one equivalence class of arrows.
    """
    return closed_subsets(matching(a, b, cfg), cfg)


def semantic_arrows(a: Instance, b: Instance, cfg: UniverseConfig) -> tuple[Morphism, ...]:
    """One representative arrow per equivalence class from a to b, each holding
    its interned flux; a suite run keeps one such tuple per pair of classes."""
    return tuple(semantic_arrow(a, b, flux, cfg) for flux in semantic_homset(a, b, cfg))
