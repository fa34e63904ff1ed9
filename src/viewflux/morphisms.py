"""View-based morphisms between instances: syntax trees plus information flux.

A morphism carries two layers.  The syntactic layer is a set of view-map
trees (queries over the source, possibly grafted through intermediate
stages by composition).  The semantic layer is the information flux: the
closed set of views actually transmitted, which is the identity of the
arrow (two arrows are equivalent exactly when their fluxes are equal).
Composition intersects fluxes; the category's laws all live at that layer,
with trees kept as witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .closure import (
    ClosedInstance,
    generating_queries,
    is_closed,
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
from .queries import Base, Bot, QueryTerm, base_names, evaluate, parse_query


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

    def leaves(self) -> tuple[ViewMap, ...]:
        if not self.children:
            return (self.head,)
        out: list[ViewMap] = []
        for child in self.children:
            out.extend(child.leaves())
        return tuple(out)


@dataclass(frozen=True, eq=False)
class Morphism:
    """A mapping between instances: view-map trees plus cached flux.

    Equality of morphisms is deliberately not structural; use ``equiv`` for
    the semantic equivalence (flux equality) the laws are stated in.
    """

    source: Instance
    target: Instance
    trees: frozenset[ViewTree]
    flux: ClosedInstance
    cfg: UniverseConfig

    @property
    def outputs(self) -> frozenset[Relation]:
        """Views produced by the top-level trees (the arrow's generators)."""
        return frozenset(t.result for t in self.trees)

    @property
    def inputs(self) -> frozenset[Relation]:
        """Source relations consumed by the leaf view-maps."""
        out: set[Relation] = set()
        for tree in self.trees:
            for leaf in tree.leaves():
                out |= leaf.inputs
        return frozenset(out) if out else frozenset({BOTTOM})

    def __repr__(self):
        return f"Morphism({self.source!r} -> {self.target!r}, flux={self.flux!r})"


def _morphism(
    source: Instance,
    target: Instance,
    trees: Iterable[ViewTree],
    flux: ClosedInstance,
    cfg: UniverseConfig,
    check_range: bool = True,
) -> Morphism:
    if check_range:
        bound = power_view(source, cfg).relations & power_view(target, cfg).relations
        if not flux.relations <= bound:
            raise FluxOutOfRange(
                f"flux {flux!r} escapes the matching of the endpoints"
            )
    return Morphism(source, target, frozenset(trees), flux, cfg)


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
    Every equivalence class of arrows contains such a representative, so the
    exhaustive suites quantify over these.
    """
    rels = frozenset(flux.relations if isinstance(flux, Instance) else flux) | {BOTTOM}
    closed = power_view(Instance(rels, {}), cfg)
    if closed.relations != rels:
        raise FluxOutOfRange(
            f"prescribed flux {sorted_relations(rels)!r} is not closed"
        )
    return _morphism(source, target, (), closed, cfg)


def identity(a: Instance, cfg: UniverseConfig) -> Morphism:
    """The identity arrow: flux is the full closure, one view-map per view.

    Views of ``a`` that are not relations of ``a`` get the first generating
    query found during saturation as their witness.
    """
    labeled = with_default_labels(a)
    witness = generating_queries(labeled, cfg)
    trees = [
        ViewTree(ViewMap(witness[v], labeled, v))
        for v in sorted_relations(power_view(a, cfg).relations)
    ]
    return _morphism(a, a, trees, power_view(a, cfg), cfg)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """The composite g after f.

    Trees: keep each top-level tree of g at least one of whose leaves reads
    a view produced by f, grafting the matching trees of f under those
    leaves (the natural extension of single-stage grafting to nested trees).
    Flux: the intersection of the two fluxes.
    """
    if f.cfg != g.cfg:
        raise DomainMismatch("morphisms built over different configurations")
    if f.target != g.source:
        raise DomainMismatch(
            f"cannot compose: intermediate objects differ ({f.target!r} vs {g.source!r})"
        )

    def graft(tree: ViewTree) -> tuple[ViewTree, bool]:
        if tree.children:
            grafted = []
            matched_any = False
            for child in tree.children:
                new_child, matched = graft(child)
                grafted.append(new_child)
                matched_any = matched_any or matched
            return ViewTree(tree.head, tuple(grafted)), matched_any
        matches = tuple(
            t for t in sorted(f.trees, key=lambda tr: tr.result.sort_key())
            if t.result in tree.head.inputs
        )
        return ViewTree(tree.head, matches), bool(matches)

    trees = []
    for tree in g.trees:
        grafted, matched = graft(tree)
        if matched:
            trees.append(grafted)
    flux = meet_closed(g.flux, f.flux)
    return _morphism(f.source, g.target, trees, flux, f.cfg, check_range=False)


def equiv(f: Morphism, g: Morphism) -> bool:
    """Semantic equality of arrows: equal fluxes."""
    return f.flux.relations == g.flux.relations


def arrow_po_leq(f: Morphism, g: Morphism) -> bool:
    """The two-cell order on parallel arrows: flux inclusion."""
    if f.source != g.source or f.target != g.target:
        raise NotParallel("arrow order is defined for parallel arrows only")
    return f.flux.relations <= g.flux.relations


def is_mono(f: Morphism) -> bool:
    return f.flux.relations == power_view(f.source, f.cfg).relations


def is_epi(f: Morphism) -> bool:
    return f.flux.relations == power_view(f.target, f.cfg).relations


def is_iso(f: Morphism) -> bool:
    return is_mono(f) and is_epi(f)


def lift_arrow(f: Morphism) -> Morphism:
    """Lift an arrow to the closures of its endpoints, keeping its flux.

    The lifted arrow has one identity view-map per transmitted view and
    preserves the mono/epi/iso properties of the original.
    """
    src = with_default_labels(Instance(power_view(f.source, f.cfg).relations, {}), "v")
    tgt = Instance(power_view(f.target, f.cfg).relations, {})
    name_of = {rel: name for name, rel in src.labels.items()}
    trees = [
        ViewTree(ViewMap(Bot() if v.is_bottom else Base(name_of[v]), src, v))
        for v in sorted_relations(f.flux.relations)
    ]
    return _morphism(src, tgt, trees, f.flux, f.cfg)


def invert(f: Morphism) -> Morphism:
    """The reversed arrow with the same flux (the duality involution)."""
    labeled = with_default_labels(f.target)
    witness = generating_queries(labeled, f.cfg)
    trees = [
        ViewTree(ViewMap(witness[v], labeled, v))
        for v in sorted_relations(f.flux.relations)
    ]
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
    from .closure import closed_subsets

    meet = meet_closed(power_view(a, cfg), power_view(b, cfg))
    return closed_subsets(meet, cfg)


def semantic_arrows(a: Instance, b: Instance, cfg: UniverseConfig) -> tuple[Morphism, ...]:
    """One representative arrow per equivalence class from a to b."""
    return tuple(semantic_arrow(a, b, flux, cfg) for flux in semantic_homset(a, b, cfg))
