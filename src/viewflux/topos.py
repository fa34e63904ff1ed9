"""Metric, subobject classifier, pullbacks, factorization and negative probes.

The distance between two instances is the total object when they are
behaviorally equivalent and their matching otherwise, ordered by inverse
inclusion (more shared views means smaller distance).  Pullback squares are
built with corner the intersection of the two fluxes.  Their universal
property is verified in the two-cell form valid for flux semantics: every
commuting cone has exactly one mediating arrow whose full composite to the
cospan target reproduces the cone's composite.  That arrow sits below the
cone legs in the arrow order, which over full hom-sets follows from its
uniqueness, so it is not tested.  The strict one-categorical property fails
in this semantics (a cone may have legs with different fluxes, which no
single mediating flux can reproduce), so the strict form is deliberately not
asserted.  One law pass verifies each distinct square once, whatever its
cospan target: the mediator table is memoized (``per_pass``) on the leg
sources, corner and fluxes, and so is the coproduct check's step that reads
only the corners, left legs and tables of a pair of squares.

The characteristic arrow of a monomorphism is verified at two layers.  The
generator layer works with the set difference of the two closures, exactly
as the classifying pullback requires.  The closure-level audit additionally
closes that generator set and records when the closure meets the subobject,
which happens already for one-element subobjects of two-element instances;
those audits are reported as flagged, never as failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .catops import (
    arrow_coproduct,
    coproduct,
    copair,
    matching,
    tagged_flux,
)
from .closure import (
    ClosedInstance,
    closed_subsets,
    isomorphic,
    meet_closed,
    po_leq,
    power_view,
    total_object,
    zero_object,
)
from .core import (
    BOTTOM,
    ZERO,
    Instance,
    Relation,
    UniverseConfig,
    subset_instances,
    witness,
)
from .errors import DomainMismatch, NotAPullback, NotMonic
from .morphisms import (
    Morphism,
    compose,
    empty_arrow,
    equiv,
    identity,
    is_epi,
    is_mono,
    per_pass,
    semantic_arrow,
    semantic_arrows,
    semantic_homset,
    _morphism,
    _witness_trees,
)


def distance(a: Instance, b: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The distance between two instances: total when equivalent, else matching."""
    if isomorphic(a, b, cfg):
        return total_object(cfg)
    return matching(a, b, cfg)


def closure_classes(cfg: UniverseConfig, max_relations: int, instances=None) -> list[Instance]:
    """One representative instance per behavioral class of ``instances``
    (by default the enumeration ``subset_instances(cfg, max_relations)``)."""
    seen: dict[int, tuple[ClosedInstance, Instance]] = {}  # keyed on masks, hashed without a call
    for inst in subset_instances(cfg, max_relations) if instances is None else instances:
        closed = power_view(inst, cfg)
        seen.setdefault(closed.mask, (closed, inst))
    return [inst for _, inst in sorted(seen.values(), key=lambda pair: pair[0].sort_key())]


def metric_suite(cfg: UniverseConfig, instances: list[Instance]):
    """Yield every check of the distance laws over ``instances``.

    Each check is ``(law, True)`` or ``(law, lazy witness)``; within a law the
    checks come in canonical order (instances, then pairs, then triples).
    """
    total, zero = total_object(cfg).mask, zero_object().mask  # the zero's mask is bit 0, the bottom
    # One distance mask per ordered pair and one isomorphism test per ordered
    # pair; every law below reads these tables.
    d = [[distance(a, b, cfg).mask for b in instances] for a in instances]
    iso = [[isomorphic(a, b, cfg) for b in instances] for a in instances]
    top = [power_view(a, cfg).mask == total for a in instances]
    is_zero = [isomorphic(a, ZERO, cfg) for a in instances]
    idx = range(len(instances))
    # The top is at distance T(k) from every k, so it separates a from b
    # whenever a is not below b, even with no other k inequivalent to a.
    separating = [[k for k in idx if top[k] or not iso[k][i]] for i in idx]

    for i, a in enumerate(instances):
        yield "metric.self-distance", d[i][i] == total or witness(a)
        own = {h.mask for h in semantic_homset(a, a, cfg)}
        others = {d[i][j] for j in idx if not iso[i][j]}
        yield "metric.locally-closed", others <= own or witness(a)
    for i, j in itertools.product(idx, repeat=2):
        a, b, dij = instances[i], instances[j], d[i][j]
        yield "metric.symmetry", dij == d[j][i] or witness(a, b)
        yield "metric.indiscernible", dij != total or iso[i][j] or witness(a, b)
        refines = all(d[i][k] & ~d[j][k] == 0 for k in separating[i])
        yield "metric.order", po_leq(a, b, cfg) == refines or witness(a, b)
        # d(a, b) is the bottom alone when b is the zero object and a is not.
        far = iso[i][j] or not is_zero[j] or dij == zero
        yield "metric.infinite-distance", dij & zero and far or witness(a, b)
    for i, j, k in itertools.product(idx, repeat=3):
        ok = d[i][j] & d[j][k] & ~d[i][k] == 0
        yield "metric.triangle", ok or witness(instances[i], instances[j], instances[k])


@dataclass(frozen=True)
class PullbackSquare:
    """A commuting square: corner with two legs over a cospan."""

    corner: Instance
    left: Morphism  # corner -> f.source
    right: Morphism  # corner -> g.source
    f: Morphism  # f.source -> target of the cospan
    g: Morphism  # g.source -> same target


def pullback(f: Morphism, g: Morphism) -> PullbackSquare:
    """The canonical pullback of a cospan: corner is the meet of the fluxes.

    Both legs are monomorphisms carrying the corner's closure as flux; read
    backwards the same data is the pushout of the reversed arrows.
    """
    if f.cfg is not g.cfg and f.cfg != g.cfg:
        raise DomainMismatch("arrows built over different configurations")
    if f.target is not g.target and f.target != g.target:
        raise DomainMismatch("pullback needs a cospan with a common target")
    corner = meet_closed(f.flux, g.flux)
    left = semantic_arrow(corner, f.source, corner, f.cfg)
    right = semantic_arrow(corner, g.source, corner, f.cfg)
    return PullbackSquare(corner, left, right, f, g)


def is_pullback_square(
    square: PullbackSquare,
    cfg: UniverseConfig,
    vertices: list[Instance],
) -> bool:
    """Verify a square is a pullback in the two-cell sense of flux semantics.

    Checks the square commutes and, for every semantic cone from every
    vertex, that exactly one arrow into the corner reproduces the cone's
    composite through both legs, and that this arrow factors below the cone
    legs in the arrow order.
    """
    return square_mediators(square, vertices, lambda v, x: semantic_arrows(v, x, cfg)) is not None


def true_arrow(cfg: UniverseConfig) -> Morphism:
    """The arrow from the zero object into the classifier; transmits nothing."""
    return empty_arrow(zero_object(), total_object(cfg), cfg)


@dataclass
class ClassifierReport:
    """Two-layer verification of a characteristic arrow."""

    generators: frozenset[Relation]
    generator_commutes: bool
    factorization_ok: bool
    arrows_checked: int
    char_class_size: int
    audit_intersection: frozenset[Relation]
    flagged: bool


def classifier(
    in_a: Morphism, cfg: UniverseConfig, vertices: list[Instance] | None = None
) -> tuple[Morphism, ClassifierReport]:
    """The characteristic arrow of a monomorphism, with its verification report.

    The arrow sends the ambient instance to the classifying object (the
    total object) and is generated by the bottom view-map together with one
    view-map per view of the ambient that is not a view of the subobject.
    Its flux is the closure of the generators within the matching of the
    ambient and the total object, the part of the ambient's views up to the
    arity cap, which is all the classifier can receive.  The report checks
    the classifying square at the generator layer, runs the factorization
    half of the pullback property (``equalizer_check``),
    counts the semantic arrows satisfying the flux-level pullback condition,
    and audits the closure of the generator set (flagged when the closure
    meets the subobject's views).
    """
    if not is_mono(in_a):
        raise NotMonic("classifier needs a monomorphism")
    if vertices is None:
        vertices = closure_classes(cfg, 1)
    source = power_view(in_a.source, cfg)
    generators, audit = classifier_audit(in_a, cfg)
    total = total_object(cfg)
    flux = meet_closed(power_view(Instance(generators, {}), cfg), matching(in_a.target, total, cfg))
    trees = partial(_witness_trees, in_a.target, generators, cfg)
    char = _morphism(in_a.target, total, trees, flux, cfg)

    # Generator level: chi after m sends the generators in A's views, true after ! only bottom.
    gen_commutes = generators & source.relations == frozenset({BOTTOM})

    tests = [h.mask for v in vertices for h in semantic_homset(v, in_a.target, cfg)]
    # A flux of the class meets trivially exactly the test fluxes inside the subobject's views.
    zero, ta = zero_object().mask, source.mask
    class_size = sum(
        all((s.mask & h == zero) == (h & ~ta == 0) for h in tests)
        for s in closed_subsets(power_view(in_a.target, cfg), cfg)
    )

    report = ClassifierReport(
        generators=generators,
        generator_commutes=gen_commutes,
        factorization_ok=equalizer_check(in_a, cfg, vertices),
        arrows_checked=len(tests),
        char_class_size=class_size,
        audit_intersection=audit,
        flagged=audit != {BOTTOM},
    )
    return char, report


def classifier_audit(
    in_a: Morphism, cfg: UniverseConfig
) -> tuple[frozenset[Relation], frozenset[Relation]]:
    """The generators of the characteristic arrow of ``in_a`` (the bottom
    view and each view of the ambient that is not a view of the subobject)
    and the closure-level audit: the subobject's views that the closure of
    the generators meets, flagged when that is more than the bottom view."""
    ta = power_view(in_a.source, cfg).relations
    generators = frozenset(power_view(in_a.target, cfg).relations - ta) | {BOTTOM}
    return generators, power_view(Instance(generators, {}), cfg).relations & ta


def equalizer_check(
    f: Morphism, cfg: UniverseConfig, vertices: list[Instance] | None = None
) -> bool:
    """Verify a monomorphism equalizes its characteristic arrow and the
    constant-true arrow, over enumerated test arrows at the generator layer:
    every test arrow from a vertex whose flux avoids the proper generators
    (an arrow that does not equalize needs no factorization) factors
    uniquely through the monomorphism."""
    if not is_mono(f):
        raise NotMonic("equalizer_check needs a monomorphism")
    if vertices is None:
        vertices = closure_classes(cfg, 1)
    source = power_view(f.source, cfg)
    proper_gens = (power_view(f.target, cfg).relations - source.relations) - {BOTTOM}
    ta = source.mask
    # f itself equalizes: its flux ta misses every generator, each outside ta.
    return all(
        h.relations & proper_gens
        or (h.mask & ~ta == 0 and _unique_mediator(v, f.source, ta, h.mask, cfg))
        for v in vertices
        for h in semantic_homset(v, f.target, cfg)
    )


def _unique_mediator(
    v: Instance, x: Instance, views: int, flux: int, cfg: UniverseConfig
) -> bool:
    """Whether exactly one arrow from ``v`` to ``x`` meets ``views`` in ``flux``, both masks."""
    return sum(views & k.mask == flux for k in semantic_homset(v, x, cfg)) == 1


def epi_mono_factorize(f: Morphism) -> tuple[Morphism, Morphism]:
    """Factor an arrow through its flux: an epimorphism onto the flux object
    followed by a monomorphism into the target."""
    tau = semantic_arrow(f.source, f.flux, f.flux, f.cfg)
    tau_inv = semantic_arrow(f.flux, f.target, f.flux, f.cfg)
    return tau, tau_inv


def factorization_minimal(
    f: Morphism, cfg: UniverseConfig, candidates: list[Instance]
) -> bool:
    """The flux object is the smallest subobject of the target through which
    the arrow factors: every monic factorization contains it, with a unique
    mediating arrow from the flux object."""
    tau, tau_inv = epi_mono_factorize(f)
    if not (is_epi(tau) and is_mono(tau_inv)):
        return False
    if not equiv(compose(tau_inv, tau), f):
        return False
    target, flux = power_view(f.target, cfg).mask, f.flux.mask
    for c in candidates:
        tc = power_view(c, cfg).mask
        if tc & ~target:
            continue  # not a subobject of the target
        if flux & ~tc:
            continue  # the arrow does not factor through this subobject
        if not _unique_mediator(f.flux, c, tc, flux, cfg):
            return False
    return True


def coproduct_pullback_check(
    sq1: PullbackSquare,
    sq2: PullbackSquare,
    cfg: UniverseConfig,
    vertices: list[Instance],
) -> bool:
    """Coproducts preserve pullbacks: the componentwise combination of two
    pullback squares over a shared cospan leg is again a pullback.

    The combined corner is the coproduct of the corners, the legs are the
    copairing and the arrow coproduct, and all flux algebra is componentwise
    in the tagged space (a plain flux crossing into the tagged space acts on
    both components).  A caller pairing many squares can run the two steps
    itself, ``square_mediators`` once per square and ``combined_pullback_check``
    per pair.
    """
    arrows = lambda v, x: semantic_arrows(v, x, cfg)
    return combined_pullback_check(
        sq1, square_mediators(sq1, vertices, arrows),
        sq2, square_mediators(sq2, vertices, arrows),
        cfg,
    )


Mediators = tuple[frozenset[Relation], ...] | None
Arrows = Callable[[Instance, Instance], tuple[Morphism, ...]]


def square_mediators(
    square: PullbackSquare, vertices: list[Instance], arrows: Arrows
) -> Mediators:
    """Verify ``square`` in one pass over its cones: None when it is not a
    pullback, else the flux of the unique mediator of every cone from every
    vertex, cone legs ``h1`` then ``h2`` in the order of ``arrows``.

    ``arrows(v, x)`` gives one arrow per flux from ``v`` to ``x``.  The table is
    memoized per law pass on what it reads: the two leg sources, the corner,
    the masks of the four fluxes, the vertices and ``arrows``; not on the
    cospan target.
    """
    f, g, left, right = square.f, square.g, square.left, square.right
    return _mediators(
        f.source, g.source, square.corner, f.flux.mask, g.flux.mask, left.flux.mask, right.flux.mask,
        tuple(vertices), arrows,
    )


@per_pass
def _mediators(a, b, corner, fl_f, fl_g, fl_p1, fl_p2, vertices, arrows) -> Mediators:
    composite = fl_f & fl_p1
    if composite != fl_g & fl_p2:
        return None
    mediators = []
    for v in vertices:
        # Cones indexed by the mask of their composite w: the number of g-legs and
        # the arrows into the corner (both legs' composites are ``composite``) giving w.
        legs_g = {}
        for w in (fl_g & h2.flux.mask for h2 in arrows(v, b)):
            legs_g[w] = legs_g.get(w, 0) + 1
        into_corner = {}
        for u in arrows(v, corner):
            into_corner.setdefault(composite & u.flux.mask, []).append(u.flux.relations)
        for h1 in arrows(v, a):
            w = fl_f & h1.flux.mask
            found, cones = into_corner.get(w, []), legs_g.get(w, 0)
            # A unique mediator u lies below both legs: u & composite also gives w
            # and is in the full hom-set into the corner, so it is u; then
            # fl_p1 & u = u = w = fl_f & h1 <= h1, and likewise u <= h2.
            if cones and len(found) != 1:
                return None
            mediators += found * cones
    return tuple(mediators)


def combined_pullback_check(
    sq1: PullbackSquare,
    mediators1: Mediators,
    sq2: PullbackSquare,
    mediators2: Mediators,
    cfg: UniverseConfig,
) -> bool:
    """The pair step of ``coproduct_pullback_check``, given each square's
    ``square_mediators`` over the same vertices.

    Only the commuting check reads the whole pair.  The corner, copairing-flux
    and universal-property checks are memoized per law pass on what they read:
    the two corners, the two left legs, the two mediator tables and ``cfg``.
    """
    if mediators1 is None:
        raise NotAPullback("first square fails pullback verification")
    if mediators2 is None:
        raise NotAPullback("second square fails pullback verification")
    if sq1.f is not sq2.f and (
        sq1.f.source != sq2.f.source or sq1.f.target != sq2.f.target or not equiv(sq1.f, sq2.f)
    ):
        raise NotAPullback("squares do not share the cospan leg")
    # The zero object is the coproduct unit: combining with a zero corner
    # returns the other square, already verified above.
    if sq1.corner.relations <= ZERO.relations or sq2.corner.relations <= ZERO.relations:
        return True

    shared = sq1.f  # k : D -> E
    left_pair = copair(sq1.left, sq2.left)  # A+A1 -> D
    right_pair = arrow_coproduct(sq1.right, sq2.right)  # A+A1 -> B+B1
    bottom_pair = copair(sq1.g, sq2.g)  # B+B1 -> E
    if not _combined_legs(sq1.corner, sq1.left, mediators1, sq2.corner, sq2.left, mediators2, cfg):
        return False

    # Combined square commutes componentwise: a plain flux is lifted to both
    # components when it crosses into the tagged space.
    k_lifted = tagged_flux(shared.flux.relations, shared.flux.relations, cfg).mask
    return k_lifted & left_pair.flux.mask == bottom_pair.flux.mask & right_pair.flux.mask


@per_pass
def _combined_legs(corner1, left1, mediators1, corner2, left2, mediators2, cfg) -> bool:
    # Corner closure decomposes componentwise.
    expected_corner = tagged_flux(
        power_view(corner1, cfg).relations, power_view(corner2, cfg).relations, cfg
    )
    if power_view(coproduct(corner1, corner2), cfg).mask != expected_corner.mask:
        return False
    # Copairing flux is the tagged sum of the component fluxes.
    legs = tagged_flux(left1.flux.relations, left2.flux.relations, cfg)
    left_pair = copair(left1, left2).flux.mask
    if left_pair != legs.mask:
        return False

    # Universal property: component mediators reassemble into the unique
    # tagged mediator for every pair of component cones.  A step reads only
    # (u1, u2), so each distinct pair is checked once.
    for u1, u2 in itertools.product(dict.fromkeys(mediators1), dict.fromkeys(mediators2)):
        combined = tagged_flux(u1, u2, cfg).mask
        expected = tagged_flux(left1.flux.relations & u1, left2.flux.relations & u2, cfg).mask
        if left_pair & combined != expected:
            return False
    return True


def negative_probes(cfg: UniverseConfig, classes: list[Instance]):
    """Yield the checks of the negative results over ``classes``: pullbacks do
    not preserve epimorphisms, no instance has a power object, and the
    category is not well-pointed.

    Each check is ``(law, True)`` or ``(law, lazy witness)``.
    """
    epis = (
        semantic_arrow(a, c, h, cfg)
        for c in classes
        for a in classes
        for h in semantic_homset(a, c, cfg)
        if h.mask == power_view(c, cfg).mask
    )
    non_epic_leg = any(
        not is_epi(pullback(f, semantic_arrow(b, f.target, g, cfg)).right)
        for f in epis
        for b in classes
        for g in semantic_homset(b, f.target, cfg)
    )
    yield "negative.pullback-epi", non_epic_leg or "no counterexample found"

    candidates = closed_subsets(total_object(cfg), cfg)
    for a in classes:
        if isomorphic(a, ZERO, cfg):
            continue
        for p in candidates:
            refuted = any(
                len(semantic_homset(b, p, cfg))
                != len(closed_subsets(power_view(coproduct(b, a), cfg), cfg))
                for b in classes
            )
            yield "negative.no-power-object", refuted or witness(a, p)

    # Every point out of the zero object has the zero flux, so the identity
    # and the empty arrow of any non-zero instance agree on all points.
    pairs = (
        (identity(a, cfg), empty_arrow(a, a, cfg))
        for a in classes
        if not isomorphic(a, ZERO, cfg)
    )
    collapsed = any(
        not equiv(f, g) and all(
            f.flux.mask & pt.mask == g.flux.mask & pt.mask
            for pt in semantic_homset(ZERO, f.source, cfg)
        )
        for f, g in pairs
    )
    yield "negative.not-well-pointed", collapsed or "no witness pair found"
