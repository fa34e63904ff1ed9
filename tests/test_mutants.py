"""Mutant rows: a broken operation, bound where one law reads it, must make
that law report FAIL with the same ``checked=`` count as the golden report;
a law that flags documented divergences must flag a different number.

Each row names the law, its check, the module whose binding the mutant
replaces, the attribute, the mutant and the law's ``checked=`` count.
Every mutant is first shown to violate the statement its law checks, on the
classes of the default configuration.
"""

import itertools

import pytest
from test_suites import _golden_checked, _meet_losing_a_lone_view, _merging_of_the_second

from viewflux import (
    BOTTOM,
    ZERO,
    Instance,
    arrow_coproduct,
    catops,
    coproduct,
    distance,
    empty_arrow,
    fold_arrow,
    instance_union,
    is_closed,
    is_epi,
    is_iso,
    is_mono,
    isomorphic,
    matching,
    merging,
    po_leq,
    power_view,
    pullback,
    semantic_arrow,
    semantic_homset,
    sorted_relations,
    suites,
    topos,
    total_object,
    zero_object,
)
from viewflux.catops import tag_left, tagged_flux
from viewflux.closure import meet_closed
from viewflux.morphisms import _morphism
from viewflux.suites import SuiteContext


def _left_only_coproduct(a, b):
    """A mutant coproduct: the right operand's relations are dropped."""
    return Instance(frozenset(map(tag_left, a.relations)) | {BOTTOM}, {})


def _left_only_fold(d, cfg):
    """A mutant fold: it passes only the left copy of the doubled instance."""
    fold = fold_arrow(d, cfg)
    flux = tagged_flux(power_view(d, cfg).relations, zero_object().relations, cfg)
    return _morphism(fold.source, d, (), flux, cfg, check_range=False)


def _closure_of_the_first_relation(a, cfg):
    """A mutant closure: the closure of the first relation of ``a`` alone."""
    return power_view(Instance(frozenset(sorted_relations(a.relations)[:1]), {}), cfg)


def _closure_less_the_inputs(a, cfg):
    """A mutant closure: the views of ``a`` but its own relations, the bottom kept."""
    return Instance(power_view(a, cfg).relations - a.relations | {BOTTOM}, {})


def _total_for_no_relation(a, cfg):
    """A mutant closure: an instance with no relation but the bottom observes everything."""
    return total_object(cfg) if a.relations <= ZERO.relations else power_view(a, cfg)


def _closed_but_not_zero(inst, cfg):
    """A mutant closedness test: the zero object is not taken as closed."""
    return is_closed(inst, cfg) and inst.relations != ZERO.relations


def _strictly_below(a, b, cfg):
    """A mutant isomorphism test or behavioral order (``po_leq``): the closure
    of a is strictly inside that of b."""
    return power_view(a, cfg).relations < power_view(b, cfg).relations


def _reversed_arrow_order(f, g):
    """A mutant two-cell order: flux inclusion read backwards."""
    return g.flux.relations <= f.flux.relations


def _lift_transmitting_nothing(f):
    """A mutant lift: the empty arrow between the closures of the endpoints."""
    return empty_arrow(power_view(f.source, f.cfg), power_view(f.target, f.cfg), f.cfg)


def _closure_of_the_first(a, b, cfg):
    """A mutant matching or merging: the closure of the first operand alone."""
    return power_view(a, cfg)


def _zero_against_the_total(a, b, cfg):
    """A mutant matching: matching with the total object on the right gives the zero object."""
    return zero_object() if power_view(b, cfg) == total_object(cfg) else matching(a, b, cfg)


def _true_arrow_into_zero(cfg):
    """A mutant true arrow: it targets the zero object, not the classifier."""
    return empty_arrow(zero_object(), zero_object(), cfg)


def _matching_losing_a_lone_view(a, b, cfg):
    """A mutant matching: the meet of the closures, losing a lone view (``test_suites``)."""
    return _meet_losing_a_lone_view(power_view(a, cfg), power_view(b, cfg))


def _chain_a_step_late(a, cfg, steps):
    """A mutant omega chain: the zero object repeated, so the chain reaches
    the closure at the second step."""
    chain = catops.omega_chain(a, cfg, steps)
    return chain[:1] + chain[:-1]


def _every_flux_twice(a, b, cfg):
    """A mutant hom-set: every flux of the semantic hom-set listed twice."""
    return semantic_homset(a, b, cfg) * 2


def _pullback_at_zero(f, g):
    """A mutant pullback: the corner is the zero object, not the meet of the fluxes."""
    corner = zero_object()
    left = semantic_arrow(corner, f.source, corner, f.cfg)
    return topos.PullbackSquare(corner, left, semantic_arrow(corner, g.source, corner, f.cfg), f, g)


def _doubled_homsets(arrows):
    """A mutant hom-set lookup: every arrow of every hom-set listed twice."""
    return lambda v, x: arrows(v, x) * 2


def _mediators_over_doubled_homsets(square, vertices, arrows):
    """The mediator check of a square, reading every hom-set through the mutant."""
    return topos.square_mediators(square, vertices, _doubled_homsets(arrows))


def _audit_meeting_the_ambient(in_a, cfg):
    """A mutant closure-level audit: the closure of the generators meets the
    ambient's views in place of the subobject's."""
    generators, _ = topos.classifier_audit(in_a, cfg)
    tb = power_view(in_a.target, cfg).relations
    return generators, power_view(Instance(generators, {}), cfg).relations & tb


def _total_when_below(a, b, cfg):
    """A mutant distance: the total object whenever a is behaviorally below b."""
    return total_object(cfg) if po_leq(a, b, cfg) else distance(a, b, cfg)


def _metric(law):
    """The check of ``law``: its result from the pass that checks the metric laws together."""
    return lambda ctx: next(result for result in suites.law_metric(ctx) if result.law == law)


def _verdict(result):
    return result.status + (f" flagged={len(result.flagged)}" if result.flagged else "")


# The coproduct mutant is bound where the law reads it.  Bound in ``catops``
# it would also reach ``arrow_coproduct``, whose range check raises
# ``FluxOutOfRange`` instead of letting the law fail.  The fold mutant sits
# behind the ``copair`` memo, which a passing run has filled.  The doubled
# hom-sets reach only the mediator check of ``topos.pullback``, so the law keeps
# its cospans and its corner, closedness and mono conjuncts.
MUTANTS = [
    pytest.param("topos.pullback", suites.law_pullback,
                 suites, "pullback", _pullback_at_zero, 169, id="topos.pullback"),
    pytest.param("topos.pullback", suites.law_pullback,
                 suites, "square_mediators", _mediators_over_doubled_homsets, 169,
                 id="topos.pullback:square_mediators"),
    pytest.param("topos.coproduct-pullback", suites.law_coproduct_pullback,
                 topos, "coproduct", _left_only_coproduct, 1225,
                 id="topos.coproduct-pullback"),
    pytest.param("topos.coproduct-pullback", suites.law_coproduct_pullback,
                 catops, "fold_arrow", _left_only_fold, 1225,
                 id="topos.coproduct-pullback:fold_arrow"),
    pytest.param("lattice.coproduct-count", suites.law_coproduct_count,
                 suites, "coproduct", _left_only_coproduct, 13,
                 id="lattice.coproduct-count"),
    pytest.param("category.mono-cancellation", suites.law_mono_cancellation,
                 suites, "is_mono", is_epi, 25, id="category.mono-cancellation"),
    pytest.param("category.epi-cancellation", suites.law_epi_cancellation,
                 suites, "is_epi", is_mono, 25, id="category.epi-cancellation"),
    pytest.param("category.mono-epi-iso", suites.law_mono_epi_iso,
                 suites, "isomorphic", _strictly_below, 25, id="category.mono-epi-iso"),
    pytest.param("category.two-cells", suites.law_two_cells,
                 suites, "arrow_po_leq", _reversed_arrow_order, 25, id="category.two-cells"),
    pytest.param("category.closure-functor", suites.law_closure_functor,
                 suites, "lift_arrow", _lift_transmitting_nothing, 25,
                 id="category.closure-functor"),
    pytest.param("closure.extensive", suites.law_closure_extensive,
                 suites, "power_view", _closure_of_the_first_relation, 16,
                 id="closure.extensive"),
    pytest.param("closure.monotone", suites.law_closure_monotone,
                 suites, "power_view", _closure_of_the_first_relation, 65, id="closure.monotone"),
    pytest.param("closure.idempotent", suites.law_closure_idempotent,
                 suites, "power_view", _closure_less_the_inputs, 16, id="closure.idempotent"),
    pytest.param("closure.bottom", suites.law_closure_bottom,
                 suites, "power_view", _total_for_no_relation, 2, id="closure.bottom"),
    pytest.param("closure.total-fixpoint", suites.law_closure_total,
                 suites, "power_view", _closure_less_the_inputs, 1, id="closure.total-fixpoint"),
    pytest.param("closure.order", suites.law_closure_order,
                 suites, "po_leq", _strictly_below, 256, id="closure.order"),
    pytest.param("lattice.bounds", suites.law_bounds,
                 suites, "po_leq", _strictly_below, 16, id="lattice.bounds"),
    pytest.param("metric.order", _metric("metric.order"),
                 topos, "po_leq", _strictly_below, 256, id="metric.order"),
    pytest.param("metric.self-distance", _metric("metric.self-distance"),
                 topos, "distance", matching, 16, id="metric.self-distance"),
    pytest.param("metric.indiscernible", _metric("metric.indiscernible"),
                 topos, "distance", _total_when_below, 256, id="metric.indiscernible"),
    pytest.param("closure.intersections", suites.law_closure_intersections,
                 suites, "is_closed", _closed_but_not_zero, 16, id="closure.intersections"),
    pytest.param("monoidal.commutative", suites.law_tensor_commutative,
                 suites, "matching", _closure_of_the_first, 256, id="monoidal.commutative"),
    pytest.param("monoidal.associative", suites.law_tensor_associative,
                 suites, "matching", _zero_against_the_total, 64, id="monoidal.associative"),
    pytest.param("monoidal.idempotent-unit-zero", suites.law_tensor_units,
                 suites, "matching", _zero_against_the_total, 16,
                 id="monoidal.idempotent-unit-zero"),
    pytest.param("lattice.distributive", suites.law_distributive,
                 suites, "matching", _matching_losing_a_lone_view, 64, id="lattice.distributive"),
    pytest.param("monoidal.hom-counting", suites.law_hom_counting,
                 suites, "matching", _closure_of_the_first, 64, id="monoidal.hom-counting"),
    pytest.param("lattice.federation", suites.law_federation,
                 suites, "merging", _merging_of_the_second, 16, id="lattice.federation"),
    pytest.param("monoidal.hom-object", suites.law_hom_object,
                 suites, "matching", _closure_of_the_first, 20, id="monoidal.hom-object"),
    pytest.param("lattice.inf-sup", suites.law_inf_sup,
                 suites, "merging", _merging_of_the_second, 16, id="lattice.inf-sup"),
    pytest.param("lattice.sup-all", suites.law_sup_all,
                 suites, "merging", _closure_of_the_first, 1, id="lattice.sup-all"),
    pytest.param("lattice.omega-chain", suites.law_omega_chain,
                 suites, "omega_chain", _chain_a_step_late, 16, id="lattice.omega-chain"),
    pytest.param("topos.classifier", suites.law_classifier,
                 topos, "semantic_homset", _every_flux_twice, 9, id="topos.classifier"),
    pytest.param("topos.equalizer", suites.law_equalizer,
                 topos, "semantic_homset", _every_flux_twice, 9, id="topos.equalizer"),
    pytest.param("topos.true-arrow", suites.law_true_arrow,
                 suites, "true_arrow", _true_arrow_into_zero, 1, id="topos.true-arrow"),
    pytest.param("topos.factorization", suites.law_factorization,
                 topos, "semantic_homset", _every_flux_twice, 25, id="topos.factorization"),
    pytest.param("topos.classifier-audit", suites.law_classifier_audit,
                 suites, "classifier_audit", _audit_meeting_the_ambient, 9,
                 id="topos.classifier-audit"),
]


# A law that flags documented divergences keeps its FLAGGED status under its
# mutant, with a different number of flags (2 at the default configuration).
FLAGGED_UNDER_MUTANT = {"topos.classifier-audit": "FLAGGED flagged=5"}


@pytest.fixture(scope="module")
def ctx(cfg0):
    return SuiteContext(cfg0, 4)


def test_left_only_coproduct_breaks_the_component_count(ctx):
    # The closure of a coproduct has both components, sharing the bottom.
    broken = [
        (a, b)
        for a, b in itertools.product(ctx.classes, repeat=2)
        if len(power_view(_left_only_coproduct(a, b), ctx.cfg))
        != len(power_view(coproduct(a, b), ctx.cfg))
    ]
    assert broken


def test_left_only_fold_breaks_the_copairing_flux(ctx):
    # A copair out of two non-zero sources is the fold after the arrow
    # coproduct, and its flux is the tagged sum of the two fluxes.
    nonzero = [c for c in ctx.classes if not c.relations <= ZERO.relations]
    broken = [
        (f, g)
        for a, b in itertools.product(nonzero, repeat=2)
        for e in ctx.classes
        for f, g in itertools.product(ctx.arrows(a, e), ctx.arrows(b, e))
        if meet_closed(_left_only_fold(e, ctx.cfg).flux, arrow_coproduct(f, g).flux)
        != tagged_flux(f.flux.relations, g.flux.relations, ctx.cfg)
    ]
    assert broken


def _arrows(ctx):
    return [
        f for a, b in itertools.product(ctx.classes, repeat=2) for f in ctx.arrows(a, b)
    ]


def _cancels_pairwise(f, homsets):
    """Whether no two distinct arrows of one hom-set meet f's flux alike."""
    return not any(
        g is not h and f.flux.relations & g.flux.relations == f.flux.relations & h.flux.relations
        for hs in homsets
        for g, h in itertools.product(hs, repeat=2)
    )


def test_epi_test_breaks_left_cancellation(ctx):
    assert any(
        is_epi(f) != _cancels_pairwise(f, [ctx.arrows(c, f.source) for c in ctx.classes])
        for f in _arrows(ctx)
    )


def test_mono_test_breaks_right_cancellation(ctx):
    assert any(
        is_mono(f) != _cancels_pairwise(f, [ctx.arrows(f.target, c) for c in ctx.classes])
        for f in _arrows(ctx)
    )


def test_first_relation_closure_breaks_extensiveness(ctx):
    assert any(
        not a.relations <= _closure_of_the_first_relation(a, ctx.cfg).relations
        for a in ctx.instances
    )


def test_first_relation_closure_breaks_monotonicity(ctx):
    assert any(
        a.relations <= b.relations
        and not _closure_of_the_first_relation(a, ctx.cfg).relations
        <= _closure_of_the_first_relation(b, ctx.cfg).relations
        for a, b in itertools.product(ctx.instances, repeat=2)
    )


def test_closure_less_the_inputs_breaks_idempotence(ctx):
    assert any(
        _closure_less_the_inputs(ta, ctx.cfg).relations != ta.relations
        for a in ctx.instances
        for ta in [_closure_less_the_inputs(a, ctx.cfg)]
    )


def test_closure_less_the_inputs_moves_the_total_object(ctx):
    assert _closure_less_the_inputs(ctx.total, ctx.cfg).relations != ctx.total.relations


def test_total_for_no_relation_breaks_the_closure_of_the_zero_object(ctx):
    assert _total_for_no_relation(ctx.zero, ctx.cfg).relations != {BOTTOM}


def test_zero_blind_closedness_breaks_a_closed_meet(ctx):
    # The closures of two disjoint atoms meet in the zero object, which is closed.
    assert any(
        is_closed(meet, ctx.cfg) and not _closed_but_not_zero(meet, ctx.cfg)
        for x, y in itertools.product(ctx.closed_objects, repeat=2)
        for meet in [Instance(x.relations & y.relations, {})]
    )


def test_closure_of_the_first_breaks_commutativity(ctx):
    assert any(
        _closure_of_the_first(a, b, ctx.cfg).relations
        != _closure_of_the_first(b, a, ctx.cfg).relations
        for a, b in itertools.product(ctx.instances, repeat=2)
    )


def test_zero_against_the_total_breaks_associativity(ctx):
    # (a . total) . a is the zero object, a . (total . a) the closure of a.
    mutant = lambda x, y: _zero_against_the_total(x, y, ctx.cfg)
    assert any(
        mutant(mutant(a, b), c).relations != mutant(a, mutant(b, c)).relations
        for a, b, c in itertools.product(ctx.classes, repeat=3)
    )


def test_zero_against_the_total_breaks_the_unit(ctx):
    # The total object is the unit of matching: a . total is the closure of a.
    assert any(
        _zero_against_the_total(a, ctx.total, ctx.cfg).relations != power_view(a, ctx.cfg).relations
        for a in ctx.instances
    )


def test_lone_view_loss_breaks_distributivity(ctx):
    # Matching the merging of {a} and {b} with the total object gives the
    # total object; matching each alone gives one view, which the mutant loses.
    mutant = lambda x, y: _matching_losing_a_lone_view(x, y, ctx.cfg)
    assert any(
        mutant(merging(a, b, ctx.cfg), c).relations
        != merging(mutant(a, c), mutant(b, c), ctx.cfg).relations
        for a, b, c in itertools.product(ctx.classes, repeat=3)
    )


def test_closure_of_the_first_breaks_the_currying_count(ctx):
    # Hom-sets out of the matching of a and b into c, and out of a into the
    # matching of b and c, have the same size.
    mutant = lambda x, y: _closure_of_the_first(x, y, ctx.cfg)
    assert any(
        len(ctx.arrows(mutant(a, b), c)) != len(ctx.arrows(a, mutant(b, c)))
        for a, b, c in itertools.product(ctx.classes, repeat=3)
    )


def test_merging_of_the_second_breaks_federation(ctx):
    assert any(
        not isomorphic(instance_union(a, b), _merging_of_the_second(a, b, ctx.cfg), ctx.cfg)
        for a, b in itertools.product(ctx.classes, repeat=2)
    )


def test_strict_inclusion_breaks_isomorphic_endpoints_of_an_iso(ctx):
    assert any(
        is_iso(f) and not _strictly_below(f.source, f.target, ctx.cfg) for f in _arrows(ctx)
    )


def test_strict_inclusion_breaks_closure_inclusion(ctx):
    assert any(
        _strictly_below(a, b, ctx.cfg)
        != (power_view(a, ctx.cfg).relations <= power_view(b, ctx.cfg).relations)
        for a, b in itertools.product(ctx.instances, repeat=2)
    )


def test_strict_inclusion_breaks_the_zero_bottom(ctx):
    # The zero object is below every instance, itself included.
    assert any(not _strictly_below(ctx.zero, a, ctx.cfg) for a in ctx.instances)


def test_strict_inclusion_breaks_distance_refinement(ctx):
    # a is below b exactly when d(a, k) is inside d(b, k) for the top and for
    # every k not equivalent to a, each read off the views.
    views = {a: power_view(a, ctx.cfg).relations for a in ctx.instances}
    d = {(a, b): distance(a, b, ctx.cfg).relations for a in views for b in views}
    separating = {
        a: [k for k in views if views[k] == ctx.total.relations or views[k] != views[a]]
        for a in views
    }
    assert any(
        _strictly_below(a, b, ctx.cfg) != all(d[a, k] <= d[b, k] for k in separating[a])
        for a, b in itertools.product(views, repeat=2)
    )


def test_matching_breaks_the_self_distance(ctx):
    # d(a, a) is the total object for every a; a distance without its total
    # branch is the matching, the closure of a.
    assert any(matching(a, a, ctx.cfg).mask != ctx.total.mask for a in ctx.instances)


def test_total_when_below_breaks_indiscernibility(ctx):
    # d(a, b) is the total object only when a and b are equivalent.
    assert any(
        _total_when_below(a, b, ctx.cfg).mask == ctx.total.mask and not isomorphic(a, b, ctx.cfg)
        for a, b in itertools.product(ctx.instances, repeat=2)
    )


def test_reversed_order_breaks_the_bottom_arrow(ctx):
    # The empty arrow sits below every parallel arrow in the two-cell order.
    assert any(
        not _reversed_arrow_order(empty_arrow(f.source, f.target, ctx.cfg), f)
        for f in _arrows(ctx)
    )


def test_empty_lift_breaks_the_flux(ctx):
    assert any(
        _lift_transmitting_nothing(f).flux.relations != f.flux.relations
        for f in _arrows(ctx)
    )


def test_closure_of_the_first_breaks_the_merged_fluxes(ctx):
    # The internal hom is the closure of the union of every flux from b to c.
    broken = []
    for b, c in itertools.product(ctx.classes, repeat=2):
        merged = frozenset().union(*(g.flux.relations for g in ctx.arrows(b, c)))
        hom = _closure_of_the_first(b, c, ctx.cfg)
        if power_view(Instance(merged, {}), ctx.cfg).relations != hom.relations:
            broken.append((b, c))
    assert broken


def test_doubled_homset_gives_an_arrow_two_mediators(ctx):
    # An arrow from v into the closure of x meets the views of x in its own
    # flux, so it mediates itself: once per listing of its flux.
    assert any(
        sum(
            power_view(x, ctx.cfg).relations & k.relations == h.relations
            for k in _every_flux_twice(v, x, ctx.cfg)
        ) == 2
        for v, x in itertools.product(ctx.classes, repeat=2)
        for h in semantic_homset(v, x, ctx.cfg)
    )


def test_zero_corner_is_not_the_meet_of_the_fluxes(ctx):
    assert any(
        _pullback_at_zero(f, g).corner.relations != f.flux.relations & g.flux.relations
        for c, a, b in itertools.product(ctx.classes, repeat=3)
        for f, g in itertools.product(ctx.arrows(a, c), ctx.arrows(b, c))
    )


def test_doubled_homsets_give_a_cone_two_mediators(ctx):
    # Over a square of an arrow f with itself, a cone (h, h) has exactly one
    # arrow into the corner whose composite through the legs is that of h;
    # the doubled hom-set lists it twice.
    doubled = _doubled_homsets(ctx.arrows)
    assert any(
        sum(
            sq.f.flux.relations & sq.left.flux.relations & u.flux.relations
            == sq.f.flux.relations & h.flux.relations
            for u in doubled(v, sq.corner)
        ) == 2
        for a, c in itertools.product(ctx.classes, repeat=2)
        for f in ctx.arrows(a, c)
        for sq in [pullback(f, f)]
        for v in ctx.classes
        for h in ctx.arrows(v, a)
    )


def test_merging_of_the_second_breaks_the_upper_bound(ctx):
    assert any(
        not po_leq(a, _merging_of_the_second(a, b, ctx.cfg), ctx.cfg)
        for a, b in itertools.product(ctx.classes, repeat=2)
    )


def test_merging_into_the_first_never_reaches_the_total_object(ctx):
    merged = ctx.zero
    for a in ctx.instances:
        merged = _closure_of_the_first(merged, a, ctx.cfg)
    assert merged.relations != ctx.total.relations


def test_a_chain_a_step_late_misses_the_closure_at_the_first_step(ctx):
    assert any(
        _chain_a_step_late(a, ctx.cfg, 3)[1].relations != power_view(a, ctx.cfg).relations
        for a in ctx.instances
    )


def test_true_arrow_into_zero_misses_the_classifier(ctx):
    # It still transmits nothing, but its target is not the total object.
    t = _true_arrow_into_zero(ctx.cfg)
    assert t.flux.relations == frozenset({BOTTOM})
    assert t.target.relations != total_object(ctx.cfg).relations


def test_ambient_audit_meets_views_outside_the_subobject(ctx):
    # The closure-level audit meets the subobject's views, so it lies inside them.
    assert any(
        not _audit_meeting_the_ambient(mono, ctx.cfg)[1] <= power_view(a, ctx.cfg).relations
        for a, b, mono in suites._inclusions(ctx)
    )


@pytest.mark.parametrize("law, check, module, attr, mutant, checked", MUTANTS)
def test_law_fails_under_its_mutant(ctx, monkeypatch, law, check, module, attr, mutant, checked):
    passing = check(ctx)
    assert passing.status == ("FLAGGED" if law in FLAGGED_UNDER_MUTANT else "PASS")
    monkeypatch.setattr(module, attr, mutant)
    result = check(ctx)
    assert _verdict(result) == FLAGGED_UNDER_MUTANT.get(law, "FAIL") != _verdict(passing)
    assert result.checked == _golden_checked(law) == checked
    # Witnesses print fluxes as instances, whose relations print sorted.
    assert not any("frozenset(" in w for w in result.failures)
