import itertools

import pytest

from viewflux import (
    BOTTOM,
    DomainMismatch,
    FluxOutOfRange,
    Instance,
    NotClosedDomain,
    NotParallel,
    ResultNotInTarget,
    ZERO,
    arrow_po_leq,
    atomic_morphism,
    compose,
    empty_arrow,
    equiv,
    generating_queries,
    identity,
    instance,
    invert,
    is_epi,
    is_iso,
    is_mono,
    lift_arrow,
    power_view,
    semantic_arrow,
    semantic_arrows,
    semantic_homset,
    sorted_relations,
    total_object,
    totalize,
    view_map,
    with_default_labels,
)
from viewflux import coproduct, fold_arrow, matching, morphisms
from viewflux.morphisms import ViewMap, ViewTree, _morphism, _witness_trees
from viewflux.queries import Base, Bot


@pytest.fixture(scope="module")
def classes(cfg0):
    from viewflux.topos import closure_classes

    return closure_classes(cfg0, 4)


def _leaf_inputs(f) -> frozenset:
    """The source relations read by the leaf view-maps of ``f``'s trees."""

    def walk(tree):
        if not tree.children:
            return tree.head.inputs
        return frozenset().union(*map(walk, tree.children))

    return frozenset().union(*map(walk, f.trees))


def test_atomic_morphism_flux(cfg0, ra, rb):
    src = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    tgt = instance(ra)
    f = atomic_morphism(src, tgt, ["r1"], cfg0)
    assert f.flux.relations == frozenset({BOTTOM, ra})
    assert {t.result for t in f.trees} == {ra}
    assert _leaf_inputs(f) == frozenset({ra})


def test_atomic_morphism_rejects_foreign_views(cfg0, pa, pb):
    with pytest.raises(ResultNotInTarget):
        atomic_morphism(pa, pb, ["r1"], cfg0)


def test_empty_arrow(cfg0, pa, pb):
    f = empty_arrow(pa, pb, cfg0)
    assert f.flux.relations == frozenset({BOTTOM})
    assert f.trees == frozenset()  # no view-map, so nothing read and nothing produced
    g = atomic_morphism(pa, pb, [], cfg0)
    assert equiv(f, g)


def test_view_map_boundaries(cfg0, pab, ra):
    vm = view_map("sel[1='a'](r1)", pab)
    assert vm.result == ra
    assert vm.inputs == frozenset({pab.labels["r1"]})
    assert vm.result in power_view(pab, cfg0).relations


def test_identity_is_iso(cfg0, all_instances):
    for a in all_instances:
        ida = identity(a, cfg0)
        assert ida.flux.relations == power_view(a, cfg0).relations
        assert is_iso(ida)
        # syntactic witnesses cover the whole closure
        assert {t.result for t in ida.trees} == power_view(a, cfg0).relations


def test_identity_zero(cfg0):
    assert identity(ZERO, cfg0).flux.relations == frozenset({BOTTOM})


def test_compose_flux_is_intersection(cfg0, classes):
    for a, b, c in itertools.product(classes, repeat=3):
        for f in semantic_arrows(a, b, cfg0):
            for g in semantic_arrows(b, c, cfg0):
                h = compose(g, f)
                assert h.source == a and h.target == c
                assert h.flux.relations == f.flux.relations & g.flux.relations


def test_compose_identity_laws(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        ida, idb = identity(a, cfg0), identity(b, cfg0)
        for f in semantic_arrows(a, b, cfg0):
            assert equiv(compose(idb, f), f)
            assert equiv(compose(f, ida), f)


def test_compose_empty_absorbs(cfg0, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    e = empty_arrow(pab, pab, cfg0)
    assert equiv(compose(e, f), empty_arrow(pa, pab, cfg0))


def test_compose_domain_mismatch(cfg0, pa, pb, pab):
    f = empty_arrow(pa, pb, cfg0)
    g = empty_arrow(pab, pab, cfg0)
    with pytest.raises(DomainMismatch):
        compose(g, f)


def test_witness_free_arrows_are_interned_by_object(cfg0, pa, ra):
    flux = power_view(pa, cfg0)
    f = semantic_arrow(pa, pa, flux, cfg0)
    assert semantic_arrow(pa, pa, flux.relations, cfg0) is f
    assert compose(f, f) is f
    assert empty_arrow(pa, pa, cfg0).trees is f.trees  # one empty set of trees
    # Equal instances may differ in labels, so they do not share arrows.
    relabeled = Instance(pa.relations, {"other": ra})
    g = semantic_arrow(relabeled, pa, flux, cfg0)
    assert g is not f and g.source is relabeled
    assert compose(f, g).source is relabeled
    morphisms.clear_arrows()
    assert semantic_arrow(pa, pa, flux, cfg0) is not f


def test_compose_checks_domains_on_a_warm_intern_table(cfg0, cfg2, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pab, pab, power_view(pab, cfg0), cfg0)
    assert compose(g, f) is compose(g, f)
    other_cfg = semantic_arrow(pab, pab, power_view(pab, cfg2), cfg2)
    for outer, inner in ((other_cfg, f), (f, g)):
        with pytest.raises(DomainMismatch):
            compose(outer, inner)


def test_compose_stores_each_witness_free_composite_per_pair(cfg0, cfg2, pa, pab, ra, rb, rab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pab, pab, power_view(pab, cfg0), cfg0)
    gf = compose(g, f)
    assert compose(g, f) is gf
    # A mismatched pair is never stored, so it raises on every call.
    other_cfg = semantic_arrow(pab, pab, power_view(pab, cfg2), cfg2)
    for outer, inner in ((other_cfg, f), (f, g), (other_cfg, f), (f, g)):
        with pytest.raises(DomainMismatch):
            compose(outer, inner)
    # A composite that carries trees keeps them, and is stored for the pass too.
    src = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    mid = Instance(frozenset({ra, rb}), {"s1": ra, "s2": rb})
    h = atomic_morphism(src, mid, ["r1", "r2"], cfg0)
    k = atomic_morphism(mid, instance(rab), ["union(s1,s2)"], cfg0)
    first = compose(k, h)
    (tree,) = first.trees
    assert {child.result for child in tree.children} == {ra, rb}
    assert compose(k, h) is first
    morphisms.clear_arrows()
    fresh = compose(k, h)
    assert fresh is not first and fresh.trees == first.trees


def _depth(tree) -> int:
    return 1 + max(map(_depth, tree.children), default=0)


def test_compose_grafts_nested_trees_in_either_bracketing(cfg0, ra, rb, rab):
    # (h . g) . f grafts f under the leaves of a tree that already has
    # children, which h . (g . f) never does; both give one three-level tree.
    a = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    b = Instance(frozenset({ra, rb}), {"s1": ra, "s2": rb})
    c = Instance(frozenset({rab}), {"t1": rab})
    f = atomic_morphism(a, b, ["r1", "r2"], cfg0)
    g = atomic_morphism(b, c, ["union(s1,s2)"], cfg0)
    h = atomic_morphism(c, instance(rab), ["t1"], cfg0)
    left, right = compose(compose(h, g), f), compose(h, compose(g, f))
    assert equiv(left, right)
    assert left.trees == right.trees
    (tree,) = left.trees
    assert _depth(tree) == 3
    (middle,) = tree.children
    assert middle.result == rab and {leaf.result for leaf in middle.children} == {ra, rb}
    assert _leaf_inputs(left) == frozenset({ra, rb})


def test_range_check_runs_on_a_warm_intern_table(cfg0, pa, pb, pab):
    # An arrow interned without the range check, whose flux escapes the
    # matching of its endpoints (the bottom alone), is not taken as verified.
    morphisms.clear_arrows()
    flux = power_view(pa, cfg0)
    assert _morphism(pa, pb, (), flux, cfg0, check_range=False, interned=True).flux is flux
    with pytest.raises(FluxOutOfRange, match="escapes the matching"):
        semantic_arrow(pa, pb, flux, cfg0)
    # fold_arrow and compose skip the range check, so compose interns such an arrow too.
    doubled = coproduct(pab, pab)
    whole = power_view(doubled, cfg0)
    fold = fold_arrow(pab, cfg0)
    escaped = compose(fold, semantic_arrow(doubled, doubled, whole, cfg0))
    assert (escaped.source, escaped.target, escaped.flux) == (doubled, pab, whole)
    assert compose(fold, semantic_arrow(doubled, doubled, whole, cfg0)) is escaped
    assert not whole.relations <= matching(doubled, pab, cfg0).relations
    for _ in range(2):
        with pytest.raises(FluxOutOfRange):
            semantic_arrow(doubled, pab, whole, cfg0)
        with pytest.raises(FluxOutOfRange):
            _morphism(doubled, pab, (), whole, cfg0)


def test_compose_grafts_trees(cfg0, ra, rb, rab):
    src = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    mid = Instance(frozenset({ra, rb}), {"s1": ra, "s2": rb})
    tgt = instance(rab)
    f = atomic_morphism(src, mid, ["r1", "r2"], cfg0)
    g = atomic_morphism(mid, tgt, ["union(s1,s2)"], cfg0)
    h = compose(g, f)
    assert len(h.trees) == 1
    (tree,) = h.trees
    assert tree.result == rab
    assert {child.result for child in tree.children} == {ra, rb}
    # leaves read the original source
    assert _leaf_inputs(h) == frozenset({ra, rb})


def test_compose_drops_unfed_components(cfg0, ra, rb):
    src = instance(ra)
    labeled_src = with_default_labels(src)
    mid = Instance(frozenset({ra, rb}), {"s1": ra, "s2": rb})
    tgt = Instance(frozenset({ra, rb}), {"t1": ra, "t2": rb})
    f = atomic_morphism(labeled_src, mid, ["r1"], cfg0)  # only feeds s1
    g = atomic_morphism(mid, tgt, ["s1", "s2"], cfg0)
    h = compose(g, f)
    assert {t.result for t in h.trees} == {ra}


def test_semantic_arrow_validation(cfg0, pa, pb, rab):
    with pytest.raises(FluxOutOfRange):
        semantic_arrow(pa, pb, [BOTTOM, rab], cfg0)  # escapes the matching
    with pytest.raises(FluxOutOfRange):
        semantic_arrow(pa, pa, [BOTTOM, rab], cfg0)  # not closed inside it either


def test_semantic_arrow_rechecks_a_flux_closed_under_another_configuration(cfg0, cfg2, pa):
    # A set closed at k=2 holds every relation over its constants up to arity
    # 2, so it is closed at k=1 as well: a flux closed under one of the two
    # configurations and not the other is closed at k=1.
    flux = power_view(pa, cfg0)  # closed at k=1; at k=2 it lacks {(a,a)}
    assert power_view(flux, cfg2) != flux
    morphisms.clear_arrows()
    # Verified under k=1 earlier in the pass, and still checked under k=2.
    assert semantic_arrow(pa, pa, flux, cfg0).flux is flux
    with pytest.raises(FluxOutOfRange, match="is not closed"):
        semantic_arrow(pa, pa, flux, cfg2)


def test_semantic_arrow_checks_once_per_pass(cfg0, pa, pab, monkeypatch):
    calls = []
    for name in ("power_view", "matching"):
        real = getattr(morphisms, name)
        monkeypatch.setattr(morphisms, name, lambda *args, real=real: calls.append(1) or real(*args))
    morphisms.clear_arrows()
    flux = power_view(pa, cfg0)
    f = semantic_arrow(pa, pab, flux, cfg0)
    assert len(calls) == 2
    assert semantic_arrow(pa, pab, flux, cfg0) is f and len(calls) == 2
    morphisms.clear_arrows()  # a new pass checks again
    assert semantic_arrow(pa, pab, flux, cfg0) is not f and len(calls) == 4


def test_mono_epi_iso(cfg0, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    assert is_mono(f) and not is_epi(f) and not is_iso(f)
    g = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    assert is_epi(g) and not is_mono(g)
    e = empty_arrow(ZERO, ZERO, cfg0)
    assert is_iso(e)


def test_iso_arrow_between_equivalent(cfg0, pab):
    closed = Instance(power_view(pab, cfg0).relations, {})
    f = semantic_arrow(pab, closed, power_view(pab, cfg0), cfg0)
    assert is_iso(f)


def test_lift_arrow(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        for f in semantic_arrows(a, b, cfg0):
            lifted = lift_arrow(f)
            assert lifted.flux.relations == f.flux.relations
            assert lifted.source.relations == power_view(a, cfg0).relations
            assert lifted.target.relations == power_view(b, cfg0).relations
            assert is_mono(lifted) == is_mono(f)
            assert is_epi(lifted) == is_epi(f)
            assert is_iso(lifted) == is_iso(f)
            # the lift of the empty arrow is the empty arrow
            if f.flux.relations == frozenset({BOTTOM}):
                assert equiv(lifted, empty_arrow(lifted.source, lifted.target, cfg0))


def test_invert(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        for f in semantic_arrows(a, b, cfg0):
            rev = invert(f)
            assert rev.flux.relations == f.flux.relations
            assert equiv(invert(rev), f)
            assert is_mono(f) == is_epi(rev)


def test_totalize_table(cfg0, ra, rb, rab):
    tot = Instance(total_object(cfg0).relations, {})
    f = semantic_arrow(tot, tot, frozenset({BOTTOM, ra}), cfg0)
    table = totalize(f)
    assert table == {BOTTOM: BOTTOM, ra: ra, rb: BOTTOM, rab: BOTTOM}


def test_totalize_identity_and_empty(cfg0):
    tot = Instance(total_object(cfg0).relations, {})
    assert totalize(identity(tot, cfg0)) == {v: v for v in tot.relations}
    e = empty_arrow(tot, tot, cfg0)
    assert set(totalize(e).values()) == {BOTTOM}


def test_totalize_requires_closed(cfg0, pab):
    f = identity(pab, cfg0)
    with pytest.raises(NotClosedDomain):
        totalize(f)


def test_totalize_faithful(cfg0):
    tot = Instance(total_object(cfg0).relations, {})
    arrows = semantic_arrows(tot, tot, cfg0)
    for f, g in itertools.product(arrows, repeat=2):
        assert (totalize(f) == totalize(g)) == equiv(f, g)


def test_arrow_po(cfg0, pa, pab):
    arrows = semantic_arrows(pa, pab, cfg0)
    bottom = empty_arrow(pa, pab, cfg0)
    for f in arrows:
        assert arrow_po_leq(bottom, f)
        assert arrow_po_leq(f, f)
        for g in arrows:
            if arrow_po_leq(f, g) and arrow_po_leq(g, f):
                assert equiv(f, g)
    with pytest.raises(NotParallel):
        arrow_po_leq(bottom, empty_arrow(pab, pa, cfg0))


def test_arrow_order_refuses_a_half_parallel_pair(cfg0, pa, pb, pab):
    # One end shared, the other not: same source, then same target.
    for f, g in (
        (empty_arrow(pa, pab, cfg0), empty_arrow(pa, pa, cfg0)),
        (empty_arrow(pa, pab, cfg0), empty_arrow(pb, pab, cfg0)),
    ):
        for left, right in ((f, g), (g, f)):
            with pytest.raises(NotParallel):
                arrow_po_leq(left, right)


def test_semantic_homset_sizes(cfg0, pa, pb, pab):
    assert len(semantic_homset(pa, pb, cfg0)) == 1
    assert len(semantic_homset(pab, pab, cfg0)) == 4
    assert len(semantic_homset(pa, ZERO, cfg0)) == 1
    assert {h.relations for h in semantic_homset(pa, pb, cfg0)} == {frozenset({BOTTOM})}


def test_homset_matches_realizable_two_step_fluxes(cfg0, pa, pab, ra, rb, rab):
    # independent route: every flux in the hom-set arises from an actual
    # two-stage composite of atomic morphisms, and vice versa
    src = with_default_labels(instance(rab))
    tgt = with_default_labels(instance(rab))
    realizable = set()
    mid_relations = [ra, rb, rab]
    for k in range(len(mid_relations) + 1):
        for combo in itertools.combinations(mid_relations, k):
            mid = with_default_labels(Instance(frozenset(combo) | frozenset({rab}), {}))
            schema = sorted(mid.labels)
            for n_queries in range(len(schema) + 1):
                for qs in itertools.combinations(schema, n_queries):
                    try:
                        first = atomic_morphism(
                            src,
                            mid,
                            [
                                q
                                for name in qs
                                for q in _queries_producing(src, mid.labels[name])
                            ][:1] or [],
                            cfg0,
                        )
                    except ResultNotInTarget:
                        continue
                    second = atomic_morphism(
                        mid, tgt, [n for n in schema if mid.labels[n] == rab], cfg0
                    )
                    realizable.add(compose(second, first).flux.relations)
    homset = {h.relations for h in semantic_homset(src, tgt, cfg0)}
    assert realizable <= homset


def _queries_producing(src, target_relation):
    out = []
    for text in ("r1", "sel[1='a'](r1)", "sel[1='b'](r1)", "union(r1,r1)"):
        vm = view_map(text, src)
        if vm.result == target_relation:
            out.append(text)
    return out


def test_monad_unit_and_multiplication(cfg0, all_instances):
    for a in all_instances:
        ta = power_view(a, cfg0)
        assert a.relations <= ta.relations
        assert power_view(Instance(ta.relations, {}), cfg0).relations == ta.relations


def test_lazy_trees_equal_the_eager_ones(cfg0, classes):
    from viewflux.topos import classifier, classifier_audit

    for a in classes:
        closed = power_view(a, cfg0)
        ida = identity(a, cfg0)
        assert ida.trees == frozenset(_witness_trees(a, closed.relations, cfg0))
        assert ida.trees is ida.trees  # built once, then stored
        src = with_default_labels(closed, "v")
        name_of = {rel: name for name, rel in src.labels.items()}
        for b in classes:
            for f in semantic_arrows(a, b, cfg0):
                inv = invert(f)
                assert inv.trees == frozenset(_witness_trees(b, f.flux.relations, cfg0))
                assert inv.trees is inv.trees
                lifted = lift_arrow(f)
                assert lifted.trees == frozenset(
                    ViewTree(ViewMap(Bot() if v.is_bottom else Base(name_of[v]), src, v))
                    for v in f.flux.relations
                )
                assert lifted.trees is lifted.trees
            if closed.relations <= power_view(b, cfg0).relations:
                mono = semantic_arrow(a, b, closed, cfg0)
                char, _ = classifier(mono, cfg0, classes)
                generators, _ = classifier_audit(mono, cfg0)
                assert char.trees == frozenset(_witness_trees(b, generators, cfg0))
                assert char.trees is char.trees


def test_compose_grafts_lazy_identity_trees_like_eager_ones(cfg0, classes):
    grafted = 0
    for a, b in itertools.product(classes, repeat=2):
        src = with_default_labels(a)
        witness = generating_queries(src, cfg0)
        views = power_view(a, cfg0).relations & b.relations
        f = atomic_morphism(src, b, [witness[v] for v in sorted_relations(views)], cfg0)
        closed = power_view(b, cfg0)
        eager = _morphism(b, b, _witness_trees(b, closed.relations, cfg0), closed, cfg0)
        lazy = compose(identity(b, cfg0), f)
        assert lazy.trees == compose(eager, f).trees
        grafted += bool(lazy.trees)
    assert grafted > 1


def test_composing_with_a_witness_free_arrow_builds_no_tree(cfg0, classes, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return _witness_trees(*args)

    monkeypatch.setattr(morphisms, "_witness_trees", counting)
    for a, b in itertools.product(classes, repeat=2):
        ida = identity(a, cfg0)
        for g in semantic_arrows(a, b, cfg0):
            h = compose(g, ida)
            assert equiv(h, g) and h.trees == frozenset()
    assert calls == []
