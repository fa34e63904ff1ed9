import itertools

import pytest

from viewflux import (
    BOTTOM,
    DomainMismatch,
    Instance,
    NotClosedDomain,
    NotMonic,
    UniverseConfig,
    ZERO,
    arrow_coproduct,
    compose,
    composition_arrow,
    copair,
    coproduct,
    empty_arrow,
    equiv,
    evaluate,
    eval_arrow,
    fold_arrow,
    identity,
    identity_element_arrow,
    instance,
    instance_union,
    is_epi,
    is_iso,
    is_mono,
    make_relation,
    matching,
    merge_arrow,
    merging,
    monoid_structure,
    omega_chain,
    po_leq,
    power_view,
    principal_morphism,
    ret_category_probe,
    retraction_check,
    semantic_arrow,
    semantic_arrows,
    semantic_homset,
    tensor_arrow,
    total_object,
    transpose,
)
from viewflux import morphisms
from viewflux.catops import tagged_flux
from viewflux.closure import meet_closed
from viewflux.queries import Base
from viewflux.topos import closure_classes


@pytest.fixture(scope="module")
def classes(cfg0):
    return closure_classes(cfg0, 4)


def test_matching_values(cfg0, pa, pb):
    assert matching(pa, pb, cfg0).relations == frozenset({BOTTOM})
    tot = Instance(total_object(cfg0).relations, {})
    assert matching(pa, tot, cfg0).relations == power_view(pa, cfg0).relations
    assert matching(pa, pa, cfg0).relations == power_view(pa, cfg0).relations
    assert matching(pa, ZERO, cfg0).relations == frozenset({BOTTOM})


def test_matching_laws_exhaustive(cfg0, all_instances):
    for a, b in itertools.product(all_instances, repeat=2):
        ab = matching(a, b, cfg0)
        assert ab.relations == matching(b, a, cfg0).relations
        # the matching is the set intersection of the closures
        assert ab.relations == (
            power_view(a, cfg0).relations & power_view(b, cfg0).relations
        )


def test_merging_values(cfg0, pa, pb):
    assert merging(pa, pb, cfg0).relations == total_object(cfg0).relations
    assert merging(pa, ZERO, cfg0).relations == power_view(pa, cfg0).relations
    ta = Instance(power_view(pa, cfg0).relations, {})
    assert merging(pa, ta, cfg0).relations == power_view(pa, cfg0).relations
    tot = Instance(total_object(cfg0).relations, {})
    assert merging(pa, tot, cfg0).relations == total_object(cfg0).relations


def test_lattice_laws(cfg0, all_instances):
    for a, b in itertools.product(all_instances, repeat=2):
        ta = power_view(a, cfg0).relations
        inf = matching(a, b, cfg0)
        sup = merging(a, b, cfg0)
        assert inf.relations <= sup.relations
        # absorption
        assert merging(a, Instance(inf.relations, {}), cfg0).relations == ta
        assert matching(a, Instance(sup.relations, {}), cfg0).relations == ta


def test_inf_sup_are_bounds(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        inf = Instance(matching(a, b, cfg0).relations, {})
        sup = Instance(merging(a, b, cfg0).relations, {})
        for c in classes:
            below = po_leq(c, a, cfg0) and po_leq(c, b, cfg0)
            assert below == po_leq(c, inf, cfg0)
            above = po_leq(a, c, cfg0) and po_leq(b, c, cfg0)
            assert above == po_leq(sup, c, cfg0)


def test_sup_of_everything_is_total(cfg0, all_instances):
    acc = ZERO
    for a in all_instances:
        acc = Instance(merging(acc, a, cfg0).relations, {})
    assert acc.relations == total_object(cfg0).relations


def test_merging_is_the_interned_closure_of_the_union(flux_pairs):
    merges = {}
    for x, y, cfg in flux_pairs:
        merged = merging(x, y, cfg)
        closure = power_view(instance_union(x, y), cfg)
        assert merged.relations == closure.relations, (x, y)
        # One object per closed set, whichever operation built it.
        assert merged is closure, (x, y)
        assert merges.setdefault(merged.relations, merged) is merged, (x, y)
    assert len(merges) > 8


def test_tensor_arrow(cfg0, classes):
    for a, b, c, d in itertools.product(classes, repeat=4):
        for f in semantic_arrows(a, b, cfg0):
            for g in semantic_arrows(c, d, cfg0):
                t = tensor_arrow(f, g)
                assert t.flux.relations == f.flux.relations & g.flux.relations


def test_flux_range(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        bound = matching(a, b, cfg0).relations
        for f in semantic_arrows(a, b, cfg0):
            assert BOTTOM in f.flux.relations
            assert f.flux.relations <= bound


def test_merge_arrow_identity(cfg0, pa, pb):
    lifted = merge_arrow(pa, identity(pb, cfg0))
    assert lifted.flux.relations == merging(pa, pb, cfg0).relations
    assert is_iso(lifted)


def test_merge_arrow_zero(cfg0, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    lifted = merge_arrow(ZERO, f)
    assert lifted.flux.relations == f.flux.relations


def test_merge_arrow_functorial(cfg0, classes):
    for a, b, c, d in itertools.product(classes, repeat=4):
        for f in semantic_arrows(b, c, cfg0):
            for g in semantic_arrows(c, d, cfg0):
                lhs = merge_arrow(a, compose(g, f))
                rhs = compose(merge_arrow(a, g), merge_arrow(a, f))
                assert equiv(lhs, rhs)


def test_coproduct_tags_copies(cfg0, pa):
    doubled = coproduct(pa, pa)
    assert len(doubled.relations) == 2
    closure = power_view(doubled, cfg0)
    assert len(closure.relations) == 2 * len(power_view(pa, cfg0).relations) - 1


def test_coproduct_counts(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        if all(r.is_bottom for r in a.relations) or all(r.is_bottom for r in b.relations):
            continue
        na = len(power_view(a, cfg0).relations)
        nb = len(power_view(b, cfg0).relations)
        assert len(power_view(coproduct(a, b), cfg0).relations) == na + nb - 1


def test_coproduct_zero_unit(cfg0, pa):
    assert coproduct(ZERO, pa) == pa
    assert coproduct(pa, ZERO) == pa


def test_coproduct_memo_keeps_each_operands_labels(ra, rb):
    # Equal relation sets under other names: each coproduct names its own.
    built = []
    for _ in range(2):  # the second pass is served from the memo
        for lname, rname in (("p", "s"), ("q", "t")):
            both = coproduct(instance(ra, labels={lname: ra}), instance(rb, labels={rname: rb}))
            assert sorted(both.labels) == [f"l_{lname}", f"r_{rname}"]
            left, right = (evaluate(Base(name), both) for name in sorted(both.labels))
            assert (left.tag, left.tuples) == (("L",), ra.tuples)
            assert (right.tag, right.tuples) == (("R",), rb.tuples)
            built.append(both)
    # Both namings tag the same relations.
    assert built[0] is not built[1] and built[0].relations == built[1].relations


def test_coproduct_memo_returns_the_identical_object(rb):
    def build():
        a = instance(make_relation(1, {("a",)}), labels={"p": make_relation(1, {("a",)})})
        b = instance(make_relation(1, {("b",)}), rb)
        return a, b

    (a1, b1), (a2, b2) = build(), build()
    assert a1 is not a2 and b1 is not b2
    assert coproduct(a1, b1) is coproduct(a2, b2)
    assert coproduct(a1, b1) is not coproduct(b1, a1)


def test_memoized_matching_is_the_meet_of_the_closures(coproduct_inputs):
    abc1 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=1)
    groups = [(abc1, closure_classes(abc1, 2))]
    for cfg in dict.fromkeys(cfg for _, cfg in coproduct_inputs):
        groups.append((cfg, [inst for inst, c in coproduct_inputs if c == cfg]))
    for cfg, instances in groups:
        for a, b in itertools.product(instances, repeat=2):
            meet = meet_closed(power_view(a, cfg), power_view(b, cfg))
            assert matching(a, b, cfg) is meet, (a, b)


def test_coproduct_queries_cannot_mix_components(cfg0, pa, pb):
    both = coproduct(pa, pb)
    labels = sorted(both.labels)
    from viewflux import evaluate
    from viewflux.queries import Base, Join

    with pytest.raises(DomainMismatch):
        evaluate(Join(Base(labels[0]), Base(labels[1])), both)


def test_arrow_coproduct_and_copair(cfg0, pa, pb, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pab, power_view(pb, cfg0), cfg0)
    summed = arrow_coproduct(f, g)
    assert summed.source == coproduct(pa, pb)
    assert summed.target == coproduct(pab, pab)
    # the tagged flux holds each component with its provenance
    tags = {r.tag for r in summed.flux.relations if not r.is_bottom}
    assert tags == {("L",), ("R",)}

    paired = copair(f, g)
    assert paired.target == pab
    assert paired.source == coproduct(pa, pb)
    expected = {r.tag for r in paired.flux.relations if not r.is_bottom}
    assert expected == {("L",), ("R",)}


def test_copair_zero_component(cfg0, pa, pab):
    f = empty_arrow(ZERO, pab, cfg0)
    g = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    assert copair(f, g) is g
    assert copair(g, f) is g


def test_copair_rejects_mixed_configurations_before_the_zero_shortcut(cfg0, cfg2, pa, pab):
    f = empty_arrow(ZERO, pab, cfg0)
    g = semantic_arrow(pa, pab, power_view(pa, cfg2), cfg2)
    h = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    copair(h, h)  # warms the memo
    for left, right in ((f, g), (g, f), (h, g)):
        with pytest.raises(DomainMismatch):
            copair(left, right)


def test_copair_needs_a_common_target(cfg0, pa, pb, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pb, power_view(pb, cfg0), cfg0)
    with pytest.raises(DomainMismatch, match="copairing needs a common target"):
        copair(f, g)


def test_arrow_tensor_and_coproduct_reject_mixed_configurations(cfg0, cfg2, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pa, pab, power_view(pa, cfg2), cfg2)
    for op in (tensor_arrow, arrow_coproduct):
        for left, right in ((f, g), (g, f)):
            with pytest.raises(DomainMismatch, match="different configurations"):
                op(left, right)


def test_arrow_operations_accept_equal_configurations_held_apart(cfg0, pa, pb, pab, clear_caches):
    # Equal configurations are one configuration, even as two objects.
    equal = UniverseConfig(cfg0.domain, cfg0.k_max)
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pab, power_view(pb, equal), equal)
    assert f.cfg == g.cfg and f.cfg is not g.cfg
    assert tensor_arrow(f, g).flux.mask == f.flux.mask & g.flux.mask
    assert arrow_coproduct(f, g).source == coproduct(pa, pb)
    paired = copair(f, g)
    assert (paired.source, paired.target) == (coproduct(pa, pb), pab)


def test_copair_and_arrow_coproduct_are_memoized_per_law_pass(cfg0, pa, pb, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pab, power_view(pb, cfg0), cfg0)
    morphisms.clear_arrows()
    paired = copair(f, g)
    summed = arrow_coproduct(f, g)
    assert copair(f, g) is paired and arrow_coproduct(f, g) is summed
    morphisms.clear_arrows()
    assert copair(f, g) is not paired and equiv(copair(f, g), paired)
    assert arrow_coproduct(f, g) is not summed and equiv(arrow_coproduct(f, g), summed)


def test_tagged_flux_takes_relation_sets(cfg0, pa, pab):
    left, right = power_view(pa, cfg0), power_view(pab, cfg0)
    tagged = tagged_flux(left.relations, right.relations, cfg0)
    assert tagged.relations == power_view(coproduct(left, right), cfg0).relations


def test_tagged_flux_rejects_open_input_every_call(cfg0, pa, pab):
    for _ in range(2):
        with pytest.raises(NotClosedDomain):
            tagged_flux(pab.relations, power_view(pa, cfg0).relations, cfg0)


def test_fold_arrow(cfg0, pab):
    fold = fold_arrow(pab, cfg0)
    assert fold.source == coproduct(pab, pab)
    assert fold.target == pab
    assert fold.flux.relations == power_view(coproduct(pab, pab), cfg0).relations


def test_hom_object(cfg0, pa, pb, classes):
    assert matching(pa, pb, cfg0).relations == frozenset({BOTTOM})
    tot = Instance(total_object(cfg0).relations, {})
    for c in classes:
        assert matching(c, tot, cfg0).relations == power_view(c, cfg0).relations
    for b, c in itertools.product(classes, repeat=2):
        hom = matching(b, c, cfg0)
        assert hom.relations == matching(c, b, cfg0).relations
        # merging every hom-set flux gives the hom-object back
        merged = ZERO
        for flux in semantic_homset(b, c, cfg0):
            merged = Instance(
                merging(merged, Instance(flux.relations, {}), cfg0).relations, {}
            )
        assert merged.relations == hom.relations


def test_hom_counting(cfg0, classes):
    for a, b, c in itertools.product(classes, repeat=3):
        tensor = Instance(matching(a, b, cfg0).relations, {})
        hom = Instance(matching(b, c, cfg0).relations, {})
        assert len(semantic_homset(tensor, c, cfg0)) == len(semantic_homset(a, hom, cfg0))


def test_transpose_and_eval(cfg0, classes):
    for a, b, c in itertools.product(classes, repeat=3):
        tensor = Instance(matching(a, b, cfg0).relations, {})
        ev = eval_arrow(b, c, cfg0)
        assert is_mono(ev)
        assert ev.flux.relations == matching(b, c, cfg0).relations
        idb = identity(b, cfg0)
        for f in semantic_arrows(tensor, c, cfg0):
            lam = transpose(f, a, b, cfg0)
            assert lam.flux.relations == f.flux.relations
            # the currying triangle commutes on fluxes
            paired = lam.flux.relations & idb.flux.relations
            assert ev.flux.relations & paired == f.flux.relations


def test_transpose_empty(cfg0, pa, pb):
    tensor = Instance(matching(pa, pb, cfg0).relations, {})
    e = empty_arrow(tensor, pa, cfg0)
    assert equiv(transpose(e, pa, pb, cfg0), e)


def test_transpose_needs_matching_source(cfg0, pa, pb, pab):
    f = empty_arrow(pab, pa, cfg0)
    with pytest.raises(DomainMismatch):
        transpose(f, pa, pb, cfg0)


def test_monoid(cfg0, all_instances):
    for a in all_instances:
        mu, eta = monoid_structure(a, cfg0)
        ta = power_view(a, cfg0).relations
        assert is_iso(mu) and mu.flux.relations == ta
        assert is_epi(eta) and eta.flux.relations == ta
        # the unit triangle at the flux layer
        assert mu.flux.relations & (eta.flux.relations & ta) == ta


def test_monoid_zero(cfg0):
    mu, eta = monoid_structure(ZERO, cfg0)
    assert eta.flux.relations == frozenset({BOTTOM})


def test_composition_and_identity_element(cfg0, classes):
    for a, b, c in itertools.product(classes, repeat=3):
        m = composition_arrow(a, b, c, cfg0)
        expected = (
            power_view(a, cfg0).relations
            & power_view(b, cfg0).relations
            & power_view(c, cfg0).relations
        )
        assert is_mono(m) and m.flux.relations == expected
    for a in classes:
        j = identity_element_arrow(a, cfg0)
        assert is_epi(j)
        assert j.flux.relations == power_view(a, cfg0).relations


def test_principal_morphism(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        h = principal_morphism(a, b, cfg0)
        assert h.flux.relations == matching(a, b, cfg0).relations
        for f in semantic_arrows(a, b, cfg0):
            assert f.flux.relations <= h.flux.relations
            g = semantic_arrow(a, a, f.flux.relations, cfg0)
            assert equiv(compose(h, g), f)


def test_retraction(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        for f in semantic_arrows(a, b, cfg0):
            if is_mono(f):
                assert retraction_check(f)
    f = empty_arrow(classes[-1], classes[-1], cfg0)
    if not is_mono(f):
        with pytest.raises(NotMonic):
            retraction_check(f)


def test_ret_category(cfg0, classes):
    for a in classes:
        assert ret_category_probe(a, cfg0)


def test_omega_chain_cases(cfg0, pa):
    chain = omega_chain(pa, cfg0, 3)
    ta = power_view(pa, cfg0).relations
    assert [c.relations for c in chain] == [frozenset({BOTTOM}), ta, ta, ta]
    zero_chain = omega_chain(ZERO, cfg0, 2)
    assert [c.relations for c in zero_chain] == [frozenset({BOTTOM})] * 3


def test_omega_chain_stabilizes_everywhere(cfg0, all_instances):
    for a in all_instances:
        chain = omega_chain(a, cfg0, 3)
        ta = power_view(a, cfg0).relations
        assert chain[1].relations == ta
        assert all(step.relations == ta for step in chain[1:])


def test_distributivity(cfg0, classes):
    for a, b, c in itertools.product(classes, repeat=3):
        lhs = matching(Instance(merging(a, b, cfg0).relations, {}), c, cfg0)
        rhs = merging(
            Instance(matching(a, c, cfg0).relations, {}),
            Instance(matching(b, c, cfg0).relations, {}),
            cfg0,
        )
        assert lhs.relations == rhs.relations
        plain = matching(a, c, cfg0).relations | matching(b, c, cfg0).relations
        assert plain <= lhs.relations
