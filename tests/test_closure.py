import itertools

import pytest

import frozen_closure
from viewflux import (
    BOTTOM,
    EnumerationTooLarge,
    Instance,
    UniverseConfig,
    UniverseTooLarge,
    ZERO,
    closed_subsets,
    evaluate,
    generating_queries,
    instance,
    is_closed,
    isomorphic,
    make_relation,
    po_leq,
    power_view,
    sorted_relations,
    subset_instances,
    total_object,
    universe_relations,
    with_default_labels,
    zero_object,
)

ABC1 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=1)
ABC2 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=2)
#: The binary chain {(a,b),(b,c)}: its closure at {a,b,c}, k=2 is the whole
#: 519-view universe, reached in five rounds.
CHAIN = with_default_labels(instance(make_relation(2, {("a", "b"), ("b", "c")})))


def _closed_one_round(relations, cfg):
    """Independent closedness check: one application of every operator."""
    rels = set(relations) | {BOTTOM}
    for r in rels:
        if r.is_bottom:
            continue
        for i in range(1, r.arity + 1):
            for c in sorted(cfg.domain):
                kept = frozenset(t for t in r.tuples if t[i - 1] == c)
                if make_relation(r.arity, kept) not in rels:
                    return False
            for j in range(i + 1, r.arity + 1):
                kept = frozenset(t for t in r.tuples if t[i - 1] == t[j - 1])
                if make_relation(r.arity, kept) not in rels:
                    return False
        for m in range(1, cfg.k_max + 1):
            for cols in itertools.product(range(1, r.arity + 1), repeat=m):
                rows = frozenset(tuple(t[c - 1] for c in cols) for t in r.tuples)
                if make_relation(m, rows) not in rels:
                    return False
    for r, s in itertools.product(rels, repeat=2):
        if r.is_bottom or s.is_bottom:
            continue
        if r.arity == s.arity and make_relation(r.arity, r.tuples | s.tuples) not in rels:
            return False
        if r.arity + s.arity <= cfg.k_max:
            rows = frozenset(x + y for x in r.tuples for y in s.tuples)
            if make_relation(r.arity + s.arity, rows) not in rels:
                return False
    return True


def _assert_closure_of(inst, views, witness, cfg):
    """Reference closure check that runs no saturation.

    The input and the bottom are views and one more round of every operator
    adds nothing, so ``views`` holds the closure; every view's witness query
    over the instance evaluates to it, so every view is a view of the
    instance.  Together: ``views`` is exactly the closure.
    """
    labeled = with_default_labels(inst)
    assert inst.relations | {BOTTOM} <= views
    assert _closed_one_round(views, cfg)
    assert witness.keys() == views
    for rel, query in witness.items():
        assert evaluate(query, labeled) == rel, (rel, query)


@pytest.fixture(scope="module")
def differential_closures(cfg2):
    """(instance, cfg, views, witnesses) for every input the closure is
    checked on: all instances at {a,b} k=2 with up to two relations, all
    instances at {a,b,c} k=1, and the binary chain at {a,b,c} k=2."""
    inputs = [(inst, cfg2) for inst in subset_instances(cfg2, 2)]
    inputs += [(inst, ABC1) for inst in subset_instances(ABC1, 8)]
    inputs.append((CHAIN, ABC2))
    return [
        (inst, cfg, power_view(inst, cfg).relations, generating_queries(inst, cfg))
        for inst, cfg in inputs
    ]


def test_differential_inputs(differential_closures):
    assert len(differential_closures) == 191 + 256 + 1
    assert len(differential_closures[-1][2]) == 519


def test_saturation_matches_frozen_reference(differential_closures):
    for inst, cfg, views, witness in differential_closures:
        assert views == frozen_closure._saturate(inst.relations, cfg), inst
        assert witness == frozen_closure.generating_queries(inst, cfg), inst


def test_closure_passes_independent_oracle(differential_closures):
    for inst, cfg, views, witness in differential_closures:
        _assert_closure_of(inst, views, witness, cfg)


def test_max_universe_bound(pab):
    # pab closes to four views: bottom, {a}, {b} and {a,b}
    exact = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_universe=4)
    assert len(power_view(pab, exact)) == 4
    assert len(generating_queries(pab, exact)) == 4
    tight = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_universe=3)
    for closure in (power_view, generating_queries):
        with pytest.raises(UniverseTooLarge, match="more than 3 views"):
            closure(pab, tight)


def _oracle_closure(inst, cfg):
    """Closure from above: the least closed universe subset containing the
    instance.  Independent of the saturation the implementation uses."""
    universe = set(universe_relations(cfg))
    assert inst.relations <= universe
    best = None
    rest = sorted_relations(universe - {BOTTOM})
    for k in range(len(rest) + 1):
        for combo in itertools.combinations(rest, k):
            candidate = frozenset(combo) | {BOTTOM}
            if not inst.relations <= candidate:
                continue
            if not _closed_one_round(candidate, cfg):
                continue
            if best is None or len(candidate) < len(best):
                best = candidate
    return best


def test_power_view_single(cfg0, pa, ra):
    expected = _oracle_closure(pa, cfg0)
    assert power_view(pa, cfg0).relations == expected == frozenset({BOTTOM, ra})


def test_power_view_zero(cfg0):
    assert power_view(ZERO, cfg0).relations == frozenset({BOTTOM})


def test_power_view_two_singletons_reaches_total(cfg0, pab):
    expected = _oracle_closure(pab, cfg0)
    assert power_view(pab, cfg0).relations == expected
    assert power_view(pab, cfg0).relations == total_object(cfg0).relations


def test_power_view_matches_oracle_everywhere(cfg0, all_instances):
    for inst in all_instances:
        assert power_view(inst, cfg0).relations == _oracle_closure(inst, cfg0)


def test_closure_axioms_exhaustive(cfg0, all_instances):
    for a in all_instances:
        ta = power_view(a, cfg0).relations
        assert a.relations <= ta
        assert power_view(Instance(ta, {}), cfg0).relations == ta
    for a, b in itertools.product(all_instances, repeat=2):
        if a.relations <= b.relations:
            assert power_view(a, cfg0).relations <= power_view(b, cfg0).relations


def test_algebraicity(cfg0, all_instances):
    # the closure of an instance is the union of the closures of its subsets
    for a in all_instances:
        rels = sorted_relations(a.relations)
        union = set()
        for k in range(len(rels) + 1):
            for combo in itertools.combinations(rels, k):
                union |= power_view(Instance(frozenset(combo), {}), cfg0).relations
        assert union == power_view(a, cfg0).relations


def test_total_object(cfg0, cfg_single, ra, rb, rab):
    tot = total_object(cfg0)
    assert tot.relations == frozenset({BOTTOM, ra, rb, rab})
    assert power_view(tot, cfg0).relations == tot.relations
    assert total_object(cfg_single).relations == frozenset({BOTTOM, ra})


def test_po_leq_and_iso(cfg0, pa, pb, pab, all_instances):
    assert po_leq(pa, pab, cfg0)
    assert not po_leq(pa, pb, cfg0)
    for a in all_instances:
        assert isomorphic(a, Instance(power_view(a, cfg0).relations, {}), cfg0)


def test_closed_subsets_of_total(cfg0, ra, rb, rab):
    got = closed_subsets(total_object(cfg0), cfg0)
    expected = {
        frozenset({BOTTOM}),
        frozenset({BOTTOM, ra}),
        frozenset({BOTTOM, rb}),
        frozenset({BOTTOM, ra, rb, rab}),
    }
    assert {c.relations for c in got} == expected
    assert len(got) == 4


def test_closed_subsets_bottom(cfg0):
    got = closed_subsets(zero_object(), cfg0)
    assert [c.relations for c in got] == [frozenset({BOTTOM})]


def test_closed_subsets_of_pair(cfg0, pa, ra):
    got = closed_subsets(power_view(pa, cfg0), cfg0)
    assert {c.relations for c in got} == {
        frozenset({BOTTOM}),
        frozenset({BOTTOM, ra}),
    }


def test_closed_subsets_against_brute_force(cfg0, cfg2):
    # independent oracle: test every bottom-containing subset for closure
    for cfg in (cfg0, cfg2):
        ambient = total_object(cfg)
        ground = sorted_relations(ambient.relations - {BOTTOM})
        if len(ground) > 10:
            ground = ground[:10]
            ambient_rels = power_view(
                Instance(frozenset(ground), {}), cfg
            ).relations
            ground = sorted_relations(ambient_rels - {BOTTOM})
            if len(ground) > 12:
                continue
        else:
            ambient_rels = ambient.relations
        oracle = set()
        for k in range(len(ground) + 1):
            for combo in itertools.combinations(ground, k):
                candidate = frozenset(combo) | {BOTTOM}
                if _closed_one_round(candidate, cfg):
                    oracle.add(candidate)
        got = {c.relations for c in closed_subsets(Instance(frozenset(ambient_rels), {}), cfg)}
        assert got == oracle


def test_closed_subsets_k2_lattice(cfg2):
    got = closed_subsets(total_object(cfg2), cfg2)
    assert len(got) == 4  # the closed sets mirror the subsets of the domain


def test_closed_subsets_requires_closed_input(cfg0, pab):
    with pytest.raises(EnumerationTooLarge):
        closed_subsets(pab, cfg0)


def test_closed_subsets_ground_bound(cfg0):
    from viewflux import UniverseConfig

    tight = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_homset_ground=1)
    with pytest.raises(EnumerationTooLarge):
        closed_subsets(total_object(tight), tight)


def test_intersection_of_closed_is_closed(cfg0):
    closed = closed_subsets(total_object(cfg0), cfg0)
    for x, y in itertools.product(closed, repeat=2):
        assert is_closed(Instance(x.relations & y.relations, {}), cfg0)


def test_generating_queries_cover_closure(cfg0, cfg2, pab, pa):
    for cfg, inst in ((cfg0, pab), (cfg0, pa), (cfg2, pa)):
        labeled = with_default_labels(inst)
        witness = generating_queries(labeled, cfg)
        assert set(witness) == set(power_view(inst, cfg).relations)
        for rel, query in witness.items():
            assert evaluate(query, labeled) == rel


def test_saturation_is_deterministic(cfg0, pab):
    a = power_view(pab, cfg0)
    b = power_view(Instance(pab.relations, {"x": sorted_relations(pab.relations)[0]}), cfg0)
    assert a.relations == b.relations


def test_power_view_ignores_labels(cfg0, pab):
    assert power_view(pab, cfg0) == power_view(Instance(pab.relations, {}), cfg0)
