import dis
import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import adom_oracle
import frozen_closure
from viewflux import (
    BOTTOM,
    Base,
    EnumerationTooLarge,
    Instance,
    Join,
    NotClosedDomain,
    Project,
    Relation,
    UniverseConfig,
    UnionTerm,
    UniverseTooLarge,
    UnknownConstant,
    ZERO,
    closed_subsets,
    coproduct,
    evaluate,
    generating_queries,
    instance,
    is_closed,
    isomorphic,
    make_relation,
    po_leq,
    power_view,
    Select,
    semantic_homset,
    sorted_relations,
    subset_instances,
    total_object,
    universe_relations,
    with_default_labels,
    zero_object,
)
from viewflux import closure as closure_module
from viewflux.catops import tagged_flux
from viewflux.closure import ClosedInstance, certify_closed, meet_closed
from viewflux.topos import closure_classes

ABC1 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=1)
ABC2 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=2)
AB3 = UniverseConfig(domain=frozenset({"a", "b"}), k_max=3)
ABCD1 = UniverseConfig(domain=frozenset({"a", "b", "c", "d"}), k_max=1)
#: The binary chain {(a,b),(b,c)}: its closure at {a,b,c}, k=2 is the whole
#: 519-view universe, reached in five rounds.
CHAIN = with_default_labels(instance(make_relation(2, {("a", "b"), ("b", "c")})))


def _closed_one_round(relations, cfg):
    """Independent closedness check: one application of every operator.

    Results keep their operand's coproduct tag; a pair with two different
    tags is not combined, since no query reaches across components.  An
    empty result is the bottom, which is always present.
    """
    rels = set(relations) | {BOTTOM}
    present = {(r.arity, r.tuples, r.tag) for r in rels}

    def has(arity, rows, tag):
        return not rows or (arity, rows, tag) in present

    for r in rels:
        if r.is_bottom:
            continue
        for i in range(1, r.arity + 1):
            for c in sorted(cfg.domain):
                kept = frozenset(t for t in r.tuples if t[i - 1] == c)
                if not has(r.arity, kept, r.tag):
                    return False
            for j in range(i + 1, r.arity + 1):
                kept = frozenset(t for t in r.tuples if t[i - 1] == t[j - 1])
                if not has(r.arity, kept, r.tag):
                    return False
        for m in range(1, cfg.k_max + 1):
            for cols in itertools.product(range(1, r.arity + 1), repeat=m):
                rows = frozenset(tuple(t[c - 1] for c in cols) for t in r.tuples)
                if not has(m, rows, r.tag):
                    return False
    for r, s in itertools.product(rels, repeat=2):
        if r.is_bottom or s.is_bottom or (r.tag and s.tag and r.tag != s.tag):
            continue
        tag = r.tag or s.tag
        if r.arity == s.arity and not has(r.arity, r.tuples | s.tuples, tag):
            return False
        if r.arity + s.arity <= cfg.k_max:
            rows = frozenset(x + y for x in r.tuples for y in s.tuples)
            if not has(r.arity + s.arity, rows, tag):
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
def differential_closures(cfg2, coproduct_inputs):
    """(instance, cfg, views, witnesses) for every input the closure is
    checked on: all instances at {a,b} k=2 with up to two relations, all
    instances at {a,b,c} k=1, the binary chain at {a,b,c} k=2, and tagged
    coproducts of pairs of small instances at {a,b} k=2 and {a,b,c} k=1."""
    inputs = [(inst, cfg2) for inst in subset_instances(cfg2, 2)]
    inputs += [(inst, ABC1) for inst in subset_instances(ABC1, 8)]
    inputs.append((CHAIN, ABC2))
    inputs += coproduct_inputs
    return [
        (inst, cfg, power_view(inst, cfg).relations, generating_queries(inst, cfg))
        for inst, cfg in inputs
    ]


def test_differential_inputs(differential_closures):
    assert len(differential_closures) == 191 + 256 + 1 + 8 * 8 + 9 * 9
    assert len(differential_closures[191 + 256][2]) == 519
    tagged = [views for _, _, views, _ in differential_closures[191 + 256 + 1:]]
    assert sum(any(r.tag for r in views) for views in tagged) == 8 * 8 + 9 * 9


def test_saturation_matches_frozen_reference(differential_closures):
    # The witness terms differ from the frozen ones by design: they are read
    # off the closed form, and _assert_closure_of checks them.
    for inst, cfg, views, _ in differential_closures:
        assert views == frozen_closure._saturate(inst.relations, cfg), inst


def test_closure_passes_independent_oracle(differential_closures):
    for inst, cfg, views, witness in differential_closures:
        _assert_closure_of(inst, views, witness, cfg)


_RELATIONS_ABC2 = st.integers(1, 2).flatmap(
    lambda n: st.frozensets(st.tuples(*[st.sampled_from("abc")] * n), min_size=1).map(
        lambda rows: make_relation(n, rows)
    )
)


@settings(max_examples=5, derandomize=True, deadline=None)
@given(st.lists(_RELATIONS_ABC2, min_size=1, max_size=2, unique=True))
def test_generated_k2_instances(relations):
    inst = with_default_labels(instance(*relations))
    views = power_view(inst, ABC2).relations
    assert _triples(views) == adom_oracle.oracle(inst.relations, ABC2)
    _assert_closure_of(inst, views, generating_queries(inst, ABC2), ABC2)


def test_max_universe_bound(pab):
    # pab closes to four views: bottom, {a}, {b} and {a,b}
    exact = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_universe=4)
    assert len(power_view(pab, exact)) == 4
    assert len(generating_queries(pab, exact)) == 4
    tight = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_universe=3)
    for closure in (power_view, generating_queries):
        with pytest.raises(UniverseTooLarge, match="more than 3 views"):
            closure(pab, tight)


def test_max_universe_bound_on_chain():
    # the chain closes to the whole 519-view universe
    exact = UniverseConfig(domain=ABC2.domain, k_max=2, max_universe=519)
    assert len(power_view(CHAIN, exact)) == 519
    assert len(generating_queries(CHAIN, exact)) == 519
    tight = UniverseConfig(domain=ABC2.domain, k_max=2, max_universe=518)
    for closure in (power_view, generating_queries):
        with pytest.raises(UniverseTooLarge, match="more than 518 views"):
            closure(CHAIN, tight)


def test_closed_form_rejects_constants_outside_the_domain():
    # saturation would give 3 views here ({a} is selectable, {b} is not),
    # while the closed form, which assumes every constant selectable, gives 4
    only_a = UniverseConfig(domain=frozenset({"a"}), k_max=1)
    for rel in (make_relation(1, {("a",), ("b",)}), Relation(1, frozenset({("b",)}), ("l",))):
        with pytest.raises(UnknownConstant, match="'b' is not in the domain"):
            power_view(instance(rel), only_a)


def test_closed_form_checks_the_view_bound_before_building_a_view(monkeypatch):
    built = []

    def counting_relation(*args):
        built.append(args)
        return Relation(*args)

    monkeypatch.setattr(closure_module, "Relation", counting_relation)
    tight = UniverseConfig(domain=ABC2.domain, k_max=2, max_universe=518)
    with pytest.raises(UniverseTooLarge, match="more than 518 views"):
        power_view(CHAIN, tight)
    # 2**(100**5) views: the count is bounded without forming the power
    wide = UniverseConfig(domain=frozenset(f"c{i}" for i in range(100)), k_max=5)
    every = make_relation(1, {(c,) for c in wide.domain})
    with pytest.raises(UniverseTooLarge, match="more than 20000 views"):
        power_view(instance(every), wide)
    assert built == []


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


def _closure(cfg, *relations):
    return power_view(Instance(frozenset(relations), {}), cfg)


def _brute_force_inputs(cfg0, cfg2):
    """Closed instances with at most 12 relations besides the bottom:
    untagged, tagged coproducts, mixed tagged and untagged, and relations
    above the arity cap, untagged and tagged."""
    a, b = make_relation(1, {("a",)}), make_relation(1, {("b",)})
    p2, s3 = make_relation(2, {("a", "b")}), make_relation(3, {("b", "b", "b")})
    r3 = make_relation(3, {("a", "b", "a"), ("b", "b", "a")})
    total, closed_a = total_object(cfg0), _closure(cfg0, a)
    nested = coproduct(coproduct(closed_a, total), _closure(cfg0, b))
    return [
        (total, cfg0),
        (_closure(cfg2, a), cfg2),
        (_closure(cfg0, *coproduct(total, total).relations), cfg0),
        (_closure(cfg0, *coproduct(closed_a, total).relations), cfg0),
        (_closure(cfg0, *nested.relations), cfg0),
        (_closure(cfg0, a, _tagged(b, "l")), cfg0),
        (_closure(ABC1, a, _tagged(b, "l"), _tagged(make_relation(1, {("c",)}), "r")), ABC1),
        (_closure(cfg0, p2), cfg0),
        (_closure(cfg0, r3), cfg0),
        (_closure(cfg0, r3, s3), cfg0),
        (_closure(cfg0, a, _tagged(r3, "l")), cfg0),
        (_closure(cfg0, s3, _tagged(r3, "l")), cfg0),
        (_closure(cfg0, _tagged(p2, "l"), _tagged(b, "r"), a), cfg0),
    ]


def test_closed_subsets_against_brute_force(cfg0, cfg2):
    # independent oracle: test every bottom-containing subset for closure
    for ambient, cfg in _brute_force_inputs(cfg0, cfg2):
        ground = sorted_relations(ambient.relations - {BOTTOM})
        assert len(ground) <= 12, ambient
        oracle = set()
        for k in range(len(ground) + 1):
            for combo in itertools.combinations(ground, k):
                candidate = frozenset(combo) | {BOTTOM}
                if _closed_one_round(candidate, cfg):
                    oracle.add(candidate)
        got = [c.relations for c in closed_subsets(ambient, cfg)]
        assert len(got) == len(oracle) and set(got) == oracle, ambient
        assert len(got) == adom_oracle.closed_subset_count(ambient.relations, cfg), ambient


def _distinct_closures(cfg):
    """The closures of every instance with at most two relations, once each."""
    closures = {power_view(inst, cfg).relations for inst in subset_instances(cfg, 2)}
    ordered = sorted(closures, key=lambda rels: (len(rels), repr(Instance(rels))))
    return [Instance(rels, {}) for rels in ordered]


@pytest.fixture(scope="module")
def closed_subset_inputs(cfg0, cfg2):
    """(closed instance, cfg) for every input the closed-subset enumeration
    is compared on: the distinct closures at {a,b} k=1 and k=2, {a,b,c} k=1
    and {a,b,c,d} k=1; the coproducts of every ordered pair of them at the
    first three; closures mixing an untagged closure at {a,b,c} k=1 with a
    coproduct; every binary relation over {a,b} at k=1, alone and in
    coproducts; and the mixed and above-cap inputs of ``MIXED_INPUTS``."""
    inputs = []
    for cfg in (cfg0, cfg2, ABC1, ABCD1):
        inputs += [(x, cfg) for x in _distinct_closures(cfg)]
    for cfg in (cfg0, cfg2, ABC1):
        closures = _distinct_closures(cfg)
        inputs += [(_closure(cfg, *coproduct(x, y).relations), cfg)
                   for x, y in itertools.product(closures, repeat=2)]
    closures = _distinct_closures(ABC1)
    inputs += [(_closure(ABC1, *x.relations, *coproduct(y, z).relations), ABC1)
               for x in closures for y, z in itertools.product(closures[::3], repeat=2)]
    binary = [_closure(cfg0, r) for r in universe_relations(cfg2) if r.arity == 2]
    inputs += [(x, cfg0) for x in binary]
    inputs += [(_closure(cfg0, *coproduct(x, y).relations), cfg0)
               for x, y in itertools.product(binary[::4], repeat=2)]
    inputs += [(_closure(cfg, *relations), cfg) for relations, cfg in MIXED_INPUTS]
    return inputs


def test_closed_subset_inputs(closed_subset_inputs):
    assert len(closed_subset_inputs) == 32 + 96 + 72 + 15 + 16 + 10
    relations = [x.relations for x, _ in closed_subset_inputs]
    # A coproduct with the zero object is the other operand, untagged.
    assert sum(any(r.tag for r in x) for x in relations) == 3 * 3 + 3 * 3 + 7 * 7 + 8 * 4 + 16 + 5
    assert sum(any(r.tag for r in x) and any(not r.tag and not r.is_bottom for r in x)
               for x in relations) == 7 * 4 + 5
    assert sum(any(r.arity > cfg.k_max for r in x.relations)
               for x, cfg in closed_subset_inputs) == 15 + 16 + 9


def test_closed_subsets_match_frozen_next_closure(closed_subset_inputs):
    for x, cfg in closed_subset_inputs:
        got = [c.relations for c in closed_subsets(x, cfg)]
        expected = [c.relations for c in frozen_closure.closed_subsets_next_closure(x, cfg)]
        assert got == expected, x


def test_closed_subsets_match_closed_form_count(closed_subset_inputs):
    # Distinct closed subsets of x, as many as the closed form counts: all of them.
    for x, cfg in closed_subset_inputs:
        got = closed_subsets(x, cfg)
        assert len({c.relations for c in got}) == len(got), x
        assert len(got) == adom_oracle.closed_subset_count(x.relations, cfg), x
        for c in got:
            assert c.relations <= x.relations, x
            assert _triples(c.relations) == adom_oracle.oracle(c.relations, cfg), (x, c)
    untagged = [(x, cfg) for x, cfg in closed_subset_inputs
                if not any(r.tag or r.arity > cfg.k_max for r in x.relations)]
    for x, cfg in untagged:
        adom = {c for r in x.relations for t in r.tuples for c in t}
        assert len(closed_subsets(x, cfg)) == 2 ** len(adom)


def test_semantic_homsets_are_closed_subsets_of_the_matching():
    classes = closure_classes(ABC1, 2)
    assert len(classes) == 8
    for a, b in itertools.product(classes, repeat=2):
        matching = adom_oracle.oracle(a.relations, ABC1) & adom_oracle.oracle(b.relations, ABC1)
        fluxes = [_triples(flux.relations) for flux in semantic_homset(a, b, ABC1)]
        assert len({frozenset(f) for f in fluxes}) == len(fluxes)
        assert all(f <= matching and adom_oracle.oracle(_relations(f), ABC1) == f for f in fluxes)
        assert len(fluxes) == adom_oracle.closed_subset_count(_relations(matching), ABC1)


def test_closed_subsets_k2_lattice(cfg2):
    got = closed_subsets(total_object(cfg2), cfg2)
    assert len(got) == 4  # the closed sets mirror the subsets of the domain


def test_closed_subsets_requires_closed_input(cfg0, pab):
    with pytest.raises(NotClosedDomain):
        closed_subsets(pab, cfg0)


def test_certify_closed_rejects_open_input(cfg0, pab):
    with pytest.raises(NotClosedDomain, match="is not closed"):
        certify_closed(pab, cfg0)
    assert certify_closed(power_view(pab, cfg0), cfg0) == power_view(pab, cfg0)


def _counting_closures(monkeypatch):
    """A list that gets one entry per lookup of a support in the table."""
    lookups = []
    real = closure_module._closure
    monkeypatch.setattr(
        closure_module, "_closure", lambda *args: lookups.append(args) or real(*args)
    )
    return lookups


def test_closed_subsets_atom_bound(clear_caches, monkeypatch):
    # The total object at {a,b} k=1 has 2 atoms, so 2**2 sets of them to close.
    tight = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_enumeration=3)
    enough = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_enumeration=4)
    totals = total_object(tight), total_object(enough)
    built = len(closure_module._closed)
    refusal = r"2\*\*2 sets of atoms exceed the enumeration bound 3"
    with pytest.raises(EnumerationTooLarge, match=refusal):
        closed_subsets(totals[0], tight)
    assert len(closure_module._closed) == built  # no closure is built before the refusal
    lookups = _counting_closures(monkeypatch)
    assert len(closed_subsets(totals[1], enough)) == 4
    # One lookup for the fixed-point test, then one per set of atoms; a closure
    # is built for each closed set but the total object, built before.
    assert len(lookups) == 1 + 4
    assert len(closure_module._closed) == built + 3


#: A ternary relation of ten tuples over {a,b,c}: at k=1 its closure holds
#: 1,030 relations but only 13 atoms (three constants, ten tuples).
TERNARY10 = make_relation(3, list(itertools.product("abc", repeat=3))[:10])


def test_closed_subsets_build_one_closure_per_closed_set(clear_caches, monkeypatch):
    # 2**13 sets of atoms close to 1,078 closed sets, the ambient among them:
    # the table builds each once.
    x = power_view(instance(TERNARY10), ABC1)
    lookups = _counting_closures(monkeypatch)
    got = closed_subsets(x, ABC1)
    assert len(got) == 1078 == len(closure_module._closed)
    # One lookup for the fixed-point test, then one per set of atoms.
    assert len(lookups) == 1 + 2**13 and x in got


def test_inputs_with_one_support_close_to_one_object(cfg0, cfg2):
    a, b = make_relation(1, {("a",)}), make_relation(1, {("b",)})
    ab = make_relation(1, {("a",), ("b",)})
    for cfg in (cfg0, cfg2):
        assert power_view(instance(ab), cfg) is power_view(instance(a, b), cfg)
    # At k=2 a binary tuple over {a,b} makes both constants selectable too.
    assert power_view(instance(make_relation(2, {("a", "b")})), cfg2) is power_view(instance(ab), cfg2)
    left = coproduct(instance(ab), instance(a))
    assert power_view(left, cfg0) is power_view(coproduct(instance(a, b), instance(a)), cfg0)


def test_a_set_closed_under_two_caps_is_one_closed_set():
    # {a} with the row (a,a) above cap 1, and {a} at cap 2: one support.
    a, aa = make_relation(1, {("a",)}), make_relation(2, {("a", "a")})
    cap1, cap2 = (UniverseConfig(domain=frozenset({"a"}), k_max=k) for k in (1, 2))
    one, two = power_view(instance(a, aa), cap1), power_view(instance(a), cap2)
    assert one == two and one.relations == {BOTTOM, a, aa}
    assert one is two
    assert is_closed(one, cap1) and is_closed(one, cap2)
    # Its mask has the bottom's bit and one per row, (a) and (a,a), at either cap.
    assert one.mask.bit_count() == 3


@pytest.mark.parametrize("cfg", [ABC1, ABC2, AB3, ABCD1], ids=["abc-k1", "abc-k2", "ab-k3", "abcd-k1"])
def test_total_object_is_the_universe(cfg):
    total = total_object(cfg)
    assert total.views == universe_relations(cfg)
    assert total.relations == frozenset(universe_relations(cfg))
    assert total_object(cfg) is total


@pytest.mark.parametrize(
    "cfg, relations, atoms",
    [
        (ABC2, CHAIN.relations, 3),  # the total object: 518 relations
        (AB3, {make_relation(1, {("a",), ("b",)})}, 2),  # the total object: 273 relations
        (ABC1, {TERNARY10}, 13),  # 1,030 relations
    ],
    ids=["abc-k2-total", "ab-k3-total", "abc-k1-ternary"],
)
def test_closed_subsets_past_the_old_ground_bound(cfg, relations, atoms):
    # Each ambient holds more than 64 relations, which the closed-subset
    # bound refused while it counted relations instead of sets of atoms.
    x = _closure(cfg, *relations)
    assert len(x) - 1 > 64
    assert x == total_object(cfg) or cfg is ABC1
    with pytest.raises(EnumerationTooLarge, match=f"2\\*\\*{atoms} sets of atoms"):
        closed_subsets(x, UniverseConfig(cfg.domain, cfg.k_max, max_enumeration=2**atoms - 1))
    got = closed_subsets(x, cfg)
    assert len(got) == adom_oracle.closed_subset_count(x.relations, cfg)
    assert len({c.relations for c in got}) == len(got)
    for c in got:
        assert c.relations <= x.relations
        assert _triples(c.relations) == adom_oracle.oracle(c.relations, cfg), c


def _all_a_tuple(k, **bounds):
    """One all-``a`` tuple of arity ``k``, with ``k_max = k`` over ``{a}``."""
    cfg = UniverseConfig(domain=frozenset({"a"}), k_max=k, **bounds)
    return instance(make_relation(k, {("a",) * k})), cfg


@pytest.mark.parametrize(
    "k, bounds",
    # An operational saturation tries sum(k**m for m in 1..k) projections of
    # the tuple: 19,173,960 at k=8, and 55,986 at k=6, one over this bound.
    [(8, {}), (6, {"max_enumeration": 55985})],
)
def test_witness_queries_try_no_projections(k, bounds):
    inst, cfg = _all_a_tuple(k, **bounds)
    started = time.perf_counter()
    witness = generating_queries(inst, cfg)
    assert time.perf_counter() - started < 1.0
    assert witness.keys() == power_view(inst, cfg).relations
    assert len(witness) == k + 1  # the bottom and k arities
    for rel, query in witness.items():
        assert evaluate(query, with_default_labels(inst)) == rel, (rel, query)


def test_witness_saturation_below_the_projection_bound():
    inst, cfg = _all_a_tuple(6, max_enumeration=55986)
    assert len(generating_queries(inst, cfg)) == 7  # the bottom and six arities


def test_intersection_of_closed_is_closed(cfg0):
    closed = closed_subsets(total_object(cfg0), cfg0)
    for x, y in itertools.product(closed, repeat=2):
        assert is_closed(Instance(x.relations & y.relations, {}), cfg0)


def test_meet_closed_is_the_interned_intersection(flux_pairs):
    meets = {}
    for x, y, cfg in flux_pairs:
        meet = meet_closed(x, y)
        assert meet.relations == x.relations & y.relations, (x, y)
        # One object per closed set: equal meets, and the closure of the
        # meet's relations, are that object.
        assert meets.setdefault(meet.relations, meet) is meet, (x, y)
        assert power_view(Instance(meet.relations, {}), cfg) is meet, (x, y)
    assert len(meets) > 8


def test_masks_are_the_flux_algebra(flux_pairs, clear_caches):
    for x, y, cfg in flux_pairs:
        assert x.mask & y.mask == meet_closed(x, y).mask, (x, y)
        assert (x.mask == y.mask) == (x.relations == y.relations), (x, y)
        assert (x.mask & ~y.mask == 0) == (x.relations <= y.relations), (x, y)
    masks = {x.relations: (x, x.mask, cfg) for x, _, cfg in flux_pairs}
    clear_caches()
    for relations, (x, mask, cfg) in masks.items():
        for rebuilt in (power_view(Instance(relations, {}), cfg), meet_closed(x, x)):
            assert rebuilt is not x and rebuilt.mask == mask, x


def test_a_mask_has_one_bit_per_support_row_and_the_bottom(flux_pairs):
    # A support row is a one-row view; at k=2 most of them are not atoms.
    closed = {x for x, _, _ in flux_pairs}
    for x in closed:
        rows = sum(len(view.tuples) == 1 for view in x.relations)
        assert x.mask & 1 and x.mask.bit_count() == 1 + rows, x
    # 519 views: the bottom, 3 unary and 9 binary rows.
    assert total_object(ABC2).mask.bit_count() == 13
    # The pairs hold the set closed under caps 1 and 2, whose row (a,a) is an atom at cap 1 only.
    a, aa = make_relation(1, {("a",)}), make_relation(2, {("a", "a")})
    assert {BOTTOM, a, aa} in [x.relations for x in closed]


def test_order_and_equivalence_match_the_oracle_at_k2():
    # The first 40 of the 520 one-relation instances at {a,b,c} k=2 in
    # canonical order (each of the 8 closures), then every 13th, against
    # inclusion and equality of the oracle's view sets, each of the 8
    # compared once and numbered.
    instances = list(subset_instances(ABC2, 1))
    sample = instances[:40] + instances[40::13]
    views = {a: adom_oracle.oracle(a.relations, ABC2) for a in sample}
    closures = {x: i for i, x in enumerate(dict.fromkeys(views.values()))}
    assert len(closures) == 8
    leq = [[x <= y for y in closures] for x in closures]
    number = {a: closures[views[a]] for a in sample}
    for a, b in itertools.product(sample, repeat=2):
        assert po_leq(a, b, ABC2) == leq[number[a]][number[b]], (a, b)
        assert isomorphic(a, b, ABC2) == (number[a] == number[b]), (a, b)


def test_closed_subsets_hold_the_inputs_relations(closed_subset_inputs, clear_caches):
    # Cold, the enumeration keeps the input's own relation objects, one per relation.
    for x, cfg in closed_subset_inputs:
        clear_caches()
        own = {id(r) for r in x.relations}
        for c in closed_subsets(x, cfg):
            assert all(id(r) in own for r in c.relations), (x, c)


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


# The closed-form oracle (tests/adom_oracle.py) against the kernel and
# against the reference saturation.


def _triples(relations):
    """Relations in the oracle's form: ``(arity, tuples, tag)`` triples."""
    return {(r.arity, r.tuples, r.tag) for r in relations}


def _relations(triples):
    """The oracle's ``(arity, tuples, tag)`` triples as relations."""
    return [Relation(*t) for t in triples if t[1]]


def test_closure_matches_closed_form_oracle(differential_closures):
    # every instance at {a,b} k=2 with up to two relations and at {a,b,c}
    # k=1, the binary chain and the tagged coproducts
    for inst, cfg, views, _ in differential_closures:
        assert _triples(views) == adom_oracle.oracle(inst.relations, cfg), inst


@pytest.mark.parametrize(
    "cfg, count",
    [(UniverseConfig(domain=frozenset({"a", "b"}), k_max=1), 16), (ABC2, 520)],
    ids=["ab-k1", "abc-k2"],
)
def test_power_view_matches_closed_form_oracle(cfg, count):
    # every instance of the universe (k=1), every one-relation instance (k=2)
    instances = list(subset_instances(cfg, 4 if cfg.k_max == 1 else 1))
    assert len(instances) == count
    for inst in instances:
        assert _triples(power_view(inst, cfg).relations) == adom_oracle.oracle(inst.relations, cfg), inst


def _tagged(rel, *tag):
    return Relation(rel.arity, rel.tuples, tag)


#: Relations above the arity cap and inputs mixing tagged and untagged
#: relations, with the configuration each is closed at.
_R3 = make_relation(3, {("a", "b", "a"), ("b", "b", "a")})
_S3 = make_relation(3, {("b", "b", "b")})
_P2 = make_relation(2, {("a", "b")})
_Q1 = make_relation(1, {("c",)})
AB2 = UniverseConfig(domain=frozenset({"a", "b"}), k_max=2)
MIXED_INPUTS = [
    ((_R3,), AB2),
    ((_R3, _S3), AB2),
    ((_R3, make_relation(1, {("b",)})), AB2),
    ((_P2,), ABC1),
    ((_P2, _R3, _Q1), ABC1),
    ((_tagged(_R3, "l"), _S3), AB2),
    ((_tagged(_R3, "l"), _tagged(_S3, "r"), _P2), AB2),
    ((_tagged(_P2, "l"), _tagged(_Q1, "r"), _S3), ABC1),
    ((_tagged(_Q1, "l"), _P2, _R3), ABC1),
    ((_tagged(_Q1, "l"), _tagged(_P2, "l", "r"), make_relation(1, {("a",)})), ABC2),
]


@pytest.mark.parametrize("relations, cfg", MIXED_INPUTS)
def test_closed_form_oracle_above_cap_and_mixed(relations, cfg):
    inst = with_default_labels(instance(*relations))
    expected = adom_oracle.oracle(inst.relations, cfg)
    assert _triples(frozen_closure._saturate(inst.relations, cfg)) == expected
    closed = power_view(inst, cfg)
    assert _triples(closed.relations) == expected
    assert closed.views == _canonical(closed)
    _assert_closure_of(inst, closed.relations, generating_queries(inst, cfg), cfg)


def test_reference_saturation_matches_closed_form_oracle(cfg2):
    # A seeded sample of the {a,b} k=2 instances: the frozen worklist combines
    # every pair of views each round, seconds on a 519-view closure at {a,b,c}.
    for inst in random.Random(7).sample(list(subset_instances(cfg2, 2)), 8):
        expected = adom_oracle.oracle(inst.relations, cfg2)
        assert _triples(frozen_closure._saturate(inst.relations, cfg2)) == expected, inst


def _drop_candidates(kind, apply_unary=frozen_closure._apply_unary):
    """A mutant of the frozen unary step: it drops the candidates whose query is a ``kind``."""
    def mutant(rel, cfg):
        return ((r, b) for r, b in apply_unary(rel, cfg) if not isinstance(b(Base("x")), kind))

    return mutant


def _drop_records(build, record=frozen_closure._record):
    """A mutant of the frozen record: it drops the views derived by ``build``."""
    def mutant(views, rel, how, cfg):
        if not how or how[0] is not build:
            record(views, rel, how, cfg)

    return mutant


@pytest.mark.parametrize(
    "name, mutant",
    [
        ("_apply_unary", _drop_candidates(Select)),
        ("_apply_unary", _drop_candidates(Project)),
        ("_record", _drop_records(UnionTerm)),
        ("_record", _drop_records(Join)),
    ],
    ids=["select", "project", "union", "join"],
)
def test_closed_form_oracle_catches_saturation_mutants(cfg2, monkeypatch, name, mutant):
    instances = list(subset_instances(cfg2, 1))
    monkeypatch.setattr(frozen_closure, name, mutant)
    assert any(
        _triples(frozen_closure._saturate_record(inst.relations, cfg2))
        != adom_oracle.oracle(inst.relations, cfg2)
        for inst in instances
    )


# --- canonical order -----------------------------------------------------------


def _canonical(closed):
    return tuple(sorted_relations(closed.relations))


@pytest.mark.parametrize("n", range(10))
def test_lex_subsets_are_the_sorted_combinations(n):
    rows = [(c, c) for c in "abcdefghi"[:n]]
    combinations = (c for k in range(1, n + 1) for c in itertools.combinations(rows, k))
    assert closure_module.lex_subsets(rows) == sorted(combinations)


#: Relations of arity 1 to 3, some above the cap of the configuration drawn
#: with them, untagged or carrying a coproduct tag.
_ORDER_INPUTS = st.sampled_from([AB2, ABC1]).flatmap(
    lambda cfg: st.tuples(
        st.lists(
            st.tuples(
                st.integers(1, 3).flatmap(
                    lambda n: st.frozensets(
                        st.tuples(*[st.sampled_from(sorted(cfg.domain))] * n),
                        min_size=1, max_size=4,
                    )
                ),
                st.sampled_from([(), ("L",), ("R",), ("L", "R")]),
            ).map(lambda drawn: Relation(len(next(iter(drawn[0]))), *drawn)),
            min_size=1, max_size=3, unique=True,
        ),
        st.just(cfg),
    )
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_ORDER_INPUTS)
def test_closed_form_yields_the_canonical_order(drawn):
    relations, cfg = drawn
    for inst in (instance(*relations), coproduct(instance(*relations[:1]), instance(*relations))):
        closed = power_view(inst, cfg)
        assert closed.views == _canonical(closed), inst
        assert len(closed.views) == len(closed.relations) and set(closed.views) == closed.relations


def test_a_closure_takes_its_views_from_the_closed_form(clear_caches, monkeypatch):
    keys = []
    monkeypatch.setattr(Relation, "sort_key", lambda r, key=Relation.sort_key: keys.append(r) or key(r))
    closed = power_view(CHAIN, ABC2)
    views = closed.views
    assert keys == []  # built in canonical order: no relation is sorted
    monkeypatch.undo()
    assert len(views) == 519 and views == _canonical(closed)
    # The very objects of the interned set, so that printing reads them.
    assert {id(r) for r in closed.views} == {id(r) for r in closed.relations}


def test_closed_sets_sort_without_sorting_a_view(clear_caches, monkeypatch):
    # A closed set's key is read off its support rows, so neither
    # ``closed_subsets`` nor ``closure_classes`` calls ``Relation.sort_key``.
    total, instances = total_object(ABC2), list(subset_instances(ABC2, 1))
    keys = []
    monkeypatch.setattr(Relation, "sort_key", lambda r, key=Relation.sort_key: keys.append(r) or key(r))
    subsets = closed_subsets(total, ABC2)
    classes = closure_classes(ABC2, 1, instances)
    assert keys == [] and len(subsets) == 8 and len(classes) == 8
    monkeypatch.undo()
    assert [power_view(c, ABC2) for c in classes] == list(subsets)


def test_a_closed_sets_key_is_its_views_keys(flux_pairs):
    for x in {id(x): x for x, _, _ in flux_pairs}.values():
        assert x.sort_key() == tuple(r.sort_key() for r in x.views), x


def test_a_closure_interned_before_reads_its_own_relations(clear_caches):
    # The meet is built first, with its views in canonical order and the
    # operands' relation objects; the closure of its relations is that object.
    ab, bc = (power_view(instance(make_relation(1, rows)), ABC1) for rows in ("ab", "bc"))
    meet = meet_closed(ab, bc)
    assert meet.views == _canonical(meet)
    assert {id(r) for r in meet.views} <= {id(r) for x in (ab, bc) for r in x.relations}
    closed = power_view(Instance(meet.relations, {}), ABC1)
    assert closed is meet


def test_a_cold_meet_keeps_the_first_operands_views(clear_caches, monkeypatch):
    # The meet is the AND of the masks; built on a miss from the views of the
    # first operand that the second holds, so it constructs no relation.
    ab, bc = (power_view(instance(make_relation(2, {tuple(pair)})), ABC2) for pair in ("ab", "bc"))
    built = []
    init = Relation.__post_init__
    monkeypatch.setattr(Relation, "__post_init__", lambda r: built.append(r) or init(r))
    meet = meet_closed(ab, bc)
    monkeypatch.undo()
    assert built == [] and meet.mask == ab.mask & bc.mask
    assert len(meet.views) == 3 and meet.views == _canonical(meet)  # bot, {(b)}/1, {(b b)}/2
    assert {id(r) for r in meet.views} <= {id(r) for r in ab.views}
    assert power_view(Instance(meet.relations, {}), ABC2) is meet


def _closed_sets_of_every_path(cfg0, pa, pab):
    """A closed set built by each constructor: closure, meet, certified fixed
    point, closed subsets, tagged flux, zero and total objects."""
    left, right = power_view(pa, cfg0), power_view(pab, cfg0)
    return [
        power_view(CHAIN, ABC2),
        meet_closed(right, power_view(Instance({make_relation(1, {("b",)})}, {}), cfg0)),
        certify_closed(Instance(right.relations, {}), cfg0),
        *closed_subsets(right, cfg0),
        tagged_flux(left.relations, right.relations, cfg0),
        zero_object(),
        total_object(ABC1),
    ]


def test_every_closed_set_iterates_in_canonical_order(cfg0, pa, pab, clear_caches):
    for closed in _closed_sets_of_every_path(cfg0, pa, pab):
        assert closed.views == _canonical(closed) == tuple(closed), closed


def test_every_closed_set_has_one_attribute_layout(cfg0, pa, pab, clear_caches):
    # One layout whichever path built it: closed sets whose attributes differ
    # slow every law that reads them.  A closed set is built with its views,
    # a plain ClosedInstance whose reads the interpreter specializes.
    built = _closed_sets_of_every_path(cfg0, pa, pab)
    assert {type(c) for c in built} == {ClosedInstance}
    assert {tuple(vars(c)) for c in built} == {("relations", "labels", "mask", "support", "views")}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="names CPython 3.11's specialized opcodes")
def test_a_warm_meet_reads_closed_sets_from_their_inline_values(clear_caches):
    # The laws read the views of every closed set they build.  A closed set
    # with a dict of its own (``LOAD_ATTR_WITH_HINT``) would slow every read
    # of it; one built whole keeps its attributes inline.
    closed = [power_view(c, ABC1) for c in closure_classes(ABC1, 2)]
    for c in closed:
        c.views, c.relations
    for _ in range(3):  # enough calls for the interpreter to specialize
        for a, b in itertools.product(closed, repeat=2):
            meet_closed(a, b)
    code = dis.get_instructions(meet_closed, adaptive=True)
    reads = [i.opname for i in code if i.opname.startswith("LOAD_ATTR") and i.argval == "mask"]
    assert reads == ["LOAD_ATTR_INSTANCE_VALUE"] * 2
