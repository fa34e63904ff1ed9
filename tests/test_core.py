import dataclasses
import itertools

import pytest

from viewflux import (
    ArityMismatch,
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    UniverseTooLarge,
    UnknownConstant,
    ZERO,
    instance,
    instance_union,
    make_relation,
    subset_instances,
    universe_relations,
    with_default_labels,
)


def test_make_relation_direct(ra):
    assert make_relation(1, {("a",)}) == ra
    assert make_relation(1, [("a",), ("b",)]).tuples == frozenset({("a",), ("b",)})


def test_empty_extension_is_the_bottom():
    assert make_relation(2, set()) is BOTTOM
    assert make_relation(5, []) is BOTTOM


def test_bottom_is_arity_erased():
    # one empty relation regardless of the declared arity
    for m, n in itertools.product(range(5), repeat=2):
        assert make_relation(m, set()) == make_relation(n, set())


def test_nullary_relations_do_not_exist():
    with pytest.raises(ArityMismatch):
        make_relation(0, {()})


def test_make_relation_errors():
    with pytest.raises(ArityMismatch):
        make_relation(2, {("a",)})
    with pytest.raises(UnknownConstant):
        make_relation(1, {("c",)}, domain=frozenset({"a", "b"}))


def test_relations_built_apart_hash_equal_to_their_fields(cfg2):
    rows = [("a", "b"), ("b", "a")]
    for tag in ((), ("L",), ("R", "L")):
        one, two = Relation(2, frozenset(rows), tag), Relation(2, frozenset(reversed(rows)), tag)
        assert one is not two and one == two
        assert hash(one) == hash(two) == hash((2, frozenset(rows), tag))
    for rel in universe_relations(cfg2):
        assert hash(rel) == hash((rel.arity, rel.tuples, rel.tag))
        twin = make_relation(rel.arity, list(rel.tuples))
        assert twin == rel and hash(twin) == hash(rel)


def test_instance_equality_ignores_labels(ra):
    bare = instance(ra)
    labeled = with_default_labels(bare)
    assert bare == labeled
    assert hash(bare) == hash(labeled)
    assert labeled.labels == {"r1": ra}


def test_instance_union_basic(ra, rb):
    merged = instance_union(instance(ra), instance(rb))
    assert merged.relations == frozenset({ra, rb})


def test_instance_union_idempotent(ra):
    a = instance(ra)
    assert instance_union(a, a) == a


def test_instance_union_adds_bottom(ra):
    merged = instance_union(instance(ra), ZERO)
    assert merged.relations == frozenset({ra, BOTTOM})


def test_instance_union_label_collision(ra, rb):
    a = Instance(frozenset({ra}), {"r": ra})
    b = Instance(frozenset({rb}), {"r": rb})
    merged = instance_union(a, b)
    assert merged.labels == {"left_r": ra, "right_r": rb}


def test_instance_union_laws_exhaustive(cfg0, all_instances):
    # associative, commutative, idempotent on relation sets
    for a, b in itertools.product(all_instances, repeat=2):
        assert instance_union(a, b) == instance_union(b, a)
        assert instance_union(a, a) == a
    for a, b, c in itertools.product(all_instances[:8], repeat=3):
        left = instance_union(instance_union(a, b), c)
        right = instance_union(a, instance_union(b, c))
        assert left == right


def _oracle_universe(domain, k_max):
    """Independent enumeration: subsets of the tuple space per arity."""
    out = {BOTTOM}
    for n in range(1, k_max + 1):
        tuples = list(itertools.product(sorted(domain), repeat=n))
        for k in range(1, len(tuples) + 1):
            for combo in itertools.combinations(tuples, k):
                out.add(make_relation(n, combo))
    return out


def test_universe_cfg0(cfg0, ra, rb, rab):
    got = universe_relations(cfg0)
    assert set(got) == {BOTTOM, ra, rb, rab}
    assert set(got) == _oracle_universe(cfg0.domain, 1)


def test_universe_singleton(cfg_single, ra):
    got = universe_relations(cfg_single)
    assert set(got) == {BOTTOM, ra}


def test_universe_k2_count(cfg2):
    # 3 nonempty unary + 15 nonempty binary + the shared bottom
    got = universe_relations(cfg2)
    assert len(got) == 19
    assert set(got) == _oracle_universe(cfg2.domain, 2)


def test_universe_deterministic(cfg0):
    assert universe_relations(cfg0) == universe_relations(cfg0)


def test_universe_too_large():
    cfg = UniverseConfig(domain=frozenset({"a", "b"}), k_max=2, max_universe=10)
    with pytest.raises(UniverseTooLarge):
        universe_relations(cfg)


def test_universe_is_enumerated_once_per_configuration(cfg0):
    equal = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1)
    assert universe_relations(cfg0) is universe_relations(cfg0) is universe_relations(equal)
    over = UniverseConfig(domain=frozenset({"a", "b"}), k_max=2, max_universe=10)
    for _ in range(2):
        with pytest.raises(UniverseTooLarge):
            universe_relations(over)


def test_universe_closed_under_operators(cfg0, cfg2):
    from viewflux import evaluate
    from viewflux.queries import Base, ColEqCol, ColEqConst, Join, Project, Select, UnionTerm

    for cfg in (cfg0, cfg2):
        rels = universe_relations(cfg)
        labeled = with_default_labels(Instance(frozenset(rels), {}))
        names = sorted(labeled.labels)
        members = set(rels)
        arity = {n: labeled.labels[n].arity for n in names}
        for n in names:
            if labeled.labels[n].is_bottom:
                continue
            for i in range(1, arity[n] + 1):
                for c in sorted(cfg.domain):
                    assert evaluate(Select(ColEqConst(i, c), Base(n)), labeled) in members
                for j in range(i + 1, arity[n] + 1):
                    assert evaluate(Select(ColEqCol(i, j), Base(n)), labeled) in members
                assert evaluate(Project((i,), Base(n)), labeled) in members
        for n, m in itertools.product(names, repeat=2):
            if labeled.labels[n].is_bottom or labeled.labels[m].is_bottom:
                continue
            if arity[n] == arity[m]:
                assert evaluate(UnionTerm(Base(n), Base(m)), labeled) in members
            if arity[n] + arity[m] <= cfg.k_max:
                assert evaluate(Join(Base(n), Base(m)), labeled) in members


def test_subset_instance_counts(cfg0, cfg_single):
    assert len(list(subset_instances(cfg0, 1))) == 5
    assert len(list(subset_instances(cfg0, 4))) == 16
    assert len(list(subset_instances(cfg_single, 2))) == 4


def test_subset_instances_labeled(cfg0):
    for inst in subset_instances(cfg0, 2):
        assert len(inst.labels) == len(inst.relations)


def test_config_validation():
    with pytest.raises(UnknownConstant):
        UniverseConfig(domain=frozenset(), k_max=1)
    with pytest.raises(UnknownConstant):
        UniverseConfig(domain=frozenset({"bot"}), k_max=1)
    with pytest.raises(UnknownConstant):
        UniverseConfig(domain=frozenset({"not an identifier"}), k_max=1)
    with pytest.raises(ArityMismatch):
        UniverseConfig(domain=frozenset({"a"}), k_max=0)


def test_equal_configs_hash_equal():
    cfg = UniverseConfig(domain=frozenset({"a", "b"}), k_max=2)
    equal = [
        UniverseConfig(domain={"b", "a"}, k_max=2),
        dataclasses.replace(UniverseConfig(domain=frozenset({"a"})), domain=frozenset("ab"), k_max=2),
    ]
    for other in equal:
        assert other == cfg and hash(other) == hash(cfg)
        assert repr(other) == repr(cfg)
    assert hash(cfg) == hash(dataclasses.astuple(cfg))
    assert UniverseConfig(domain=frozenset({"a", "b"}), k_max=1) != cfg


def test_labels_must_reference_members(ra, rb):
    from viewflux import ViewfluxError

    with pytest.raises(ViewfluxError):
        Instance(frozenset({ra}), {"x": rb})
