import itertools

import pytest

from viewflux import (
    UniverseConfig,
    coproduct,
    instance,
    make_relation,
    subset_instances,
    with_default_labels,
)
from viewflux import catops, closure, morphisms


@pytest.fixture(scope="session")
def cfg0():
    return UniverseConfig(domain=frozenset({"a", "b"}), k_max=1)


@pytest.fixture(scope="session")
def cfg_single():
    return UniverseConfig(domain=frozenset({"a"}), k_max=1)


@pytest.fixture(scope="session")
def cfg2():
    return UniverseConfig(domain=frozenset({"a", "b"}), k_max=2)


@pytest.fixture(scope="session")
def ra():
    return make_relation(1, {("a",)})


@pytest.fixture(scope="session")
def rb():
    return make_relation(1, {("b",)})


@pytest.fixture(scope="session")
def rab():
    return make_relation(1, {("a",), ("b",)})


@pytest.fixture(scope="session")
def pa(ra):
    return with_default_labels(instance(ra))


@pytest.fixture(scope="session")
def pb(rb):
    return with_default_labels(instance(rb))


@pytest.fixture(scope="session")
def pab(ra, rb):
    return with_default_labels(instance(ra, rb))


@pytest.fixture(scope="session")
def all_instances(cfg0):
    from viewflux import subset_instances

    return list(subset_instances(cfg0, 4))


@pytest.fixture(scope="session")
def coproduct_inputs(cfg2):
    """(instance, cfg) for the tagged coproducts of every ordered pair drawn
    from a spread of small instances (one or two relations, every 24th in
    canonical order at {a,b} k=2, every 4th at {a,b,c} k=1)."""
    abc1 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=1)
    inputs = []
    for cfg, step in ((cfg2, 24), (abc1, 4)):
        small = list(subset_instances(cfg, 2))[2::step]
        inputs += [(coproduct(x, y), cfg) for x, y in itertools.product(small, repeat=2)]
    return inputs


@pytest.fixture(scope="session")
def flux_pairs(coproduct_inputs, cfg0, cfg2):
    """(x, y, cfg) for every ordered pair of closed sets at one configuration:
    the closed subsets of the total objects at {a,b,c} k=1, and at {a,b} and
    {a,b,c} k=2, where most support rows are not atoms; those of the closure
    of {(a,a),(a,b)}/2 at {a,b} k=1, among them the set closed under caps 1
    and 2 (the bottom, {(a)}/1 and {(a,a)}/2); and the distinct closures of
    ``coproduct_inputs`` (tagged fluxes) at each configuration."""
    abc1 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=1)
    abc2 = UniverseConfig(domain=frozenset({"a", "b", "c"}), k_max=2)
    groups = [
        (cfg, closure.closed_subsets(closure.total_object(cfg), cfg)) for cfg in (abc1, cfg2, abc2)
    ]
    two_rows = closure.power_view(instance(make_relation(2, {("a", "a"), ("a", "b")})), cfg0)
    groups.append((cfg0, closure.closed_subsets(two_rows, cfg0)))
    for cfg in dict.fromkeys(cfg for _, cfg in coproduct_inputs):
        tagged = {closure.power_view(inst, cfg) for inst, c in coproduct_inputs if c == cfg}
        groups.append((cfg, sorted(tagged, key=repr)))
    return [(x, y, cfg) for cfg, closed in groups for x, y in itertools.product(closed, repeat=2)]


@pytest.fixture
def clear_caches():
    """A function that empties every cache holding closed sets, and the
    arrow tables that hold them, all at once, so that closed sets are built
    (and interned) again; called once on entry.  Emptying ``_closed`` drops
    the relation universe too, which ``universe_relations`` reads off the
    total object."""

    def clear():
        morphisms.clear_arrows()
        closure._closed.clear()
        for cache in (
            closure._power_view_cached,
            closure._matching_cached,
            closure._closed_subsets_cached,
            catops._merging_cached,
            catops.tagged_flux,
        ):
            cache.cache_clear()

    clear()
    return clear
