import functools
import itertools
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import count_oracle
import pytest

from viewflux import (
    EnumerationTooLarge,
    Instance,
    UniverseConfig,
    UnknownSuite,
    closed_subsets,
    compose,
    equiv,
    merging,
    power_view,
    principal_morphism,
    render_report,
    run_suite,
    semantic_arrow,
    semantic_arrows,
    semantic_homset,
    subset_instances,
)
from viewflux import catops, closure, morphisms, suites, topos
from viewflux.closure import meet_closed, zero_object
from viewflux.core import witness
from viewflux.errors import ViewfluxError
from viewflux.suites import SUITE_NAMES, SUITES, Flag, SuiteContext, _law, _laws
from viewflux.topos import closure_classes

GOLDEN_DEFAULT = Path(__file__).parent / "golden" / "check-all-default.txt"
GOLDEN_K2 = Path(__file__).parent / "golden" / "check-all-k2.txt"
GOLDEN_ABC = Path(__file__).parents[1] / "bench" / "golden" / "check-abc.txt"
GOLDEN_ABCD = Path(__file__).parent / "golden" / "check-all-abcd.txt"


def test_enumeration_counts(cfg0, cfg_single):
    assert len(list(subset_instances(cfg0, 1))) == 5
    assert len(list(subset_instances(cfg0, 4))) == 16
    assert len(list(subset_instances(cfg_single, 2))) == 4


def test_enumeration_order_deterministic(cfg0):
    a = [i.relations for i in subset_instances(cfg0, 4)]
    b = [i.relations for i in subset_instances(cfg0, 4)]
    assert a == b
    sizes = [len(r) for r in a]
    assert sizes == sorted(sizes)


def test_enumeration_bound():
    cfg = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1, max_enumeration=10)
    with pytest.raises(EnumerationTooLarge):
        list(subset_instances(cfg, 4))


def test_unknown_suite(cfg0):
    with pytest.raises(UnknownSuite):
        run_suite("nonsense", cfg0)


def test_each_suite_passes(cfg0):
    for name in SUITES:
        report = run_suite(name, cfg0)
        assert report.ok, render_report(report)


def test_closure_suite_shape(cfg0):
    report = run_suite("closure", cfg0)
    by_id = {law.law: law for law in report.laws}
    assert by_id["closure.extensive"].checked == 16
    assert by_id["closure.idempotent"].checked == 16
    assert all(law.status == "PASS" for law in report.laws)


def test_topos_suite_has_flagged_audit(cfg0):
    report = run_suite("topos", cfg0)
    assert report.ok
    audit = [law for law in report.laws if law.law == "topos.classifier-audit"]
    assert len(audit) == 1
    assert audit[0].status == "FLAGGED"
    assert audit[0].flagged


def test_all_suite_law_count(cfg0):
    report = run_suite("all", cfg0)
    assert report.ok
    assert len(report.laws) >= 25


def test_report_determinism(cfg0):
    first = render_report(run_suite("lattice", cfg0))
    second = render_report(run_suite("lattice", cfg0))
    assert first == second


def test_report_mentions_status_and_counts(cfg0):
    text = render_report(run_suite("negative", cfg0))
    assert "negative.pullback-epi" in text
    assert "result: PASS" in text
    for line in text.splitlines()[2:-1]:
        assert line.startswith(("PASS", "FAIL", "FLAGGED"))
        assert "checked=" in line


def test_suite_instance_cap(cfg0, monkeypatch):
    # Both bounds refuse before any instance is built.
    built = []
    post_init = Instance.__post_init__
    monkeypatch.setattr(
        Instance, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    # 16 instances at {a,b} with up to four relations walk 16**3 = 4096 triples.
    with pytest.raises(EnumerationTooLarge, match="16 instances enumerated; .* 4096 triples, "
                       "over the enumeration bound 4095"):
        run_suite("closure", replace(cfg0, max_enumeration=4095), max_relations=4)
    abc2 = UniverseConfig(domain=frozenset("abc"), k_max=2)
    # 1 + 519 + C(519, 2) instances: under the enumeration bound, their triples over it
    with pytest.raises(EnumerationTooLarge, match="134941 instances enumerated"):
        SuiteContext(abc2, 2)
    # over both: the bound on the instances is checked first
    with pytest.raises(EnumerationTooLarge, match="23300160 instances requested, bound is 200000"):
        SuiteContext(abc2, 3)
    assert built == []
    assert len(SuiteContext(replace(cfg0, max_enumeration=4096), 4).instances) == 16


def test_suite_names_cover_registry():
    assert set(SUITE_NAMES) == set(SUITES) | {"all"}


def test_default_report_matches_golden(cfg0):
    # The golden file is the output of `viewflux check all` at the default
    # configuration ({a,b}, k=1, max-relations 4).
    assert render_report(run_suite("all", cfg0, 4)) == GOLDEN_DEFAULT.read_text()


def test_k2_report_matches_golden(cfg2):
    # The golden file is the output of `viewflux check all --kmax 2
    # --max-relations 1`: binary relations and tagged coproducts of them.
    assert render_report(run_suite("all", cfg2, 1)) == GOLDEN_K2.read_text()


def test_abc_report_matches_the_benchmark_golden():
    # The benchmark's correctness check compares `viewflux check all --domain
    # a,b,c --max-relations 2` with this file; it is read, never written.
    cfg = UniverseConfig(domain=frozenset("abc"), k_max=1)
    assert render_report(run_suite("all", cfg, 2)) == GOLDEN_ABC.read_text()


def test_stretch_report_matches_golden():
    # The golden file is the output of `viewflux check all --domain a,b,c,d
    # --max-relations 1`, the four-constant stretch configuration (3,785,506
    # checks).  The five-constant report is compared by tests/check_stretch.py.
    cfg = UniverseConfig(domain=frozenset("abcd"), k_max=1)
    assert render_report(run_suite("all", cfg, 1)) == GOLDEN_ABCD.read_text()


@functools.cache
def _law_counts(n):
    """Each law's ``checked=`` count at max-relations 1 over ``n`` constants."""
    report = run_suite("all", UniverseConfig(domain=frozenset("abc"[:n]), k_max=1), 1)
    assert report.ok
    return {law.law: law.checked for law in report.laws}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_arrow_law_counts_match_the_count_oracle(n):
    # Every law's count, the arrow laws' and all others'.
    expected = count_oracle.counted(n)
    assert expected == {law: form(n) for law, form in count_oracle.CLOSED_FORMS.items()}
    assert _law_counts(n) == expected


@pytest.mark.parametrize("n", [1, 2])
def test_power_law_counts_grow_by_their_factor_per_constant(n):
    # A metamorphic relation: one more constant multiplies each such count by c.
    assert len(count_oracle.POWERS) == 33
    for law, c in count_oracle.POWERS.items():
        assert _law_counts(n + 1)[law] == c * _law_counts(n)[law], law


def test_timings_add_elapsed_to_every_law_line(cfg0):
    text = render_report(run_suite("all", cfg0, 4), timings=True)
    law_lines = text.splitlines()[2:-2]
    assert len(law_lines) == 60
    assert all(" elapsed=" in line and line.endswith("s") for line in law_lines)
    stripped = [line.rsplit(" elapsed=", 1)[0] for line in text.splitlines()[:-1]]
    assert "\n".join(stripped) + "\n" == GOLDEN_DEFAULT.read_text()


def _golden_checked(law: str) -> int:
    """The ``checked=`` count of one law in the default golden report."""
    for line in GOLDEN_DEFAULT.read_text().splitlines():
        if line.split()[1:2] == [law]:
            return int(line.split("checked=")[1].split()[0])
    raise KeyError(law)


def test_context_builds_arrows_lazily_once(cfg0, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return semantic_arrows(*args)

    monkeypatch.setattr(suites, "semantic_arrows", counting)
    ctx = SuiteContext(cfg0, 4)
    assert calls == []
    a = b = ctx.classes[-1]
    arrows = ctx.arrows(a, b)
    assert isinstance(arrows, tuple) and len(calls) == 1 and len(arrows) > 1
    assert ctx.arrows(a, b) is arrows
    assert len(calls) == 1
    # One arrow per flux of the hom-set, carrying the interned flux itself.
    homset = semantic_homset(a, b, cfg0)
    assert len(arrows) == len(homset) and all(f.flux is h for f, h in zip(arrows, homset))


def _views_of_source_compose(g, f):
    """A mutant composition: g's flux cut down to the views of f's source."""
    return semantic_arrow(
        f.source, g.target, meet_closed(g.flux, power_view(f.source, f.cfg)), f.cfg
    )


def _principal_merge_arrow(a, f):
    """A mutant merge: the largest arrow between the merged endpoints."""
    src = Instance(merging(a, f.source, f.cfg).relations, {})
    tgt = Instance(merging(a, f.target, f.cfg).relations, {})
    return principal_morphism(src, tgt, f.cfg)


def test_associativity_law_catches_non_associative_compose(cfg0, monkeypatch):
    mutant = _views_of_source_compose
    classes = closure_classes(cfg0, 4)
    assert any(
        not equiv(mutant(h, mutant(g, f)), mutant(mutant(h, g), f))
        for a, b, c, d in itertools.product(classes, repeat=4)
        for f in semantic_arrows(a, b, cfg0)
        for g in semantic_arrows(b, c, cfg0)
        for h in semantic_arrows(c, d, cfg0)
    )
    monkeypatch.setattr(suites, "compose", mutant)
    result = suites.law_associativity(SuiteContext(cfg0, 4))
    assert result.status == "FAIL"
    assert result.checked == _golden_checked("category.associativity")
    # Witnesses print fluxes as instances, whose relations print sorted.
    assert not any("frozenset(" in w for w in result.failures)


def _recording(fn, log: list, key=lambda *args: args):
    """``fn`` that first appends ``key(*args)`` of each call to ``log``."""

    def recorded(*args):
        log.append(key(*args))
        return fn(*args)

    return recorded


def test_associativity_law_composes_each_later_pair_once(cfg0, monkeypatch):
    calls, misses = [], []
    monkeypatch.setattr(suites, "compose", _recording(compose, calls))
    # compose meets the two fluxes only on a table miss.
    monkeypatch.setattr(morphisms, "meet_closed", _recording(meet_closed, misses))
    ctx = SuiteContext(cfg0, 4)
    result = suites.law_associativity(ctx)
    # (f, g) pairs over three classes: the flux-composition count.
    pairs = sum(
        len(ctx.arrows(a, b)) * len(ctx.arrows(b, c))
        for a, b, c in itertools.product(ctx.classes, repeat=3)
    )
    assert result.checked == _golden_checked("category.associativity")
    # Three composites per check, and g.f once per (f, g) and fourth class d;
    # yet no (g, f) pair is composed twice within the pass.
    assert len(calls) == 3 * result.checked + len(ctx.classes) * pairs
    assert len(misses) == len(set(calls)) < len(calls)


def test_merge_functor_law_composes_each_pair_once(cfg0, monkeypatch):
    composed, compose_misses, merged, merge_misses = [], [], [], []
    monkeypatch.setattr(suites, "compose", _recording(compose, composed))
    monkeypatch.setattr(morphisms, "meet_closed", _recording(meet_closed, compose_misses))
    by_key = _recording(catops.merge_arrow, merged, key=lambda a, f: (a.relations, f))
    monkeypatch.setattr(suites, "merge_arrow", by_key)
    # merge_arrow builds its arrow only on a table miss.
    monkeypatch.setattr(catops, "semantic_arrow", _recording(semantic_arrow, merge_misses))
    ctx = SuiteContext(cfg0, 4)
    result = suites.law_merge_functor(ctx)
    n = len(ctx.classes)
    pairs = sum(
        len(ctx.arrows(b, c)) * len(ctx.arrows(c, d))
        for b, c, d in itertools.product(ctx.classes, repeat=3)
    )
    # One identity check per class pair, then one check per fourth class a
    # and pair (f, g), each forming g.f and one more composite.
    assert result.checked == _golden_checked("lattice.merge-functor") == n * n + n * pairs
    assert len(composed) == 2 * n * pairs
    # No (g, f) composed twice and no (a, f) merged twice within the pass.
    assert len(compose_misses) == len(set(composed)) < len(composed)
    assert len(merge_misses) == len(set(merged)) < len(merged)


def test_merge_functor_law_catches_non_functorial_merge(cfg0, monkeypatch):
    mutant = _principal_merge_arrow
    classes = closure_classes(cfg0, 4)
    assert any(
        not equiv(mutant(a, compose(g, f)), compose(mutant(a, g), mutant(a, f)))
        for a, b, c, d in itertools.product(classes, repeat=4)
        for f in semantic_arrows(b, c, cfg0)
        for g in semantic_arrows(c, d, cfg0)
    )
    monkeypatch.setattr(suites, "merge_arrow", mutant)
    result = suites.law_merge_functor(SuiteContext(cfg0, 4))
    assert result.status == "FAIL"
    assert result.checked == _golden_checked("lattice.merge-functor")


def _meet_losing_a_lone_view(a, b):
    """A mutant meet: a meet with one view besides the bottom loses it.

    The zero object it returns instead is closed, so arrows built from it
    are still accepted.
    """
    meet = meet_closed(a, b)
    return zero_object() if len(meet.relations) == 2 else meet


def _merging_of_the_second(a, b, cfg):
    """A mutant merging: the closure of the second operand alone."""
    return power_view(b, cfg)


@pytest.mark.parametrize(
    "law, check",
    [("category.flux-composition", suites.law_flux_composition),
     ("monoidal.arrow-tensor", suites.law_arrow_tensor)],
)
def test_flux_laws_catch_a_meet_that_drops_a_view(cfg0, law, check, monkeypatch):
    ctx = SuiteContext(cfg0, 4)
    # Warm every memo and hom-set with the real meet; the mutant replaces
    # the names compose and tensor_arrow call, so no memo stands in front.
    assert check(ctx).status == "PASS"
    for module in (morphisms, catops):
        monkeypatch.setattr(module, "meet_closed", _meet_losing_a_lone_view)
    result = check(ctx)
    assert result.status == "FAIL"
    assert result.checked == _golden_checked(law)


@pytest.mark.parametrize(
    "law, check",
    [("lattice.join-laws", suites.law_join_laws), ("lattice.absorption", suites.law_absorption)],
)
def test_lattice_laws_catch_a_merging_that_keeps_one_operand(cfg0, law, check, monkeypatch):
    ctx = SuiteContext(cfg0, 4)
    assert check(ctx).status == "PASS"  # warms the merging memo
    monkeypatch.setattr(suites, "merging", _merging_of_the_second)
    result = check(ctx)
    assert result.status == "FAIL"
    assert result.checked == _golden_checked(law)


def test_check_all_builds_one_closed_instance_per_closed_set(clear_caches, monkeypatch):
    # ``_intern`` is the one constructor of closed sets, called on a miss of the table.
    built = []
    intern = closure._intern
    monkeypatch.setattr(closure, "_intern", lambda *args: built.append(intern(*args)) or built[-1])
    report = run_suite("all", UniverseConfig(domain=frozenset({"a", "b"}), k_max=1))
    assert report.ok
    # Every construction is kept alive in ``built``, and none repeats a set,
    # named by its mask or by its views; the objects built are the table's.
    assert len(built) == len({c.mask for c in built}) == len({c.relations for c in built}) > 8
    assert {id(c) for c in built} == {id(c) for c in closure._closed.values()}


@pytest.mark.parametrize(
    "mutant",
    [lambda subsets: subsets[1:], lambda subsets: subsets + subsets[-1:]],
    ids=["drop-one", "repeat-one"],
)
@pytest.mark.parametrize(
    "cfg, max_relations",
    [(UniverseConfig(domain=frozenset("ab"), k_max=1), 4),
     (UniverseConfig(domain=frozenset("abcd"), k_max=1), 1)],
    ids=["default", "abcd"],
)
def test_closed_count_law_catches_a_lost_or_repeated_closed_subset(
    cfg, max_relations, mutant, monkeypatch
):
    ctx = SuiteContext(cfg, max_relations)
    assert suites.law_closed_count(ctx).status == "PASS"
    monkeypatch.setattr(suites, "closed_subsets", lambda x, cfg: mutant(closed_subsets(x, cfg)))
    result = suites.law_closed_count(ctx)
    assert result.status == "FAIL"
    assert result.checked == _golden_checked("lattice.closed-count") == 1


class ReprProbe:
    """A witness part that counts how often it is rendered."""

    def __init__(self, name):
        self.name = name
        self.calls = 0

    def __repr__(self):
        self.calls += 1
        return self.name


def test_each_law_pass_starts_with_empty_arrow_tables(cfg0, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pab, pab, power_view(pab, cfg0), cfg0)
    compose(g, f)
    catops.merge_arrow(pab, f)
    catops.copair(f, semantic_arrow(pab, pab, power_view(pa, cfg0), cfg0))
    # A square with a non-zero corner reaches both pullback memos.
    sq = topos.pullback(f, f)
    mediators = topos.square_mediators(sq, [pa, pab], lambda v, x: semantic_arrows(v, x, cfg0))
    assert topos.combined_pullback_check(sq, mediators, sq, mediators, cfg0)
    memos = morphisms._pass_memos
    assert morphisms._interned and morphisms._verified
    assert all(memo.cache_info().currsize for memo in memos)
    # A process memo keeps its entries across passes.
    kept = closure._power_view_cached.cache_info().currsize
    assert kept
    sizes = []

    @_law("probe", "the arrow tables are empty when a pass starts")
    def probe(ctx):
        sizes.extend([len(morphisms._interned), len(morphisms._verified)])
        sizes.extend(memo.cache_info().currsize for memo in memos)
        sizes.append(closure._power_view_cached.cache_info().currsize)
        yield True

    probe(None)
    assert sizes == [0] * (2 + len(memos)) + [kept]
    assert {topos._mediators, topos._combined_legs} <= set(memos)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pullback_pass_builds_one_mediator_table_per_distinct_square(n):
    # The table reads the leg sources, the corner and the fluxes, not the
    # cospan target, so the 13^n checks build one table per distinct square.
    ctx = SuiteContext(UniverseConfig(domain=frozenset("abc"[:n]), k_max=1), 1)
    result = suites.law_pullback(ctx)
    assert result.status == "PASS" and result.checked == 13**n
    assert topos._mediators.cache_info().misses == count_oracle.squares(n) == 9**n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coproduct_pullback_pass_builds_one_mediator_table_per_distinct_square(n):
    # A square recurs under every cospan target; one pass shares its table.
    ctx = SuiteContext(UniverseConfig(domain=frozenset("abc"[:n]), k_max=1), 1)
    result = suites.law_coproduct_pullback(ctx)
    assert result.status == "PASS" and result.checked == 35**n
    assert topos._mediators.cache_info().misses == count_oracle.squares(n)


def test_law_keeps_first_five_failures():
    @_law("probe.fail", "fails seven times")
    def law(ctx):
        for i in range(7):
            yield False or witness(i, "x")

    result = law(None)
    assert result.checked == 7
    assert result.status == "FAIL"
    assert result.failures == ["0; 'x'", "1; 'x'", "2; 'x'", "3; 'x'", "4; 'x'"]


def test_law_renders_flagged_witness():
    probe = ReprProbe("{(a)}")

    @_law("probe.flag", "flags one item")
    def law(ctx):
        yield Flag(witness(probe, 1))
        yield Flag("plain witness")

    result = law(None)
    assert result.status == "FLAGGED" and result.checked == 2
    assert result.flagged == ["{(a)}; 1", "plain witness"]
    assert not result.failures
    assert probe.calls == 1


def test_passing_items_render_no_witness():
    probe = ReprProbe("p")

    @_law("probe.pass", "passes every item")
    def law(ctx):
        for _ in range(10):
            yield True or witness(probe, probe)

    result = law(None)
    assert result.status == "PASS" and result.checked == 10
    assert probe.calls == 0

    @_law("probe.fail", "fails every item")
    def failing(ctx):
        for _ in range(10):
            yield False or witness(probe)

    assert len(failing(None).failures) == 5
    assert probe.calls == 5


def test_grouped_laws_route_checks_and_time_the_first():
    @_laws(("probe.one", "first law"), ("probe.two", "second law"))
    def law(ctx):
        yield "probe.two", True or "never rendered"
        yield "probe.one", False or witness(1)
        yield "probe.two", False or "plain"
        yield "probe.two", Flag("flagged")

    one, two = law(None)
    assert (one.law, one.checked, one.failures, one.flagged) == ("probe.one", 1, ["1"], [])
    assert (two.law, two.checked, two.failures, two.flagged) == (
        "probe.two", 3, ["plain"], ["flagged"]
    )
    assert one.elapsed > 0 and two.elapsed == 0.0


@pytest.mark.parametrize("check", [False, None, 0, ("probe.ok", True)], ids=repr)
def test_law_refuses_a_check_that_is_not_true_a_flag_or_a_witness(check):
    @_law("probe.bare", "yields a bare verdict")
    def law(ctx):
        yield True
        yield check

    with pytest.raises(ViewfluxError, match="law probe.bare gave a check of type"):
        law(None)


def test_predicate_law_refuses_a_truthy_value_that_is_not_true():
    # ``fn(...) or witness(...)`` passes a truthy frozenset on: it is no verdict.
    @_law("probe.set", "returns a set", over="instances")
    def law(ctx, a):
        return frozenset({a})

    ctx = SimpleNamespace(instances=[1, 2])
    with pytest.raises(ViewfluxError, match="law probe.set gave a check of type frozenset"):
        law(ctx)


def test_grouped_law_refusal_names_the_law_of_the_check():
    @_laws(("probe.one", "first law"), ("probe.two", "second law"))
    def law(ctx):
        yield "probe.one", True
        yield "probe.two", False

    with pytest.raises(ViewfluxError, match="law probe.two gave a check of type bool"):
        law(None)


def test_passing_checks_build_no_witness(monkeypatch):
    # A passing check is ``True``: a witness is built only for a failure or
    # flag that the report renders, at most five per law.
    calls = []

    def counted(*parts):
        calls.append(parts)
        return witness(*parts)

    monkeypatch.setattr(suites, "witness", counted)
    monkeypatch.setattr(topos, "witness", counted)
    report = run_suite("all", UniverseConfig(domain=frozenset({"a", "b"}), k_max=1))
    rendered = sum(len(law.failures) + len(law.flagged) for law in report.laws)
    audit = next(law for law in report.laws if law.law == "topos.classifier-audit")
    assert report.ok and rendered == len(audit.flagged) == 2
    assert len(calls) == rendered


@pytest.mark.parametrize(
    "domain, k_max, max_relations", [("ab", 1, 4), ("abc", 1, 2), ("ab", 2, 1)]
)
def test_no_law_builds_a_witness_tree(domain, k_max, max_relations, monkeypatch):
    calls = []
    real = morphisms._witness_trees

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(morphisms, "_witness_trees", counting)
    monkeypatch.setattr(topos, "_witness_trees", counting)
    cfg = UniverseConfig(domain=frozenset(domain), k_max=k_max)
    assert run_suite("all", cfg, max_relations).ok
    assert calls == []
