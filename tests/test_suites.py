import pytest

from viewflux import (
    EnumerationTooLarge,
    UniverseConfig,
    UnknownSuite,
    render_report,
    run_suite,
    subset_instances,
)
from viewflux.suites import SUITE_NAMES, SUITES


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


def test_suite_instance_cap(cfg0):
    with pytest.raises(EnumerationTooLarge):
        run_suite("closure", cfg0, max_relations=4, max_instances=8)


def test_suite_names_cover_registry():
    assert set(SUITE_NAMES) == set(SUITES) | {"all"}
