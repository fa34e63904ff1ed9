"""Acceptance gate: the numbered criteria this package must meet to ship.

Each test prints one PASS/FAIL line.  All criteria run on the default
configuration (two constants, view arity capped at one, instances with up to
four relations: sixteen instances, four closed objects, at most four
semantic arrows per hom-set).  Everything is exact set arithmetic; there are
no numeric tolerances to calibrate.
"""

import itertools
import time

from viewflux import (
    BOTTOM,
    Instance,
    UniverseConfig,
    closed_subsets,
    compose,
    equiv,
    instance,
    invert,
    is_epi,
    is_iso,
    is_mono,
    lift_arrow,
    make_relation,
    matching,
    merging,
    power_view,
    run_suite,
    semantic_arrow,
    semantic_arrows,
    semantic_homset,
    subset_instances,
    totalize,
    total_object,
)
from viewflux.topos import closure_classes

CFG = UniverseConfig(domain=frozenset({"a", "b"}), k_max=1)
RA = make_relation(1, {("a",)})
RB = make_relation(1, {("b",)})
PA = instance(RA)
PB = instance(RB)
PAB = instance(RA, RB)


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:2d} {status}: {name}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _laws(report, *law_ids):
    by_id = {law.law: law for law in report.laws}
    return [by_id[i] for i in law_ids]


def test_criterion_01_closure_suite():
    report = run_suite("closure", CFG)
    insts = list(subset_instances(CFG, 4))
    ok = report.ok and len(insts) == 16
    laws = _laws(
        report,
        "closure.extensive",
        "closure.monotone",
        "closure.idempotent",
        "closure.bottom",
        "closure.total-fixpoint",
    )
    ok = ok and all(not law.failures for law in laws)
    ok = ok and laws[0].checked == 16
    _verdict(1, "closure axioms over all 16 instances", ok)


def test_criterion_02_category_suite():
    classes = closure_classes(CFG, 4)
    failures = 0
    triples = 0
    for a, b, c, d in itertools.product(classes, repeat=4):
        for f in semantic_arrows(a, b, CFG):
            for g in semantic_arrows(b, c, CFG):
                gf = compose(g, f)
                if gf.flux.relations != g.flux.relations & f.flux.relations:
                    failures += 1
                for h in semantic_arrows(c, d, CFG):
                    triples += 1
                    if not equiv(compose(h, compose(g, f)), compose(compose(h, g), f)):
                        failures += 1
    report = run_suite("category", CFG)
    mono_laws = _laws(
        report, "category.identity", "category.mono-epi-iso",
        "category.mono-cancellation", "category.epi-cancellation",
    )
    ok = failures == 0 and report.ok and all(not law.failures for law in mono_laws)
    _verdict(2, "category laws over all composable arrow triples", ok,
             f"{triples} triples")


def test_criterion_03_functor_duality_suite():
    classes = closure_classes(CFG, 4)
    ok = True
    checked = 0
    for a, b in itertools.product(classes, repeat=2):
        for f in semantic_arrows(a, b, CFG):
            checked += 1
            lifted = lift_arrow(f)
            ok = ok and lifted.flux.relations == f.flux.relations
            ok = ok and is_mono(lifted) == is_mono(f)
            ok = ok and is_epi(lifted) == is_epi(f)
            ok = ok and is_iso(lifted) == is_iso(f)
            rev = invert(f)
            ok = ok and rev.flux.relations == f.flux.relations
            ok = ok and equiv(invert(rev), f)
    closed_objects = [Instance(c.relations, {}) for c in closed_subsets(total_object(CFG), CFG)]
    for a, b in itertools.product(closed_objects, repeat=2):
        arrows = semantic_arrows(a, b, CFG)
        for f, g in itertools.product(arrows, repeat=2):
            ok = ok and (totalize(f) == totalize(g)) == equiv(f, g)
    _verdict(3, "closure functor, duality and faithful totalization", ok,
             f"{checked} arrows")


def test_criterion_04_monoidal_suite():
    report = run_suite("monoidal", CFG)
    laws = _laws(
        report,
        "monoidal.commutative",
        "monoidal.associative",
        "monoidal.idempotent-unit-zero",
        "monoidal.arrow-tensor",
        "monoidal.monoid",
    )
    ok = report.ok and all(not law.failures for law in laws)
    insts = list(subset_instances(CFG, 4))
    tot = Instance(total_object(CFG).relations, {})
    zero = Instance(frozenset({BOTTOM}), {})
    for a in insts:
        ta = power_view(a, CFG).relations
        ok = ok and matching(a, tot, CFG).relations == ta
        ok = ok and matching(a, zero, CFG).relations == frozenset({BOTTOM})
        ok = ok and matching(a, a, CFG).relations == ta
    _verdict(4, "monoidal laws, arrow tensor and monoid equations", ok)


def test_criterion_05_lattice_suite():
    report = run_suite("lattice", CFG)
    laws = _laws(
        report,
        "lattice.inf-sup",
        "lattice.absorption",
        "lattice.distributive",
        "lattice.closed-count",
    )
    ok = report.ok and all(not law.failures for law in laws)
    count = len(closed_subsets(total_object(CFG), CFG))
    ok = ok and count == 4
    insts = list(subset_instances(CFG, 4))
    for a, b in itertools.product(insts, repeat=2):
        ta = power_view(a, CFG).relations
        ok = ok and merging(a, Instance(matching(a, b, CFG).relations, {}), CFG).relations == ta
        ok = ok and matching(a, Instance(merging(a, b, CFG).relations, {}), CFG).relations == ta
    _verdict(5, "lattice structure with exactly 4 closed subsets", ok,
             f"closed subsets = {count}")


def test_criterion_06_closed_structure_suite():
    classes = closure_classes(CFG, 4)
    ok = True
    for a, b, c in itertools.product(classes, repeat=3):
        tensor = Instance(matching(a, b, CFG).relations, {})
        hom = Instance(matching(b, c, CFG).relations, {})
        ok = ok and len(semantic_homset(tensor, c, CFG)) == len(semantic_homset(a, hom, CFG))
    report = run_suite("monoidal", CFG)
    ok = ok and not _laws(report, "monoidal.exponent")[0].failures
    n_ab = len(semantic_homset(PA, PB, CFG))
    n_abab = len(semantic_homset(PAB, PAB, CFG))
    ok = ok and n_ab == 1 and n_abab == 4
    _verdict(6, "closed structure: hom-objects, counting, exponent diagram", ok,
             f"|hom(Pa,Pb)|={n_ab}, |hom(Pab,Pab)|={n_abab}")


def test_criterion_07_omega_chain_suite():
    from viewflux import omega_chain

    ok = True
    for a in subset_instances(CFG, 4):
        chain = omega_chain(a, CFG, 3)
        ta = power_view(a, CFG).relations
        ok = ok and chain[0].relations == frozenset({BOTTOM})
        ok = ok and all(step.relations == ta for step in chain[1:])
    _verdict(7, "merge chains stabilize at the closure from step 1", ok)


def test_criterion_08_metric_suite():
    report = run_suite("metric", CFG)
    laws = _laws(
        report,
        "metric.triangle",
        "metric.symmetry",
        "metric.self-distance",
        "metric.indiscernible",
        "metric.order",
    )
    ok = report.ok and all(not law.failures for law in laws)
    ok = ok and laws[0].checked == len(list(subset_instances(CFG, 4))) ** 3
    _verdict(8, "metric laws over all triples", ok,
             f"{_laws(report, 'metric.triangle')[0].checked} triples")


def test_criterion_09_topos_suite():
    report = run_suite("topos", CFG)
    ok = report.ok
    audit = _laws(report, "topos.classifier-audit")[0]
    ok = ok and audit.status == "FLAGGED"
    # the canonical audit case: the one-constant instance inside the
    # two-singleton instance; closing the generators recovers the whole
    # closure of the subobject
    from viewflux.topos import classifier

    mono = semantic_arrow(PA, PAB, power_view(PA, CFG), CFG)
    _, creport = classifier(mono, CFG, closure_classes(CFG, 4))
    ok = ok and creport.flagged
    ok = ok and creport.audit_intersection == power_view(PA, CFG).relations
    ok = ok and creport.generator_commutes and creport.factorization_ok
    _verdict(9, "topos suite passes with the classifier audit flagged", ok)


def test_criterion_10_negative_probes():
    report = run_suite("negative", CFG)
    laws = _laws(
        report,
        "negative.pullback-epi",
        "negative.no-power-object",
        "negative.not-well-pointed",
    )
    ok = report.ok and all(law.status == "PASS" for law in laws)
    ok = ok and laws[1].checked > 0
    _verdict(10, "negative probes: pullback-epi, power objects, well-pointedness", ok)


def test_runtime_target_full_check():
    started = time.perf_counter()
    report = run_suite("all", CFG)
    elapsed = time.perf_counter() - started
    ok = report.ok and elapsed < 10.0
    _verdict(0, "full suite at the default configuration under 10 seconds", ok,
             f"{elapsed:.2f}s, {len(report.laws)} laws")
    assert len(report.laws) >= 25
