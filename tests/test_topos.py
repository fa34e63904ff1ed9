import itertools

import frozen_pullback
import pytest

from viewflux import (
    BOTTOM,
    DomainMismatch,
    Instance,
    NotAPullback,
    NotMonic,
    PullbackSquare,
    ZERO,
    classifier,
    compose,
    coproduct_pullback_check,
    distance,
    empty_arrow,
    epi_mono_factorize,
    equalizer_check,
    equiv,
    is_epi,
    is_mono,
    UniverseConfig,
    is_pullback_square,
    isomorphic,
    po_leq,
    power_view,
    pullback,
    run_suite,
    semantic_arrow,
    semantic_arrows,
    subset_instances,
    total_object,
    true_arrow,
    universe_relations,
)
from viewflux import closure, suites, topos
from viewflux.closure import zero_object
from viewflux.topos import (
    closure_classes,
    combined_pullback_check,
    factorization_minimal,
    square_mediators,
)


@pytest.fixture(scope="module")
def classes(cfg0):
    return closure_classes(cfg0, 4)


@pytest.fixture(scope="module")
def arrows(cfg0):
    return lambda a, b: semantic_arrows(a, b, cfg0)


def _metric_laws(cfg, max_relations=4):
    return {law.law: law for law in run_suite("metric", cfg, max_relations).laws}


def test_distance_cases(cfg0, pa, pb, pab):
    assert distance(pa, pa, cfg0).relations == total_object(cfg0).relations
    assert distance(pa, pb, cfg0).relations == frozenset({BOTTOM})
    assert distance(pa, ZERO, cfg0).relations == frozenset({BOTTOM})
    assert distance(pa, pab, cfg0).relations == power_view(pa, cfg0).relations


def test_distance_triangle_example(cfg0, pa, pb, pab):
    dab = distance(pa, pb, cfg0).relations
    dbc = distance(pb, pab, cfg0).relations
    dac = distance(pa, pab, cfg0).relations
    assert dab & dbc <= dac


def test_metric_suite_passes(cfg0):
    laws = _metric_laws(cfg0)
    assert all(law.status == "PASS" for law in laws.values())
    assert laws["metric.self-distance"].checked == 16
    assert laws["metric.triangle"].checked == 16 ** 3


def _render(*parts):
    return "; ".join(repr(p) for p in parts)


def _pairs_and_triples(cfg, variant):
    """Brute-force symmetry and triangle failures of a distance variant."""
    insts = list(subset_instances(cfg, 4))

    def d(a, b):
        return variant(a, b, cfg).relations

    asymmetric = [
        _render(a, b) for a, b in itertools.product(insts, repeat=2) if d(a, b) != d(b, a)
    ]
    triangle = [
        _render(a, b, c)
        for a, b, c in itertools.product(insts, repeat=3)
        if not d(a, b) & d(b, c) <= d(a, c)
    ]
    return asymmetric, triangle


def _assert_counts_unchanged(laws, cfg):
    assert {name: law.checked for name, law in laws.items()} == {
        name: law.checked for name, law in _metric_laws(cfg).items()
    }


def test_metric_suite_catches_asymmetric_distance(cfg0, monkeypatch):
    real = topos.distance

    def asymmetric(a, b, cfg):
        return total_object(cfg) if a.relations < b.relations else real(a, b, cfg)

    expected_symmetry, _ = _pairs_and_triples(cfg0, asymmetric)
    with monkeypatch.context() as patch:
        patch.setattr(topos, "distance", asymmetric)
        laws = _metric_laws(cfg0)
    assert laws["metric.symmetry"].status == "FAIL"
    assert laws["metric.symmetry"].failures == expected_symmetry[:5]
    _assert_counts_unchanged(laws, cfg0)


def test_metric_suite_catches_broken_triangle(cfg0, monkeypatch, pa, pab):
    # Symmetric, but {(a)} and {(a),(b)} are put infinitely far apart while
    # instances equivalent to {(a)} still share the view (a) with both.
    real = topos.distance
    cut = {pa.relations, pab.relations}

    def broken(a, b, cfg):
        return zero_object() if {a.relations, b.relations} == cut else real(a, b, cfg)

    _, expected_triangle = _pairs_and_triples(cfg0, broken)
    with monkeypatch.context() as patch:
        patch.setattr(topos, "distance", broken)
        laws = _metric_laws(cfg0)
    assert laws["metric.symmetry"].status == "PASS"
    assert laws["metric.triangle"].status == "FAIL"
    assert laws["metric.triangle"].failures == expected_triangle[:5]
    _assert_counts_unchanged(laws, cfg0)


@pytest.mark.parametrize("domain, max_relations", [("a", 4), ("ab", 4), ("abc", 2)])
def test_metric_order_is_a_theorem_by_brute_force(domain, max_relations):
    # a <= b exactly when d(a, k) is contained in d(b, k) for the top and
    # for every k not equivalent to a.  Without the top the statement fails
    # at one constant: the top and the zero object have no separating k.
    cfg = UniverseConfig(domain=frozenset(domain), k_max=1)
    insts = list(subset_instances(cfg, max_relations))
    top = Instance(total_object(cfg).relations, {})
    d = {(a, b): distance(a, b, cfg).relations for a in insts for b in insts}
    holds = {True: True, False: True}
    for a, b in itertools.product(insts, repeat=2):
        for with_top in (True, False):
            ks = [k for k in insts if (with_top and isomorphic(k, top, cfg))
                  or not isomorphic(k, a, cfg)]
            refines = all(d[a, k] <= d[b, k] for k in ks)
            holds[with_top] = holds[with_top] and po_leq(a, b, cfg) == refines
    assert holds == {True: True, False: domain != "a"}
    order = _metric_laws(cfg, max_relations)["metric.order"]
    assert order.status == "PASS" and order.checked == len(insts) ** 2


def test_metric_isomorphic_branch(cfg0, pa):
    closed = Instance(power_view(pa, cfg0).relations, {})
    assert distance(pa, closed, cfg0).relations == total_object(cfg0).relations


def test_a_metric_pass_at_k2_forms_the_universes_support_at_most_once(monkeypatch, clear_caches):
    # The total object is the closure of the domain's unary relation, so the
    # distance of an equivalent pair does not walk the universe; a walk per
    # such pair would form its support 210 times here.  A count, not a time.
    cfg = UniverseConfig(domain=frozenset({"a", "b"}), k_max=2)
    universe = frozenset(universe_relations(cfg))
    instances = list(subset_instances(cfg, 1))
    real, seen = closure.support, []

    def counted(relations, cfg):
        relations = tuple(relations)
        seen.append(frozenset(relations))
        return real(relations, cfg)

    monkeypatch.setattr(closure, "support", counted)
    assert len(instances) == 20
    assert all(ok is True for _, ok in topos.metric_suite(cfg, instances))
    assert seen.count(universe) <= 1
    # Nothing outside the table holds the total object.
    clear_caches()
    assert closure._closed[total_object(cfg).mask] is total_object(cfg)


def test_pullback_corner_is_flux_meet(cfg0, pa, pb, pab, classes):
    f = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)  # epi onto pa
    g = semantic_arrow(pb, pa, [BOTTOM], cfg0)
    square = pullback(f, g)
    assert square.corner.relations == frozenset({BOTTOM})
    assert is_mono(square.left) and is_mono(square.right)
    assert not is_epi(square.right)  # the witness that epimorphisms break
    assert is_pullback_square(square, cfg0, classes)


def test_pullback_self(cfg0, pa, pab, classes):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    square = pullback(f, f)
    assert square.corner.relations == f.flux.relations
    assert is_pullback_square(square, cfg0, classes)


def test_pullback_with_empty(cfg0, pa, pab, classes):
    e = empty_arrow(pab, pa, cfg0)
    g = semantic_arrow(pa, pa, power_view(pa, cfg0), cfg0)
    square = pullback(e, g)
    assert square.corner.relations == frozenset({BOTTOM})
    assert is_pullback_square(square, cfg0, classes)


def test_pullback_exhaustive(cfg0, classes):
    for c in classes:
        for a, b in itertools.product(classes, repeat=2):
            for f in semantic_arrows(a, c, cfg0):
                for g in semantic_arrows(b, c, cfg0):
                    square = pullback(f, g)
                    assert square.corner.relations == (
                        f.flux.relations & g.flux.relations
                    )
                    assert is_pullback_square(square, cfg0, classes)


def test_pullback_rejects_mixed_configurations(cfg0, cfg2, pa, pab):
    # The corner is closed under both configurations, so only the check of
    # the configurations can refuse the cospan.
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pa, pab, power_view(pa, cfg2), cfg2)
    for left, right in ((f, g), (g, f)):
        with pytest.raises(DomainMismatch):
            pullback(left, right)


def test_pullback_needs_a_common_target(cfg0, pa, pab):
    f = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pa, pa, power_view(pa, cfg0), cfg0)
    with pytest.raises(DomainMismatch, match="pullback needs a cospan with a common target"):
        pullback(f, g)


def test_pullback_rejects_wrong_corners(cfg0, pa, pb, pab, classes):
    f = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pa, [BOTTOM], cfg0)
    tot = Instance(total_object(cfg0).relations, {})
    too_big = PullbackSquare(
        tot,
        semantic_arrow(tot, pab, [BOTTOM], cfg0),
        semantic_arrow(tot, pb, [BOTTOM], cfg0),
        f,
        g,
    )
    assert not is_pullback_square(too_big, cfg0, classes)

    f2 = semantic_arrow(pab, pab, power_view(pab, cfg0), cfg0)
    proper = pullback(f2, f2)
    too_small = PullbackSquare(
        ZERO,
        semantic_arrow(ZERO, pab, [BOTTOM], cfg0),
        semantic_arrow(ZERO, pab, [BOTTOM], cfg0),
        proper.f,
        proper.g,
    )
    assert not is_pullback_square(too_small, cfg0, classes)


def test_pullback_rejects_non_commuting(cfg0, pa, pab, classes):
    f = semantic_arrow(pab, pab, power_view(pab, cfg0), cfg0)
    g = semantic_arrow(pab, pab, power_view(pa, cfg0), cfg0)
    square = pullback(f, g)
    # corrupt one leg so the square no longer commutes
    broken = PullbackSquare(
        square.corner,
        semantic_arrow(square.corner, pab, [BOTTOM], cfg0),
        square.right,
        f,
        g,
    )
    assert not is_pullback_square(broken, cfg0, classes)


def test_classifier_example(cfg0, pa, pab, ra, rb, rab, classes):
    mono = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    char, report = classifier(mono, cfg0, classes)
    assert report.generators == frozenset({BOTTOM, rb, rab})
    assert report.generator_commutes
    assert report.factorization_ok
    assert report.char_class_size == 1
    # the closure-level audit must flag this case: closing the generators
    # recovers the whole total object, which meets the subobject
    assert report.flagged
    assert report.audit_intersection == power_view(pa, cfg0).relations
    assert char.target.relations == total_object(cfg0).relations


def test_generator_level_square_reads_the_generators(cfg0, pa, pab, classes, monkeypatch):
    # A mutant generator set that also holds one view of the subobject: chi
    # after m then transmits more than the bottom, which true after ! does not.
    audit = topos.classifier_audit

    def generators_meeting_the_subobject(in_a, cfg):
        generators, met = audit(in_a, cfg)
        views = power_view(in_a.source, cfg).relations - {BOTTOM}
        return generators | set(sorted(views, key=repr)[:1]), met

    monkeypatch.setattr(topos, "classifier_audit", generators_meeting_the_subobject)
    mono = semantic_arrow(pa, pab, power_view(pa, cfg0), cfg0)
    _, report = classifier(mono, cfg0, classes)
    assert not report.generator_commutes
    assert suites.law_classifier(suites.SuiteContext(cfg0, 4)).status == "FAIL"


def test_classifier_full_subobject(cfg0, pa, classes):
    mono = semantic_arrow(pa, pa, power_view(pa, cfg0), cfg0)
    char, report = classifier(mono, cfg0, classes)
    assert report.generators == frozenset({BOTTOM})
    assert char.flux.relations == frozenset({BOTTOM})
    assert report.generator_commutes and report.factorization_ok
    assert not report.flagged


def test_classifier_zero_subobject(cfg0, pab, classes):
    mono = semantic_arrow(ZERO, pab, [BOTTOM], cfg0)
    char, report = classifier(mono, cfg0, classes)
    assert report.generator_commutes and report.factorization_ok
    assert report.char_class_size == 1


def test_classifier_requires_mono(cfg0, pa, pab):
    f = empty_arrow(pa, pab, cfg0)
    with pytest.raises(NotMonic):
        classifier(f, cfg0)


def test_classifier_every_mono(cfg0, classes):
    from viewflux import po_leq

    flagged = []
    for a, b in itertools.product(classes, repeat=2):
        if not po_leq(a, b, cfg0):
            continue
        mono = semantic_arrow(a, b, power_view(a, cfg0), cfg0)
        _, report = classifier(mono, cfg0, classes)
        assert report.generator_commutes
        assert report.factorization_ok
        assert report.char_class_size == 1
        if report.flagged:
            flagged.append((a, b))
    assert flagged  # at least the one-constant inclusion gets audited


@pytest.mark.parametrize(
    "domain, k_max, counts", [("ab", 1, (2, 3, 4)), ("abc", 1, (2, 3)), ("ab", 2, (2,))]
)
def test_one_relation_realises_every_class(domain, k_max, counts):
    # A class is fixed by its active domain, and one relation realises any
    # active domain, so the classifier's default vertices,
    # closure_classes(cfg, 1), are the classes at any max_relations.
    cfg = UniverseConfig(domain=frozenset(domain), k_max=k_max)
    one = closure_classes(cfg, 1)
    assert len(one) == 2 ** len(domain)
    for n in counts:
        assert closure_classes(cfg, n) == one, n


def test_true_arrow(cfg0):
    t = true_arrow(cfg0)
    assert t.flux.relations == frozenset({BOTTOM})
    assert t.source.relations == frozenset({BOTTOM})
    assert t.target.relations == total_object(cfg0).relations


def test_equalizer_every_mono(cfg0, classes):
    from viewflux import po_leq

    for a, b in itertools.product(classes, repeat=2):
        if not po_leq(a, b, cfg0):
            continue
        mono = semantic_arrow(a, b, power_view(a, cfg0), cfg0)
        assert equalizer_check(mono, cfg0, classes)


def test_equalizer_requires_mono(cfg0, pa, pab):
    with pytest.raises(NotMonic):
        equalizer_check(empty_arrow(pa, pab, cfg0), cfg0)


def test_empty_flux_mono_only_from_zero(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        for f in semantic_arrows(a, b, cfg0):
            if f.flux.relations == frozenset({BOTTOM}) and is_mono(f):
                assert power_view(a, cfg0).relations == frozenset({BOTTOM})


def test_factorization(cfg0, pa, pab, classes):
    f = semantic_arrow(pab, pab, power_view(pa, cfg0), cfg0)
    tau, tau_inv = epi_mono_factorize(f)
    assert tau.target.relations == f.flux.relations
    assert is_mono(tau_inv)
    assert tau.flux.relations == f.flux.relations
    assert equiv(compose(tau_inv, tau), f)
    assert factorization_minimal(f, cfg0, classes)


def test_factorization_empty(cfg0, pa, pab):
    e = empty_arrow(pa, pab, cfg0)
    tau, tau_inv = epi_mono_factorize(e)
    assert tau.target.relations == frozenset({BOTTOM})


def test_factorization_exhaustive(cfg0, classes):
    for a, b in itertools.product(classes, repeat=2):
        for f in semantic_arrows(a, b, cfg0):
            assert factorization_minimal(f, cfg0, classes)


def test_coproduct_pullback(cfg0, pa, pb, pab, classes):
    k = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    sq1 = pullback(k, semantic_arrow(pb, pa, [BOTTOM], cfg0))
    sq2 = pullback(k, semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0))
    assert coproduct_pullback_check(sq1, sq2, cfg0, classes)


def test_coproduct_pullback_trivial_squares(cfg0, pa, classes):
    k = semantic_arrow(pa, pa, power_view(pa, cfg0), cfg0)
    sq = pullback(k, k)
    assert coproduct_pullback_check(sq, sq, cfg0, classes)


def _good_and_bad_squares(cfg0, pa, pb, pab):
    """A pullback square and a square over the same cospan whose corner is
    too big to be a pullback."""
    f = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pa, [BOTTOM], cfg0)
    good = pullback(f, g)
    tot = Instance(total_object(cfg0).relations, {})
    bad = PullbackSquare(
        tot,
        semantic_arrow(tot, pab, [BOTTOM], cfg0),
        semantic_arrow(tot, pb, [BOTTOM], cfg0),
        f,
        g,
    )
    return good, bad


def test_coproduct_pullback_rejects_bad_square(cfg0, pa, pb, pab, classes):
    good, bad = _good_and_bad_squares(cfg0, pa, pb, pab)
    with pytest.raises(NotAPullback):
        coproduct_pullback_check(good, bad, cfg0, classes)


def test_coproduct_pullback_tables_match_pairwise_check(cfg0, monkeypatch, arrows):
    # Record every pair the law checks against its squares' mediator tables,
    # then check each pair again through the one-pair entry point.
    seen = []
    real = suites.combined_pullback_check

    def recording(sq1, m1, sq2, m2, cfg):
        result = real(sq1, m1, sq2, m2, cfg)
        seen.append((sq1, m1, sq2, m2, result))
        return result

    monkeypatch.setattr(suites, "combined_pullback_check", recording)
    ctx = suites.SuiteContext(cfg0, 4)
    result = suites.law_coproduct_pullback(ctx)
    assert result.checked == len(seen) == 1225
    small = [ctx.zero, ctx.classes[-1]]
    for sq1, m1, sq2, m2, outcome in seen:
        assert m1 == square_mediators(sq1, small, arrows)
        assert m2 == square_mediators(sq2, small, arrows)
        assert outcome == coproduct_pullback_check(sq1, sq2, cfg0, small)


def test_coproduct_pullback_tables_reject_bad_square(cfg0, pa, pb, pab, classes, arrows):
    good, bad = _good_and_bad_squares(cfg0, pa, pb, pab)
    tables = [(sq, square_mediators(sq, classes, arrows)) for sq in (good, bad)]
    assert tables[0][1] is not None and tables[1][1] is None
    for (sq1, m1), (sq2, m2) in itertools.product(tables, repeat=2):
        if bad in (sq1, sq2):
            with pytest.raises(NotAPullback):
                combined_pullback_check(sq1, m1, sq2, m2, cfg0)
        else:
            assert combined_pullback_check(sq1, m1, sq2, m2, cfg0)


def test_coproduct_pullback_rejects_cone_without_unique_mediator(cfg0, pa, pab, classes, arrows):
    k = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    sq = pullback(k, semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0))
    mediators = square_mediators(sq, classes, arrows)
    cones = sum(
        1
        for v in classes
        for h1 in arrows(v, pab)
        for h2 in arrows(v, pab)
        if k.flux.relations & h1.flux.relations == k.flux.relations & h2.flux.relations
    )
    assert len(mediators) == cones and all(isinstance(u, frozenset) for u in mediators)
    assert combined_pullback_check(sq, mediators, sq, mediators, cfg0)
    # A zero corner over the same cospan commutes, but a cone whose legs both
    # carry the views of {(a)} has no mediator through it.
    zero_corner = PullbackSquare(
        ZERO,
        semantic_arrow(ZERO, pab, [BOTTOM], cfg0),
        semantic_arrow(ZERO, pab, [BOTTOM], cfg0),
        sq.f,
        sq.g,
    )
    assert square_mediators(zero_corner, classes, arrows) is None
    with pytest.raises(NotAPullback):
        combined_pullback_check(sq, mediators, zero_corner, None, cfg0)


def test_coproduct_pullback_rejects_different_shared_leg(cfg0, pa, pb, pab, classes):
    k1 = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    k2 = semantic_arrow(pab, pa, [BOTTOM], cfg0)
    sq1 = pullback(k1, semantic_arrow(pb, pa, [BOTTOM], cfg0))
    sq2 = pullback(k2, semantic_arrow(pb, pa, [BOTTOM], cfg0))
    with pytest.raises(NotAPullback):
        coproduct_pullback_check(sq1, sq2, cfg0, classes)


def _outcome(check, *args):
    """What a check returns, or the message of the ``NotAPullback`` it raises."""
    try:
        return check(*args)
    except NotAPullback as exc:
        return f"NotAPullback: {exc}"


def _hand_built_squares(cfg0, pa, pb, pab):
    """The squares of the tests above: three pullbacks, and four squares that
    are not, with a corner too big, a corner too small, a leg that breaks
    commuting and a zero corner no cone factors through."""
    f = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    g = semantic_arrow(pb, pa, [BOTTOM], cfg0)
    f2 = semantic_arrow(pab, pab, power_view(pab, cfg0), cfg0)
    g2 = semantic_arrow(pab, pab, power_view(pa, cfg0), cfg0)
    k = semantic_arrow(pab, pa, power_view(pa, cfg0), cfg0)
    tot = Instance(total_object(cfg0).relations, {})
    bottom = lambda source, target: semantic_arrow(source, target, [BOTTOM], cfg0)
    base = pullback(f2, g2)
    return [
        pullback(f, g),
        pullback(f2, f2),
        pullback(k, k),
        PullbackSquare(tot, bottom(tot, pab), bottom(tot, pb), f, g),
        PullbackSquare(ZERO, bottom(ZERO, pab), bottom(ZERO, pab), f2, f2),
        PullbackSquare(base.corner, bottom(base.corner, pab), base.right, f2, g2),
        PullbackSquare(ZERO, bottom(ZERO, pab), bottom(ZERO, pab), k, k),
    ]


def test_hand_built_squares_match_the_frozen_kernel(cfg0, pa, pb, pab, classes, arrows):
    squares = _hand_built_squares(cfg0, pa, pb, pab)
    tables = [square_mediators(sq, classes, arrows) for sq in squares]
    assert [m is None for m in tables] == [False] * 3 + [True] * 4
    assert tables == [frozen_pullback.square_mediators(sq, classes, arrows) for sq in squares]
    for (sq1, m1), (sq2, m2) in itertools.product(zip(squares, tables), repeat=2):
        args = (sq1, m1, sq2, m2, cfg0)
        expected = _outcome(frozen_pullback.combined_pullback_check, *args)
        assert _outcome(combined_pullback_check, *args) == expected


@pytest.mark.parametrize(
    "k_max, domain, step, count", [(1, "ab", 1, 47**2), (2, "ab", 1, 47**2), (1, "abc", 37, 2807)],
    ids=["1", "2", "abc-1"],
)
def test_every_hand_built_square_matches_the_frozen_kernel(k_max, domain, step, count):
    # Every corner and choice of legs over every cospan of classes at {a,b},
    # and every ``step``-th of the 47**3 at {a,b,c}: the frozen kernel also
    # tests that each mediator sits below both legs.
    cfg = UniverseConfig(domain=frozenset(domain), k_max=k_max)
    classes = closure_classes(cfg, 4)
    arrows = lambda a, b: semantic_arrows(a, b, cfg)
    squares = (
        PullbackSquare(corner, *legs)
        for corner, a, b, e in itertools.product(classes, repeat=4)
        for legs in itertools.product(
            arrows(corner, a), arrows(corner, b), arrows(a, e), arrows(b, e)
        )
    )
    verdicts = []
    for sq in itertools.islice(squares, 0, None, step):
        table = square_mediators(sq, classes, arrows)
        assert table == frozen_pullback.square_mediators(sq, classes, arrows)
        verdicts.append(table is not None)
    assert len(verdicts) == count and 0 < sum(verdicts) < len(verdicts)


def test_pullback_laws_match_the_frozen_kernel_at_abc(monkeypatch):
    # Every square both pullback laws verify at {a,b,c} (max-relations 2)
    # gets the frozen kernel's table, and every pair step its verdict.  Each
    # law builds 13^3 squares: coproduct-pullback one per cospan (k, h).
    ctx = suites.SuiteContext(UniverseConfig(domain=frozenset("abc"), k_max=1), 2)
    seen = {"squares": 0, "pairs": 0}

    def mediators(sq, vertices, arrows):
        table = square_mediators(sq, vertices, arrows)
        assert table == frozen_pullback.square_mediators(sq, vertices, arrows)
        seen["squares"] += 1
        return table

    def pair(*args):
        verdict = combined_pullback_check(*args)
        assert verdict == frozen_pullback.combined_pullback_check(*args)
        seen["pairs"] += 1
        return verdict

    monkeypatch.setattr(suites, "square_mediators", mediators)
    monkeypatch.setattr(suites, "combined_pullback_check", pair)
    pullbacks = suites.law_pullback(ctx)
    combined = suites.law_coproduct_pullback(ctx)
    assert (pullbacks.status, combined.status) == ("PASS", "PASS")
    assert seen == {"squares": 2 * 2197, "pairs": 42875}
    assert (pullbacks.checked, combined.checked) == (2197, 42875)


def test_negative_probes(cfg0):
    laws = run_suite("negative", cfg0).laws
    assert [(law.law, law.status, law.checked) for law in laws] == [
        ("negative.pullback-epi", "PASS", 1),
        ("negative.no-power-object", "PASS", 12),
        ("negative.not-well-pointed", "PASS", 1),
    ]


def test_negative_probes_catch_epi_preserving_pullbacks(cfg0, monkeypatch):
    # With every arrow epic, no pullback has a non-epic leg.
    monkeypatch.setattr(topos, "is_epi", lambda f: True)
    laws = {law.law: law for law in run_suite("negative", cfg0).laws}
    assert laws["negative.pullback-epi"].status == "FAIL"
    assert laws["negative.pullback-epi"].checked == 1
    assert laws["negative.not-well-pointed"].status == "PASS"


def test_points_all_collapse(cfg0, pab, classes):
    # every arrow out of the zero object transmits nothing, so any two
    # distinct parallel arrows witness the failure of well-pointedness
    from viewflux import identity, semantic_homset

    points = semantic_homset(ZERO, pab, cfg0)
    assert len(points) == 1
    assert points[0].relations == frozenset({BOTTOM})
    f = identity(pab, cfg0)
    g = empty_arrow(pab, pab, cfg0)
    assert not equiv(f, g)
    for pt in points:
        x = semantic_arrow(ZERO, pab, pt, cfg0)
        assert equiv(compose(f, x), compose(g, x))
