"""Exhaustive property suites over a bounded enumeration of instances.

A suite is every law whose name starts with the suite's name, in the order
of this module.  A law checks one identity or property over every instance,
pair, triple or arrow the enumeration provides and reports the number of
checks, any failures (with the first counterexample in canonical order)
and any flagged witnesses.  Flagged entries document known
divergences between the generator-level and closure-level readings of the
classifier; they never count as failures.  Reports render deterministically:
identical inputs give byte-identical text.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .catops import (
    composition_arrow,
    coproduct,
    eval_arrow,
    identity_element_arrow,
    matching,
    merge_arrow,
    merging,
    monoid_structure,
    omega_chain,
    principal_morphism,
    ret_category_probe,
    retraction_check,
    tensor_arrow,
    transpose,
)
from .closure import (
    closed_subsets,
    is_closed,
    isomorphic,
    po_leq,
    power_view,
    total_object,
    zero_object,
)
from .core import (
    BOTTOM,
    Instance,
    Relation,
    UniverseConfig,
    instance_count,
    instance_union,
    number_text,
    sorted_relations,
    subset_instances,
    with_default_labels,
    witness,
)
from .errors import EnumerationTooLarge, UnknownSuite, ViewfluxError
from .morphisms import (
    Morphism,
    arrow_po_leq,
    clear_arrows,
    compose,
    empty_arrow,
    equiv,
    identity,
    invert,
    is_epi,
    is_iso,
    is_mono,
    lift_arrow,
    semantic_arrow,
    semantic_arrows,
    totalize,
)
from .queries import (
    Base,
    ColEqConst,
    Join,
    Project,
    Select,
    Slot,
    UnionTerm,
    evaluate,
    flatten_term,
    slot_count,
)
from .topos import (
    classifier,
    classifier_audit,
    closure_classes,
    combined_pullback_check,
    equalizer_check,
    factorization_minimal,
    metric_suite,
    negative_probes,
    pullback,
    square_mediators,
    true_arrow,
)

#: Instances are enumerated with this many relations at most by default; at
#: the default two-constant domain this yields the full sixteen-instance
#: space.
DEFAULT_MAX_RELATIONS = 4


@dataclass
class LawResult:
    """Outcome of checking one law over the enumeration."""

    law: str
    statement: str
    checked: int
    failures: list[str] = field(default_factory=list)
    flagged: list[str] = field(default_factory=list)
    #: Seconds spent checking the law.  Laws checked together in one pass
    #: (``metric.*``, ``negative.*``) put the pass's time on the first law.
    elapsed: float = 0.0

    @property
    def status(self) -> str:
        if self.failures:
            return "FAIL"
        if self.flagged:
            return "FLAGGED"
        return "PASS"


@dataclass
class SuiteReport:
    """All law results for one suite run; PASS means zero failures."""

    suite: str
    cfg: UniverseConfig
    max_relations: int
    laws: list[LawResult]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(not law.failures for law in self.laws)


class SuiteContext:
    """Shared enumeration and caches for the law implementations."""

    def __init__(self, cfg: UniverseConfig, max_relations: int):
        self.cfg = cfg
        count = instance_count(cfg, max_relations)  # refuse before building an instance
        if count**3 > cfg.max_enumeration:  # metric.triangle walks every triple
            raise EnumerationTooLarge(
                f"{number_text(count)} instances enumerated; "
                f"the suites walk their {number_text(count**3)} triples, "
                f"over the enumeration bound {cfg.max_enumeration}. "
                "Lower max_relations (or raise max_enumeration)."
            )
        self.instances = list(subset_instances(cfg, max_relations))
        self.total = total_object(cfg)
        self.zero = zero_object()
        self.closed_objects = list(closed_subsets(self.total, cfg))
        # after the bounds above, so that a bound that fails stops before this pass
        self.classes = closure_classes(cfg, max_relations, self.instances)
        self._arrows: dict = {}

    def arrows(self, a: Instance, b: Instance) -> tuple[Morphism, ...]:
        """``semantic_arrows(a, b)``, built on first use: the run's one hom-set table."""
        key = (a.relations, b.relations)
        if key not in self._arrows:
            self._arrows[key] = semantic_arrows(a, b, self.cfg)
        return self._arrows[key]


def _laws(*laws: tuple[str, str], over: str | None = None, repeat: int = 1) -> Callable:
    """Wrap a generator of checks into a function checking ``laws``, given as
    (name, statement) pairs, in one pass.  The function records its suite,
    the part of the first name before the dot.

    A check is ``True`` when it passes, else its witness, a string or a
    ``witness`` thunk, or a ``Flag`` of a flagged item's witness: laws write
    ``yield ok or witness(...)``; any other check raises ``ViewfluxError``.
    When several laws share the pass, each check is ``(law, check)``.  A
    thunk is rendered only for the first five failures or flags, all the
    report keeps.  One law gives one ``LawResult``, several give a list in
    the order of ``laws`` with the pass's time on the first.

    With ``over``, the name of an enumeration of the context (``instances``,
    ``classes`` or ``closed_objects``), ``fn`` is a predicate instead: it is
    checked as ``fn(ctx, *item)`` on every ``repeat``-tuple of the
    enumeration, in ``itertools.product`` order, with witness ``witness(*item)``.
    """

    def decorate(fn):
        def predicate_checks(ctx):
            for item in itertools.product(getattr(ctx, over), repeat=repeat):
                yield fn(ctx, *item) or witness(*item)

        checks = fn if over is None else predicate_checks

        def run(ctx: SuiteContext) -> LawResult | list[LawResult]:
            started = time.perf_counter()
            clear_arrows()
            results = [LawResult(name, statement, 0) for name, statement in laws]
            by_name = {result.law: result for result in results}
            grouped = len(results) > 1
            result = results[0]
            for check in checks(ctx):
                if grouped:
                    result, check = by_name[check[0]], check[1]
                result.checked += 1
                if check is not True:
                    _record(result, check)
            results[0].elapsed = time.perf_counter() - started
            return results if grouped else result

        run.suite = laws[0][0].split(".")[0]
        return run

    return decorate


def _law(law: str, statement: str, over: str | None = None, repeat: int = 1) -> Callable:
    """``_laws`` for a law checked on its own."""
    return _laws((law, statement), over=over, repeat=repeat)


def _arrow_law(law: str, statement: str) -> Callable:
    """``_law`` for a predicate ``fn(ctx, f)`` checked on every arrow ``f`` of
    ``ctx.arrows(a, b)``, over the class pairs ``(a, b)`` in canonical order."""

    def decorate(fn):
        def checks(ctx):
            for a, b in itertools.product(ctx.classes, repeat=2):
                for f in ctx.arrows(a, b):
                    yield fn(ctx, f) or witness(a, b, f.flux)

        return _law(law, statement)(checks)

    return decorate


class Flag(NamedTuple):
    """The check of a flagged item: reported with its witness, never a failure."""

    witness: str | Callable[[], str]


def _record(result: LawResult, check) -> None:
    """Keep a failing or flagged check, rendered, among the first five of ``result``."""
    kept = result.failures
    if isinstance(check, Flag):
        kept, check = result.flagged, check.witness
    if not (isinstance(check, str) or callable(check)):
        raise ViewfluxError(f"law {result.law} gave a check of type {type(check).__name__}; "
                            "a check is True, a Flag or a witness")
    if len(kept) < 5:
        kept.append(check if isinstance(check, str) else check())


# --- closure laws ---------------------------------------------------------


@_law("closure.extensive", "every instance is contained in its view closure", over="instances")
def law_closure_extensive(ctx, a):
    return a.relations <= power_view(a, ctx.cfg).relations


@_law("closure.monotone", "instance inclusion is preserved by the closure")
def law_closure_monotone(ctx):
    for a, b in itertools.combinations(ctx.instances, 2):
        small, big = (a, b) if a.relations <= b.relations else (b, a)
        if not small.relations <= big.relations:
            continue
        ok = power_view(small, ctx.cfg).relations <= power_view(big, ctx.cfg).relations
        yield ok or witness(small, big)


@_law("closure.idempotent", "closing a closure changes nothing", over="instances")
def law_closure_idempotent(ctx, a):
    ta = power_view(a, ctx.cfg)
    return power_view(ta, ctx.cfg).relations == ta.relations


@_law("closure.bottom", "the zero object is its own closure")
def law_closure_bottom(ctx):
    yield power_view(ctx.zero, ctx.cfg).relations == frozenset({BOTTOM}) or witness(ctx.zero)
    yield power_view(Instance(frozenset(), {}), ctx.cfg).relations == frozenset({BOTTOM}) or "empty instance"


@_law("closure.total-fixpoint", "the total object is a fixed point of the closure")
def law_closure_total(ctx):
    yield power_view(ctx.total, ctx.cfg).relations == ctx.total.relations or witness(ctx.total)


@_law("closure.algebraic", "a closure is the union of the closures of the finite subinstances",
      over="instances")
def law_closure_algebraic(ctx, a):
    rels = sorted_relations(a.relations)
    union: set[Relation] = set()
    for k in range(len(rels) + 1):
        for combo in itertools.combinations(rels, k):
            union |= power_view(Instance(frozenset(combo), {}), ctx.cfg).relations
    return union == power_view(a, ctx.cfg).relations


@_law("closure.intersections", "closed instances are closed under intersection",
      over="closed_objects", repeat=2)
def law_closure_intersections(ctx, x, y):
    return is_closed(Instance(x.relations & y.relations, {}), ctx.cfg)


@_law("closure.order", "behavioral inclusion is closure inclusion; equivalence is equality",
      over="instances", repeat=2)
def law_closure_order(ctx, a, b):
    ta = power_view(a, ctx.cfg).relations
    tb = power_view(b, ctx.cfg).relations
    ok = po_leq(a, b, ctx.cfg) == (ta <= tb)
    ok = ok and isomorphic(a, b, ctx.cfg) == (ta == tb)
    return ok and isomorphic(a, power_view(a, ctx.cfg), ctx.cfg)


# --- category laws --------------------------------------------------------


@_law("category.flux-composition", "a composite transmits exactly the common views")
def law_flux_composition(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        for f in ctx.arrows(a, b):
            for g in ctx.arrows(b, c):
                h = compose(g, f)
                ok = h.flux.relations == g.flux.relations & f.flux.relations
                yield ok or witness(f.flux, g.flux)


@_law("category.associativity", "composition is associative up to equivalence")
def law_associativity(ctx):
    for b, c, d, a in itertools.product(ctx.classes, repeat=4):
        gs, hs = ctx.arrows(b, c), ctx.arrows(c, d)
        for f in ctx.arrows(a, b):
            for g in gs:
                gf = compose(g, f)
                for h in hs:
                    yield compose(h, gf).flux.mask == compose(compose(h, g), f).flux.mask or witness(f.flux, g.flux, h.flux)


@_law("category.identity", "identities are neutral for composition")
def law_identity(ctx):
    for a in ctx.instances:
        yield is_iso(identity(a, ctx.cfg)) or witness(a)
    identities = {a: identity(a, ctx.cfg) for a in ctx.classes}
    for a, b in itertools.product(ctx.classes, repeat=2):
        ida, idb = identities[a], identities[b]
        for f in ctx.arrows(a, b):
            ok = equiv(compose(idb, f), f) and equiv(compose(f, ida), f)
            yield ok or witness(a, b, f.flux)


def _cancels(f: Morphism, homsets: Iterable[tuple[Morphism, ...]]) -> bool:
    """Whether meeting with the flux of ``f`` is injective on each hom-set
    (whose fluxes are distinct): ``f`` cancels against the arrows of each."""
    return all(len({f.flux.mask & g.flux.mask for g in hs}) == len(hs) for hs in homsets)


@_arrow_law("category.mono-cancellation", "an arrow is monic exactly when it cancels on the left")
def law_mono_cancellation(ctx, f):
    return is_mono(f) == _cancels(f, [ctx.arrows(c, f.source) for c in ctx.classes])


@_arrow_law("category.epi-cancellation", "an arrow is epic exactly when it cancels on the right")
def law_epi_cancellation(ctx, f):
    return is_epi(f) == _cancels(f, [ctx.arrows(f.target, c) for c in ctx.classes])


@_arrow_law("category.mono-epi-iso", "an isomorphism, a monic epic arrow, joins equivalent instances")
def law_mono_epi_iso(ctx, f):
    return not is_iso(f) or isomorphic(f.source, f.target, ctx.cfg)


@_arrow_law("category.two-cells", "flux inclusion orders parallel arrows; antisymmetry is equivalence")
def law_two_cells(ctx, f):
    ok = arrow_po_leq(f, f) and arrow_po_leq(empty_arrow(f.source, f.target, ctx.cfg), f)
    return ok and all(
        equiv(f, g)
        for g in ctx.arrows(f.source, f.target)
        if arrow_po_leq(f, g) and arrow_po_leq(g, f)
    )


@_arrow_law("category.closure-functor", "lifting to closures preserves flux, mono, epi and iso")
def law_closure_functor(ctx, f):
    lifted = lift_arrow(f)
    ok = lifted.flux.relations == f.flux.relations
    ok = ok and is_mono(lifted) == is_mono(f)
    ok = ok and is_epi(lifted) == is_epi(f)
    return ok and is_iso(lifted) == is_iso(f)


@_arrow_law("category.duality", "reversal keeps the flux, is involutive and swaps monic with epic")
def law_duality(ctx, f):
    rev = invert(f)
    ok = rev.flux.relations == f.flux.relations
    ok = ok and rev.source == f.target and rev.target == f.source
    ok = ok and equiv(invert(rev), f)
    return ok and is_mono(f) == is_epi(rev) and is_epi(f) == is_mono(rev)


@_law("category.totalize", "arrows between closed instances are faithful total tables")
def law_totalize(ctx):
    for a, b in itertools.product(ctx.closed_objects, repeat=2):
        arrows = ctx.arrows(a, b)
        tables = [totalize(f) for f in arrows]
        for i, f in enumerate(arrows):
            ok = all(
                tables[i][v] == (v if v in f.flux.relations else BOTTOM)
                for v in a.relations
            )
            for j in range(len(arrows)):
                ok = ok and (tables[i] == tables[j]) == equiv(f, arrows[j])
            yield ok or witness(a, b, f.flux)


@_law("category.retraction", "the reversal of a monomorphism retracts it")
def law_retraction(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            if not is_mono(f):
                continue
            yield retraction_check(f) or witness(a, b, f.flux)


@_law("category.idempotents", "arrows between endomorphism fluxes match fixed endomorphisms",
      over="classes")
def law_idempotents(ctx, a):
    return ret_category_probe(a, ctx.cfg)


@_arrow_law("category.principal", "the largest arrow between two instances factors every other")
def law_principal(ctx, f):
    h = principal_morphism(f.source, f.target, ctx.cfg)
    g = semantic_arrow(f.source, f.source, f.flux, ctx.cfg)
    return f.flux.relations <= h.flux.relations and equiv(compose(h, g), f)


@_law("category.monad", "the closure is a monad: unit is inclusion, multiplication collapses")
def law_monad(ctx):
    for a in ctx.instances:
        ta = power_view(a, ctx.cfg)
        tta = power_view(ta, ctx.cfg)
        yield a.relations <= ta.relations and tta.relations == ta.relations or witness(a)
    contexts = [
        Slot(1, 1),
        Select(ColEqConst(1, min(ctx.cfg.constants())), Slot(1, 1)),
        UnionTerm(Slot(1, 1), Slot(2, 1)),
        Project((1,), Join(Slot(1, 1), Slot(2, 1))),
    ]
    for a in ctx.instances:
        labeled = with_default_labels(a)
        # The slot contexts are unary, so only unary (or empty) bases fit.
        bases = [
            Base(n)
            for n in sorted(labeled.labels)
            if labeled.labels[n].is_bottom or labeled.labels[n].arity == 1
        ]
        if not bases:
            continue
        for term in contexts:
            k = slot_count(term)
            for subs in itertools.product(bases, repeat=k):
                direct = evaluate(flatten_term(term, list(subs)), labeled)
                staged = evaluate(
                    term, labeled, slots=[evaluate(s, labeled) for s in subs]
                )
                yield direct == staged or witness(a, term)


# --- monoidal laws --------------------------------------------------------


@_law("monoidal.commutative", "matching is commutative", over="instances", repeat=2)
def law_tensor_commutative(ctx, a, b):
    return matching(a, b, ctx.cfg).relations == matching(b, a, ctx.cfg).relations


@_law("monoidal.associative", "matching is associative", over="classes", repeat=3)
def law_tensor_associative(ctx, a, b, c):
    lhs = matching(matching(a, b, ctx.cfg), c, ctx.cfg)
    rhs = matching(a, matching(b, c, ctx.cfg), ctx.cfg)
    return lhs.relations == rhs.relations


@_law("monoidal.idempotent-unit-zero",
      "self-matching is the closure; total and zero are unit and absorbing", over="instances")
def law_tensor_units(ctx, a):
    ta = power_view(a, ctx.cfg).relations
    ok = matching(a, a, ctx.cfg).relations == ta
    ok = ok and matching(a, ctx.total, ctx.cfg).relations == ta
    return ok and matching(a, ctx.zero, ctx.cfg).relations == frozenset({BOTTOM})


@_law("monoidal.arrow-tensor", "the matching of two arrows transmits the common views")
def law_arrow_tensor(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for c, d in itertools.product(ctx.classes, repeat=2):
            gs = ctx.arrows(c, d)
            for f in ctx.arrows(a, b):
                for g in gs:
                    ok = tensor_arrow(f, g).flux.mask == f.flux.mask & g.flux.mask
                    yield ok or witness(f.flux, g.flux)


@_arrow_law("monoidal.flux-range", "every flux sits between the zero object and the matching")
def law_flux_range(ctx, f):
    bound = matching(f.source, f.target, ctx.cfg).relations
    return BOTTOM in f.flux.relations and f.flux.relations <= bound


@_law("monoidal.monoid", "every instance is a monoid: iso multiplication, epi unit",
      over="instances")
def law_monoid(ctx, a):
    mu, eta = monoid_structure(a, ctx.cfg)
    ta = power_view(a, ctx.cfg).relations
    ok = is_iso(mu) and is_epi(eta)
    ok = ok and mu.flux.relations == ta and eta.flux.relations == ta
    unit_flux = eta.flux.relations & identity(a, ctx.cfg).flux.relations
    return ok and (mu.flux.relations & unit_flux) == ta


@_law("monoidal.hom-object", "the internal hom equals the matching, merged from all fluxes")
def law_hom_object(ctx):
    for b, c in itertools.product(ctx.classes, repeat=2):
        hom = matching(b, c, ctx.cfg)
        ok = hom.relations == matching(c, b, ctx.cfg).relations
        merged: set[Relation] = set()
        for f in ctx.arrows(b, c):
            merged |= f.flux.relations
        ok = ok and power_view(Instance(frozenset(merged), {}), ctx.cfg).relations == hom.relations
        yield ok or witness(b, c)
    for c in ctx.classes:
        hom = matching(c, ctx.total, ctx.cfg)
        yield hom.relations == power_view(c, ctx.cfg).relations or witness(c)


@_law("monoidal.hom-counting", "currying is a bijection of hom-sets", over="classes", repeat=3)
def law_hom_counting(ctx, a, b, c):
    tensor_ab = matching(a, b, ctx.cfg)
    return len(ctx.arrows(tensor_ab, c)) == len(ctx.arrows(a, matching(b, c, ctx.cfg)))


@_law("monoidal.exponent", "evaluation is monic and the currying triangle commutes on fluxes")
def law_exponent(ctx):
    for b, c in itertools.product(ctx.classes, repeat=2):
        ev = eval_arrow(b, c, ctx.cfg)
        ok = is_mono(ev) and ev.flux.relations == matching(b, c, ctx.cfg).relations
        yield ok or witness(b, c)
    identities = {b: identity(b, ctx.cfg) for b in ctx.classes}
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        tensor_ab = matching(a, b, ctx.cfg)
        ev = eval_arrow(b, c, ctx.cfg)
        idb = identities[b]
        for f in ctx.arrows(tensor_ab, c):
            lam = transpose(f, a, b, ctx.cfg)
            ok = lam.flux.relations == f.flux.relations
            paired = lam.flux.relations & idb.flux.relations
            ok = ok and (ev.flux.relations & paired) == f.flux.relations
            yield ok or witness(a, b, c, f.flux)


@_law("monoidal.internal-arrows", "internal composition is monic, the internal identity is epic")
def law_internal_arrows(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        m = composition_arrow(a, b, c, ctx.cfg)
        expected = (
            power_view(a, ctx.cfg).relations
            & power_view(b, ctx.cfg).relations
            & power_view(c, ctx.cfg).relations
        )
        yield is_mono(m) and m.flux.relations == expected or witness(a, b, c)
    for a in ctx.classes:
        j = identity_element_arrow(a, ctx.cfg)
        yield is_epi(j) and j.flux.relations == power_view(a, ctx.cfg).relations or witness(a)


# --- lattice laws ---------------------------------------------------------


@_law("lattice.join-laws", "merging is commutative, associative and idempotent")
def law_join_laws(ctx):
    for a, b in itertools.product(ctx.instances, repeat=2):
        ok = merging(a, b, ctx.cfg).relations == merging(b, a, ctx.cfg).relations
        yield ok or witness(a, b)
    for a in ctx.instances:
        yield merging(a, a, ctx.cfg).relations == power_view(a, ctx.cfg).relations or witness(a)
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        lhs = merging(merging(a, b, ctx.cfg), c, ctx.cfg)
        rhs = merging(a, merging(b, c, ctx.cfg), ctx.cfg)
        yield lhs.relations == rhs.relations or witness(a, b, c)


@_law("lattice.absorption", "each operation absorbs the other", over="instances", repeat=2)
def law_absorption(ctx, a, b):
    ta = power_view(a, ctx.cfg).relations
    ok = merging(a, matching(a, b, ctx.cfg), ctx.cfg).relations == ta
    return ok and matching(a, merging(a, b, ctx.cfg), ctx.cfg).relations == ta


@_law("lattice.inf-sup", "matching is the meet and merging the join of the behavioral order",
      over="classes", repeat=2)
def law_inf_sup(ctx, a, b):
    inf = matching(a, b, ctx.cfg)
    sup = merging(a, b, ctx.cfg)
    ok = po_leq(inf, a, ctx.cfg) and po_leq(inf, b, ctx.cfg)
    ok = ok and po_leq(a, sup, ctx.cfg) and po_leq(b, sup, ctx.cfg)
    for c in ctx.classes:
        if po_leq(c, a, ctx.cfg) and po_leq(c, b, ctx.cfg):
            ok = ok and po_leq(c, inf, ctx.cfg)
        if po_leq(a, c, ctx.cfg) and po_leq(b, c, ctx.cfg):
            ok = ok and po_leq(sup, c, ctx.cfg)
    return ok


@_law("lattice.distributive", "matching distributes over merging on closed instances",
      over="classes", repeat=3)
def law_distributive(ctx, a, b, c):
    lhs = matching(merging(a, b, ctx.cfg), c, ctx.cfg)
    plain_union = matching(a, c, ctx.cfg).relations | matching(b, c, ctx.cfg).relations
    rhs = merging(matching(a, c, ctx.cfg), matching(b, c, ctx.cfg), ctx.cfg)
    return lhs.relations == rhs.relations and plain_union <= lhs.relations


@_law("lattice.bounds", "the zero object is the bottom and the total object the top",
      over="instances")
def law_bounds(ctx, a):
    ta = power_view(a, ctx.cfg).relations
    ok = po_leq(ctx.zero, a, ctx.cfg) and po_leq(a, ctx.total, ctx.cfg)
    ok = ok and merging(a, ctx.zero, ctx.cfg).relations == ta
    ok = ok and merging(a, ctx.total, ctx.cfg).relations == ctx.total.relations
    return ok and merging(a, Instance(ta, {}), ctx.cfg).relations == ta


@_law("lattice.closed-count", "the total object has 2**|domain| closed subsets, distinct fixed points")
def law_closed_count(ctx):
    computed = closed_subsets(ctx.total, ctx.cfg)
    ok = len(computed) == len({c.relations for c in computed}) == 2 ** len(ctx.cfg.domain)
    ok = ok and all(c.relations <= ctx.total.relations and is_closed(c, ctx.cfg) for c in computed)
    yield ok or f"{len(computed)} closed subsets"


@_law("lattice.sup-all", "merging every instance yields the total object")
def law_sup_all(ctx):
    merged = ctx.zero
    for a in ctx.instances:
        merged = merging(merged, a, ctx.cfg)
    yield merged.relations == ctx.total.relations or witness(len(ctx.instances))


@_law("lattice.federation", "the union of two instances is equivalent to their merging",
      over="classes", repeat=2)
def law_federation(ctx, a, b):
    return isomorphic(instance_union(a, b), merging(a, b, ctx.cfg), ctx.cfg)


@_law("lattice.merge-functor", "merging with a fixed instance is a functor")
def law_merge_functor(ctx):
    identities = {b: identity(b, ctx.cfg) for b in ctx.classes}
    for a, b in itertools.product(ctx.classes, repeat=2):
        lifted = merge_arrow(a, identities[b])
        ok = lifted.flux.relations == merging(a, b, ctx.cfg).relations
        yield ok or witness(a, b)
    for a, b, c, d in itertools.product(ctx.classes, repeat=4):
        gs = ctx.arrows(c, d)
        for f in ctx.arrows(b, c):
            af = merge_arrow(a, f)
            for g in gs:
                ok = merge_arrow(a, compose(g, f)).flux.mask == compose(merge_arrow(a, g), af).flux.mask
                yield ok or witness(a, f.flux, g.flux)


@_law("lattice.omega-chain", "iterated merging reaches the closure at the first step",
      over="instances")
def law_omega_chain(ctx, a):
    chain = omega_chain(a, ctx.cfg, 3)
    ta = power_view(a, ctx.cfg).relations
    ok = chain[0].relations == frozenset({BOTTOM})
    return ok and all(step.relations == ta for step in chain[1:])


@_law("lattice.coproduct-count", "the doubled closure counts both components once, sharing the bottom")
def law_coproduct_count(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        if a.relations <= ctx.zero.relations or b.relations <= ctx.zero.relations:
            continue
        both = coproduct(a, b)
        na = len(power_view(a, ctx.cfg).relations)
        nb = len(power_view(b, ctx.cfg).relations)
        ok = len(power_view(both, ctx.cfg).relations) == na + nb - 1
        yield ok or witness(a, b)
    for a in ctx.classes:
        if a.relations <= ctx.zero.relations:
            continue
        doubled = coproduct(a, a)
        na = len(power_view(a, ctx.cfg).relations)
        yield len(power_view(doubled, ctx.cfg).relations) == 2 * na - 1 or witness(a)
    yield isomorphic(coproduct(ctx.zero, ctx.classes[-1]), ctx.classes[-1], ctx.cfg) or "zero unit"


# --- metric laws ----------------------------------------------------------


@_laws(
    ("metric.symmetry", "distance is symmetric"),
    ("metric.self-distance", "the distance of an instance to itself is the total object"),
    ("metric.indiscernible", "total distance implies behavioral equivalence"),
    ("metric.triangle", "matching two distances refines the direct distance"),
    ("metric.order", "behavioral inclusion matches distance refinement at the top and every inequivalent instance"),
    ("metric.locally-closed", "distances from an instance embed into its endomorphism fluxes"),
    ("metric.infinite-distance", "every distance contains the bottom; the zero object is infinitely far"),
)
def law_metric(ctx):
    return metric_suite(ctx.cfg, ctx.instances)


# --- topos laws -----------------------------------------------------------


@_law("topos.pullback", "canonical squares have closed meet corners and verify the two-cell universal property")
def law_pullback(ctx):
    for c in ctx.classes:
        for a, b in itertools.product(ctx.classes, repeat=2):
            gs = ctx.arrows(b, c)
            for f in ctx.arrows(a, c):
                for g in gs:
                    sq = pullback(f, g)
                    ok = sq.corner.mask == f.flux.mask & g.flux.mask
                    ok = ok and is_closed(sq.corner, ctx.cfg)
                    ok = ok and is_mono(sq.left) and is_mono(sq.right)
                    ok = ok and square_mediators(sq, ctx.classes, ctx.arrows) is not None
                    yield ok or witness(f.flux, g.flux)


def _inclusions(ctx):
    """The monomorphism of each class pair ``(a, b)`` with ``a`` behaviorally below ``b``."""
    for a, b in itertools.product(ctx.classes, repeat=2):
        if po_leq(a, b, ctx.cfg):
            yield a, b, semantic_arrow(a, b, power_view(a, ctx.cfg), ctx.cfg)


@_law("topos.classifier", "every monomorphism has a generator-level characteristic arrow")
def law_classifier(ctx):
    for a, b, mono in _inclusions(ctx):
        char, report = classifier(mono, ctx.cfg, ctx.classes)
        ok = report.generator_commutes and report.factorization_ok
        ok = ok and report.char_class_size == 1
        yield ok or witness(a, b)


@_law("topos.classifier-audit", "closing the generator set may meet the subobject (documented divergence)")
def law_classifier_audit(ctx):
    for a, b, mono in _inclusions(ctx):
        _, audit = classifier_audit(mono, ctx.cfg)
        yield audit == {BOTTOM} or Flag(lambda a=a, b=b, audit=audit: (
            f"{witness(a, b)()}: closure of generators meets the subobject in "
            f"{sorted_relations(audit)!r}"
        ))


@_law("topos.equalizer", "every monomorphism equalizes its characteristic arrow and true")
def law_equalizer(ctx):
    for a, b, mono in _inclusions(ctx):
        yield equalizer_check(mono, ctx.cfg, ctx.classes) or witness(a, b)


@_law("topos.true-arrow", "the true arrow transmits nothing and targets the classifier")
def law_true_arrow(ctx):
    t = true_arrow(ctx.cfg)
    ok = t.flux.relations == frozenset({BOTTOM})
    yield ok and t.target.relations == ctx.total.relations or "true"


@_arrow_law("topos.factorization", "every arrow factors epi-mono through its flux, minimally")
def law_factorization(ctx, f):
    return factorization_minimal(f, ctx.cfg, ctx.classes)


@_law("topos.coproduct-pullback", "combining two pullback squares over a shared leg is a pullback")
def law_coproduct_pullback(ctx):
    small = [ctx.zero, ctx.classes[-1]]
    for e in ctx.classes:
        legs = [h for b in ctx.classes for h in ctx.arrows(b, e)]
        for d in ctx.classes:
            for k in ctx.arrows(d, e):
                squares = [pullback(k, h) for h in legs]
                tables = [(sq, square_mediators(sq, small, ctx.arrows)) for sq in squares]
                for (sq1, m1), (sq2, m2) in itertools.product(tables, repeat=2):
                    ok = combined_pullback_check(sq1, m1, sq2, m2, ctx.cfg)
                    yield ok or witness(k.flux, sq1.g.flux, sq2.g.flux)


# --- negative probes ------------------------------------------------------


@_laws(
    ("negative.pullback-epi", "a pullback of an epimorphism with a non-epic leg exists"),
    ("negative.no-power-object", "no candidate satisfies the power-object counting bijection"),
    ("negative.not-well-pointed", "distinct parallel arrows agree on every point"),
)
def law_negative(ctx):
    return negative_probes(ctx.cfg, ctx.classes)


# --- suite registry and runner -------------------------------------------


def _suites() -> dict[str, list]:
    """Every law of this module, in definition order, under its suite."""
    suites: dict[str, list] = {}
    for name, law in globals().items():
        if name.startswith("law_"):
            suites.setdefault(law.suite, []).append(law)
    return suites


SUITES: dict[str, list] = _suites()
SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(
    name: str,
    cfg: UniverseConfig,
    max_relations: int = DEFAULT_MAX_RELATIONS,
) -> SuiteReport:
    """Run one suite (or all of them) and collect per-law results."""
    if name not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    law_fns: Iterable = (
        itertools.chain.from_iterable(SUITES.values()) if name == "all" else SUITES[name]
    )
    started = time.perf_counter()
    ctx = SuiteContext(cfg, max_relations)
    laws: list[LawResult] = []
    for fn in law_fns:
        outcome = fn(ctx)
        laws.extend(outcome if isinstance(outcome, list) else [outcome])
    return SuiteReport(name, cfg, max_relations, laws, time.perf_counter() - started)


def render_report(report: SuiteReport, timings: bool = False) -> str:
    """Deterministic plain-text report: one line per law."""
    lines = [
        f"suite: {report.suite}",
        "config: domain={{{}}} k_max={} max_relations={}".format(
            ",".join(sorted(report.cfg.domain)), report.cfg.k_max, report.max_relations
        ),
    ]
    for law in report.laws:
        line = f"{law.status:<7} {law.law:<28} checked={law.checked}"
        if law.failures:
            line += f" first_failure={law.failures[0]}"
        if law.flagged:
            line += f" flagged={len(law.flagged)} first={law.flagged[0]}"
        if timings:
            line += f" elapsed={law.elapsed:.3f}s"
        lines.append(line)
    failed = sum(1 for law in report.laws if law.failures)
    flagged = sum(1 for law in report.laws if law.flagged and not law.failures)
    verdict = "PASS" if report.ok else "FAIL"
    lines.append(
        f"result: {verdict} ({len(report.laws)} laws, {failed} failed, {flagged} flagged)"
    )
    if timings:
        lines.append(f"elapsed: {report.elapsed:.2f}s")
    return "\n".join(lines) + "\n"
