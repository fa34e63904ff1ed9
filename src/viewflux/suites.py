"""Exhaustive property suites over a bounded enumeration of instances.

Each suite runs a list of laws.  A law checks one identity or property over
every instance, pair, triple or arrow the enumeration provides and reports
the number of checks, any failures (with the first counterexample in
canonical order) and any flagged witnesses.  Flagged entries document known
divergences between the generator-level and closure-level readings of the
classifier; they never count as failures.  Reports render deterministically:
identical inputs give byte-identical text.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .catops import (
    composition_arrow,
    coproduct,
    eval_arrow,
    hom_object,
    identity_element_arrow,
    lattice_inf,
    lattice_sup,
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
    brute_force_closed_subsets,
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
    instance_union,
    sorted_relations,
    subset_instances,
    with_default_labels,
)
from .errors import EnumerationTooLarge, UnknownSuite
from .morphisms import (
    Morphism,
    arrow_po_leq,
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
    semantic_homset,
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
    closure_classes,
    coproduct_pullback_check,
    equalizer_check,
    factorization_minimal,
    is_pullback_square,
    metric_suite,
    negative_probes,
    pullback,
    true_arrow,
)

#: Instances are enumerated with this many relations at most by default; at
#: the default two-constant domain this yields the full sixteen-instance
#: space.
DEFAULT_MAX_RELATIONS = 4
#: The suites iterate over triples of instances, so the enumeration is
#: capped at this many instances by default.
DEFAULT_MAX_INSTANCES = 64


@dataclass
class LawResult:
    """Outcome of checking one law over the enumeration."""

    law: str
    statement: str
    checked: int
    failures: list[str] = field(default_factory=list)
    flagged: list[str] = field(default_factory=list)

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

    def __init__(self, cfg: UniverseConfig, max_relations: int, max_instances: int = DEFAULT_MAX_INSTANCES):
        self.cfg = cfg
        self.max_relations = max_relations
        self.instances = list(subset_instances(cfg, max_relations))
        if len(self.instances) > max_instances:
            raise EnumerationTooLarge(
                f"{len(self.instances)} instances enumerated; the suites iterate "
                f"triples, so at most {max_instances} are allowed. Lower "
                f"max_relations (or raise max_instances)."
            )
        self.classes = closure_classes(cfg, max_relations)
        self.total = Instance(total_object(cfg).relations, {})
        self.zero = Instance(zero_object().relations, {})
        self.closed_objects = [
            Instance(c.relations, {}) for c in closed_subsets(total_object(cfg), cfg)
        ]
        self._homsets: dict = {}

    def homset(self, a: Instance, b: Instance) -> tuple[frozenset[Relation], ...]:
        key = (a.relations, b.relations)
        if key not in self._homsets:
            self._homsets[key] = tuple(
                h.relations for h in semantic_homset(a, b, self.cfg)
            )
        return self._homsets[key]

    def arrows(self, a: Instance, b: Instance) -> list[Morphism]:
        return [semantic_arrow(a, b, flux, self.cfg) for flux in self.homset(a, b)]


def _law(law: str, statement: str) -> Callable:
    """Wrap a generator of (ok, witness) pairs into a law function."""

    def decorate(fn):
        def run(ctx: SuiteContext) -> LawResult:
            result = LawResult(law, statement, 0)
            for item in fn(ctx):
                ok, witness = item[0], item[1]
                flag = len(item) > 2 and item[2]
                result.checked += 1
                if flag:
                    if len(result.flagged) < 5:
                        result.flagged.append(witness)
                elif not ok and len(result.failures) < 5:
                    result.failures.append(witness)
            return result

        run.law = law
        return run

    return decorate


def _fmt(*parts) -> str:
    return "; ".join(repr(p) for p in parts)


# --- closure laws ---------------------------------------------------------


@_law("closure.extensive", "every instance is contained in its view closure")
def law_closure_extensive(ctx):
    for a in ctx.instances:
        yield a.relations <= power_view(a, ctx.cfg).relations, _fmt(a)


@_law("closure.monotone", "instance inclusion is preserved by the closure")
def law_closure_monotone(ctx):
    for a, b in itertools.combinations(ctx.instances, 2):
        small, big = (a, b) if a.relations <= b.relations else (b, a)
        if not small.relations <= big.relations:
            continue
        ok = power_view(small, ctx.cfg).relations <= power_view(big, ctx.cfg).relations
        yield ok, _fmt(small, big)


@_law("closure.idempotent", "closing a closure changes nothing")
def law_closure_idempotent(ctx):
    for a in ctx.instances:
        ta = power_view(a, ctx.cfg)
        yield power_view(Instance(ta.relations, {}), ctx.cfg).relations == ta.relations, _fmt(a)


@_law("closure.bottom", "the zero object is its own closure")
def law_closure_bottom(ctx):
    yield power_view(ctx.zero, ctx.cfg).relations == frozenset({BOTTOM}), _fmt(ctx.zero)
    yield power_view(Instance(frozenset(), {}), ctx.cfg).relations == frozenset({BOTTOM}), "empty instance"


@_law("closure.total-fixpoint", "the total object is a fixed point of the closure")
def law_closure_total(ctx):
    yield power_view(ctx.total, ctx.cfg).relations == ctx.total.relations, _fmt(ctx.total)


@_law("closure.algebraic", "a closure is the union of the closures of the finite subinstances")
def law_closure_algebraic(ctx):
    for a in ctx.instances:
        rels = sorted_relations(a.relations)
        union: set[Relation] = set()
        for k in range(len(rels) + 1):
            for combo in itertools.combinations(rels, k):
                union |= power_view(Instance(frozenset(combo), {}), ctx.cfg).relations
        yield union == power_view(a, ctx.cfg).relations, _fmt(a)


@_law("closure.intersections", "closed instances are closed under intersection")
def law_closure_intersections(ctx):
    for x, y in itertools.product(ctx.closed_objects, repeat=2):
        meet = Instance(x.relations & y.relations, {})
        yield is_closed(meet, ctx.cfg), _fmt(x, y)


@_law("closure.order", "behavioral inclusion is closure inclusion; equivalence is equality")
def law_closure_order(ctx):
    for a, b in itertools.product(ctx.instances, repeat=2):
        ta = power_view(a, ctx.cfg).relations
        tb = power_view(b, ctx.cfg).relations
        ok = po_leq(a, b, ctx.cfg) == (ta <= tb)
        ok = ok and isomorphic(a, b, ctx.cfg) == (ta == tb)
        ok = ok and isomorphic(a, Instance(ta, {}), ctx.cfg)
        yield ok, _fmt(a, b)


# --- category laws --------------------------------------------------------


@_law("category.flux-composition", "a composite transmits exactly the common views")
def law_flux_composition(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        for f in ctx.arrows(a, b):
            for g in ctx.arrows(b, c):
                h = compose(g, f)
                ok = h.flux.relations == g.flux.relations & f.flux.relations
                yield ok, _fmt(f.flux, g.flux)


@_law("category.associativity", "composition is associative up to equivalence")
def law_associativity(ctx):
    for a, b, c, d in itertools.product(ctx.classes, repeat=4):
        for s1 in ctx.homset(a, b):
            f = semantic_arrow(a, b, s1, ctx.cfg)
            for s2 in ctx.homset(b, c):
                g = semantic_arrow(b, c, s2, ctx.cfg)
                for s3 in ctx.homset(c, d):
                    h = semantic_arrow(c, d, s3, ctx.cfg)
                    ok = equiv(compose(h, compose(g, f)), compose(compose(h, g), f))
                    yield ok, _fmt(s1, s2, s3)


@_law("category.identity", "identities are neutral for composition")
def law_identity(ctx):
    for a in ctx.instances:
        ida = identity(a, ctx.cfg)
        yield is_iso(ida), _fmt(a)
    for a, b in itertools.product(ctx.classes, repeat=2):
        ida, idb = identity(a, ctx.cfg), identity(b, ctx.cfg)
        for f in ctx.arrows(a, b):
            ok = equiv(compose(idb, f), f) and equiv(compose(f, ida), f)
            yield ok, _fmt(a, b, f.flux)


@_law("category.mono-cancellation", "an arrow is monic exactly when it cancels on the left")
def law_mono_cancellation(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            cancels = True
            for c in ctx.classes:
                for g in ctx.homset(c, a):
                    for h in ctx.homset(c, a):
                        if (f.flux.relations & g) == (f.flux.relations & h) and g != h:
                            cancels = False
            yield is_mono(f) == cancels, _fmt(a, b, f.flux)


@_law("category.epi-cancellation", "an arrow is epic exactly when it cancels on the right")
def law_epi_cancellation(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            cancels = True
            for c in ctx.classes:
                for g in ctx.homset(b, c):
                    for h in ctx.homset(b, c):
                        if (f.flux.relations & g) == (f.flux.relations & h) and g != h:
                            cancels = False
            yield is_epi(f) == cancels, _fmt(a, b, f.flux)


@_law("category.mono-epi-iso", "isomorphisms are exactly the monic epic arrows")
def law_mono_epi_iso(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            ok = is_iso(f) == (is_mono(f) and is_epi(f))
            if is_iso(f):
                ok = ok and isomorphic(a, b, ctx.cfg)
            yield ok, _fmt(a, b, f.flux)


@_law("category.two-cells", "flux inclusion orders parallel arrows; antisymmetry is equivalence")
def law_two_cells(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        arrows = ctx.arrows(a, b)
        bottom = empty_arrow(a, b, ctx.cfg)
        for f in arrows:
            ok = arrow_po_leq(f, f) and arrow_po_leq(bottom, f)
            for g in arrows:
                if arrow_po_leq(f, g) and arrow_po_leq(g, f):
                    ok = ok and equiv(f, g)
            yield ok, _fmt(a, b, f.flux)


@_law("category.closure-functor", "lifting to closures preserves flux, mono, epi and iso")
def law_closure_functor(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            lifted = lift_arrow(f)
            ok = lifted.flux.relations == f.flux.relations
            ok = ok and is_mono(lifted) == is_mono(f)
            ok = ok and is_epi(lifted) == is_epi(f)
            ok = ok and is_iso(lifted) == is_iso(f)
            yield ok, _fmt(a, b, f.flux)


@_law("category.duality", "reversal keeps the flux, is involutive and swaps monic with epic")
def law_duality(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            rev = invert(f)
            ok = rev.flux.relations == f.flux.relations
            ok = ok and rev.source == f.target and rev.target == f.source
            ok = ok and equiv(invert(rev), f)
            ok = ok and is_mono(f) == is_epi(rev) and is_epi(f) == is_mono(rev)
            yield ok, _fmt(a, b, f.flux)


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
            yield ok, _fmt(a, b, f.flux)


@_law("category.retraction", "the reversal of a monomorphism retracts it")
def law_retraction(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            if not is_mono(f):
                continue
            yield retraction_check(f), _fmt(a, b, f.flux)


@_law("category.idempotents", "arrows between endomorphism fluxes match fixed endomorphisms")
def law_idempotents(ctx):
    for a in ctx.classes:
        report = ret_category_probe(a, ctx.cfg)
        yield report.bijection_holds, _fmt(a)


@_law("category.principal", "the largest arrow between two instances factors every other")
def law_principal(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        h = principal_morphism(a, b, ctx.cfg)
        for f in ctx.arrows(a, b):
            ok = f.flux.relations <= h.flux.relations
            g = semantic_arrow(a, a, f.flux.relations, ctx.cfg)
            ok = ok and equiv(compose(h, g), f)
            yield ok, _fmt(a, b, f.flux)


@_law("category.monad", "the closure is a monad: unit is inclusion, multiplication collapses")
def law_monad(ctx):
    for a in ctx.instances:
        ta = power_view(a, ctx.cfg)
        tta = power_view(Instance(ta.relations, {}), ctx.cfg)
        yield a.relations <= ta.relations and tta.relations == ta.relations, _fmt(a)
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
                yield direct == staged, _fmt(a, term)


# --- monoidal laws --------------------------------------------------------


@_law("monoidal.commutative", "matching is commutative")
def law_tensor_commutative(ctx):
    for a, b in itertools.product(ctx.instances, repeat=2):
        ok = matching(a, b, ctx.cfg).relations == matching(b, a, ctx.cfg).relations
        yield ok, _fmt(a, b)


@_law("monoidal.associative", "matching is associative")
def law_tensor_associative(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        lhs = matching(Instance(matching(a, b, ctx.cfg).relations, {}), c, ctx.cfg)
        rhs = matching(a, Instance(matching(b, c, ctx.cfg).relations, {}), ctx.cfg)
        yield lhs.relations == rhs.relations, _fmt(a, b, c)


@_law("monoidal.idempotent-unit-zero", "self-matching is the closure; total and zero are unit and absorbing")
def law_tensor_units(ctx):
    for a in ctx.instances:
        ta = power_view(a, ctx.cfg).relations
        ok = matching(a, a, ctx.cfg).relations == ta
        ok = ok and matching(a, ctx.total, ctx.cfg).relations == ta
        ok = ok and matching(a, ctx.zero, ctx.cfg).relations == frozenset({BOTTOM})
        yield ok, _fmt(a)


@_law("monoidal.arrow-tensor", "the matching of two arrows transmits the common views")
def law_arrow_tensor(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for c, d in itertools.product(ctx.classes, repeat=2):
            for f in ctx.arrows(a, b):
                for g in ctx.arrows(c, d):
                    t = tensor_arrow(f, g)
                    yield (
                        t.flux.relations == f.flux.relations & g.flux.relations,
                        _fmt(f.flux, g.flux),
                    )


@_law("monoidal.flux-range", "every flux sits between the zero object and the matching")
def law_flux_range(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        bound = matching(a, b, ctx.cfg).relations
        for f in ctx.arrows(a, b):
            ok = BOTTOM in f.flux.relations and f.flux.relations <= bound
            yield ok, _fmt(a, b, f.flux)


@_law("monoidal.monoid", "every instance is a monoid: iso multiplication, epi unit")
def law_monoid(ctx):
    for a in ctx.instances:
        mu, eta = monoid_structure(a, ctx.cfg)
        ta = power_view(a, ctx.cfg).relations
        ok = is_iso(mu) and is_epi(eta)
        ok = ok and mu.flux.relations == ta and eta.flux.relations == ta
        unit_flux = eta.flux.relations & identity(a, ctx.cfg).flux.relations
        ok = ok and (mu.flux.relations & unit_flux) == ta
        assoc_left = mu.flux.relations & (mu.flux.relations & ta)
        assoc_right = mu.flux.relations & (ta & mu.flux.relations)
        ok = ok and assoc_left == assoc_right
        yield ok, _fmt(a)


@_law("monoidal.hom-object", "the internal hom equals the matching, merged from all fluxes")
def law_hom_object(ctx):
    for b, c in itertools.product(ctx.classes, repeat=2):
        hom = hom_object(b, c, ctx.cfg)
        ok = hom.relations == matching(b, c, ctx.cfg).relations
        ok = ok and hom.relations == hom_object(c, b, ctx.cfg).relations
        merged: set[Relation] = set()
        for flux in ctx.homset(b, c):
            merged |= flux
        ok = ok and power_view(Instance(frozenset(merged), {}), ctx.cfg).relations == hom.relations
        yield ok, _fmt(b, c)
    for c in ctx.classes:
        hom = hom_object(c, ctx.total, ctx.cfg)
        yield hom.relations == power_view(c, ctx.cfg).relations, _fmt(c)


@_law("monoidal.hom-counting", "currying is a bijection of hom-sets")
def law_hom_counting(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        tensor_ab = Instance(matching(a, b, ctx.cfg).relations, {})
        hom_bc = Instance(hom_object(b, c, ctx.cfg).relations, {})
        yield (
            len(ctx.homset(tensor_ab, c)) == len(ctx.homset(a, hom_bc)),
            _fmt(a, b, c),
        )


@_law("monoidal.exponent", "evaluation is monic and the currying triangle commutes on fluxes")
def law_exponent(ctx):
    for b, c in itertools.product(ctx.classes, repeat=2):
        ev = eval_arrow(b, c, ctx.cfg)
        ok = is_mono(ev) and ev.flux.relations == matching(b, c, ctx.cfg).relations
        yield ok, _fmt(b, c)
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        tensor_ab = Instance(matching(a, b, ctx.cfg).relations, {})
        ev = eval_arrow(b, c, ctx.cfg)
        idb = identity(b, ctx.cfg)
        for f in ctx.arrows(tensor_ab, c):
            lam = transpose(f, a, b, ctx.cfg)
            ok = lam.flux.relations == f.flux.relations
            paired = lam.flux.relations & idb.flux.relations
            ok = ok and (ev.flux.relations & paired) == f.flux.relations
            yield ok, _fmt(a, b, c, f.flux)


@_law("monoidal.internal-arrows", "internal composition is monic, the internal identity is epic")
def law_internal_arrows(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        m = composition_arrow(a, b, c, ctx.cfg)
        expected = (
            power_view(a, ctx.cfg).relations
            & power_view(b, ctx.cfg).relations
            & power_view(c, ctx.cfg).relations
        )
        yield is_mono(m) and m.flux.relations == expected, _fmt(a, b, c)
    for a in ctx.classes:
        j = identity_element_arrow(a, ctx.cfg)
        yield is_epi(j) and j.flux.relations == power_view(a, ctx.cfg).relations, _fmt(a)


# --- lattice laws ---------------------------------------------------------


@_law("lattice.join-laws", "merging is commutative, associative and idempotent")
def law_join_laws(ctx):
    for a, b in itertools.product(ctx.instances, repeat=2):
        ok = merging(a, b, ctx.cfg).relations == merging(b, a, ctx.cfg).relations
        yield ok, _fmt(a, b)
    for a in ctx.instances:
        yield merging(a, a, ctx.cfg).relations == power_view(a, ctx.cfg).relations, _fmt(a)
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        lhs = merging(Instance(merging(a, b, ctx.cfg).relations, {}), c, ctx.cfg)
        rhs = merging(a, Instance(merging(b, c, ctx.cfg).relations, {}), ctx.cfg)
        yield lhs.relations == rhs.relations, _fmt(a, b, c)


@_law("lattice.absorption", "each operation absorbs the other")
def law_absorption(ctx):
    for a, b in itertools.product(ctx.instances, repeat=2):
        ta = power_view(a, ctx.cfg).relations
        ok = merging(a, Instance(matching(a, b, ctx.cfg).relations, {}), ctx.cfg).relations == ta
        ok = ok and matching(a, Instance(merging(a, b, ctx.cfg).relations, {}), ctx.cfg).relations == ta
        yield ok, _fmt(a, b)


@_law("lattice.inf-sup", "matching is the meet and merging the join of the behavioral order")
def law_inf_sup(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        inf = Instance(lattice_inf(a, b, ctx.cfg).relations, {})
        sup = Instance(lattice_sup(a, b, ctx.cfg).relations, {})
        ok = po_leq(inf, a, ctx.cfg) and po_leq(inf, b, ctx.cfg)
        ok = ok and po_leq(a, sup, ctx.cfg) and po_leq(b, sup, ctx.cfg)
        for c in ctx.classes:
            if po_leq(c, a, ctx.cfg) and po_leq(c, b, ctx.cfg):
                ok = ok and po_leq(c, inf, ctx.cfg)
            if po_leq(a, c, ctx.cfg) and po_leq(b, c, ctx.cfg):
                ok = ok and po_leq(sup, c, ctx.cfg)
        yield ok, _fmt(a, b)


@_law("lattice.distributive", "matching distributes over merging on closed instances")
def law_distributive(ctx):
    for a, b, c in itertools.product(ctx.classes, repeat=3):
        lhs = matching(Instance(merging(a, b, ctx.cfg).relations, {}), c, ctx.cfg)
        plain_union = (
            matching(a, c, ctx.cfg).relations | matching(b, c, ctx.cfg).relations
        )
        rhs = merging(
            Instance(matching(a, c, ctx.cfg).relations, {}),
            Instance(matching(b, c, ctx.cfg).relations, {}),
            ctx.cfg,
        )
        ok = lhs.relations == rhs.relations and plain_union <= lhs.relations
        yield ok, _fmt(a, b, c)


@_law("lattice.bounds", "the zero object is the bottom and the total object the top")
def law_bounds(ctx):
    for a in ctx.instances:
        ta = power_view(a, ctx.cfg).relations
        ok = po_leq(ctx.zero, a, ctx.cfg) and po_leq(a, ctx.total, ctx.cfg)
        ok = ok and merging(a, ctx.zero, ctx.cfg).relations == ta
        ok = ok and merging(a, ctx.total, ctx.cfg).relations == ctx.total.relations
        ok = ok and merging(a, Instance(ta, {}), ctx.cfg).relations == ta
        yield ok, _fmt(a)


@_law("lattice.closed-count", "the closed-subset enumeration matches brute force")
def law_closed_count(ctx):
    computed = closed_subsets(total_object(ctx.cfg), ctx.cfg)
    if len(ctx.total.relations) <= 13:
        brute = brute_force_closed_subsets(total_object(ctx.cfg), ctx.cfg)
        ok = tuple(c.relations for c in computed) == tuple(c.relations for c in brute)
        yield ok, f"{len(computed)} closed subsets"
    else:
        yield True, f"{len(computed)} closed subsets (brute force skipped)"


@_law("lattice.sup-all", "merging every instance yields the total object")
def law_sup_all(ctx):
    merged = ctx.zero
    for a in ctx.instances:
        merged = Instance(merging(merged, a, ctx.cfg).relations, {})
    yield merged.relations == ctx.total.relations, _fmt(len(ctx.instances))


@_law("lattice.federation", "the union of two instances is equivalent to their merging")
def law_federation(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        union = instance_union(a, b)
        ok = isomorphic(union, Instance(merging(a, b, ctx.cfg).relations, {}), ctx.cfg)
        yield ok, _fmt(a, b)


@_law("lattice.merge-functor", "merging with a fixed instance is a functor")
def law_merge_functor(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        lifted = merge_arrow(a, identity(b, ctx.cfg))
        ok = lifted.flux.relations == merging(a, b, ctx.cfg).relations
        yield ok, _fmt(a, b)
    for a, b, c, d in itertools.product(ctx.classes, repeat=4):
        for f in ctx.arrows(b, c):
            for g in ctx.arrows(c, d):
                lhs = merge_arrow(a, compose(g, f))
                rhs = compose(merge_arrow(a, g), merge_arrow(a, f))
                yield equiv(lhs, rhs), _fmt(a, f.flux, g.flux)


@_law("lattice.omega-chain", "iterated merging reaches the closure at the first step")
def law_omega_chain(ctx):
    for a in ctx.instances:
        chain = omega_chain(a, ctx.cfg, 3)
        ta = power_view(a, ctx.cfg).relations
        ok = chain[0].relations == frozenset({BOTTOM})
        ok = ok and all(step.relations == ta for step in chain[1:])
        yield ok, _fmt(a)


@_law("lattice.coproduct-count", "the doubled closure counts both components once, sharing the bottom")
def law_coproduct_count(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        if all(r.is_bottom for r in a.relations) or all(r.is_bottom for r in b.relations):
            continue
        both = coproduct(a, b)
        na = len(power_view(a, ctx.cfg).relations)
        nb = len(power_view(b, ctx.cfg).relations)
        ok = len(power_view(both, ctx.cfg).relations) == na + nb - 1
        yield ok, _fmt(a, b)
    for a in ctx.classes:
        if all(r.is_bottom for r in a.relations):
            continue
        doubled = coproduct(a, a)
        na = len(power_view(a, ctx.cfg).relations)
        yield len(power_view(doubled, ctx.cfg).relations) == 2 * na - 1, _fmt(a)
    yield isomorphic(coproduct(ctx.zero, ctx.classes[-1]), ctx.classes[-1], ctx.cfg), "zero unit"


# --- metric laws ----------------------------------------------------------


def law_metric(ctx: SuiteContext) -> list[LawResult]:
    report = metric_suite(ctx.cfg, ctx.max_relations)
    pairs = report.instances * report.instances

    def law(name, statement, checked, failures):
        return LawResult(f"metric.{name}", statement, checked, failures[:5])

    return [
        law("symmetry", "distance is symmetric", pairs, report.symmetry_failures),
        law(
            "self-distance",
            "the distance of an instance to itself is the total object",
            report.instances,
            report.self_distance_failures,
        ),
        law(
            "indiscernible",
            "total distance implies behavioral equivalence",
            pairs,
            report.indiscernible_failures,
        ),
        law(
            "triangle",
            "matching two distances refines the direct distance",
            report.triples_checked,
            report.triangle_failures,
        ),
        law(
            "order",
            "behavioral inclusion matches pointwise distance refinement",
            pairs,
            report.order_failures,
        ),
        law(
            "locally-closed",
            "distances from an instance embed into its endomorphism fluxes",
            report.instances,
            report.locally_closed_failures,
        ),
        law(
            "infinite-distance",
            "every distance contains the bottom; the zero object is infinitely far",
            pairs,
            report.infinite_distance_failures,
        ),
    ]


# --- topos laws -----------------------------------------------------------


@_law("topos.pullback", "canonical squares have closed meet corners and verify the two-cell universal property")
def law_pullback(ctx):
    for c in ctx.classes:
        for a, b in itertools.product(ctx.classes, repeat=2):
            for f in ctx.arrows(a, c):
                for g in ctx.arrows(b, c):
                    sq = pullback(f, g)
                    ok = sq.corner.relations == f.flux.relations & g.flux.relations
                    ok = ok and is_closed(sq.corner, ctx.cfg)
                    ok = ok and is_mono(sq.left) and is_mono(sq.right)
                    ok = ok and is_pullback_square(sq, ctx.cfg, ctx.classes)
                    yield ok, _fmt(f.flux, g.flux)


@_law("topos.classifier", "every monomorphism has a generator-level characteristic arrow")
def law_classifier(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        if not po_leq(a, b, ctx.cfg):
            continue
        mono = semantic_arrow(a, b, power_view(a, ctx.cfg), ctx.cfg)
        char, report = classifier(mono, ctx.cfg, ctx.classes)
        ok = report.generator_commutes and report.factorization_ok
        ok = ok and report.char_class_size == 1
        proper = report.generators - {BOTTOM}
        ok = ok and not (proper & power_view(a, ctx.cfg).relations)
        yield ok, _fmt(a, b)


@_law("topos.classifier-audit", "closing the generator set may meet the subobject (documented divergence)")
def law_classifier_audit(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        if not po_leq(a, b, ctx.cfg):
            continue
        mono = semantic_arrow(a, b, power_view(a, ctx.cfg), ctx.cfg)
        _, report = classifier(mono, ctx.cfg, ctx.classes)
        witness = (
            f"{_fmt(a, b)}: closure of generators meets the subobject in "
            f"{sorted_relations(report.audit_intersection)!r}"
        )
        yield True, witness, report.flagged


@_law("topos.equalizer", "every monomorphism equalizes its characteristic arrow and true")
def law_equalizer(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        if not po_leq(a, b, ctx.cfg):
            continue
        mono = semantic_arrow(a, b, power_view(a, ctx.cfg), ctx.cfg)
        yield equalizer_check(mono, ctx.cfg, ctx.classes), _fmt(a, b)


@_law("topos.true-arrow", "the true arrow transmits nothing and targets the classifier")
def law_true_arrow(ctx):
    t = true_arrow(ctx.cfg)
    ok = t.flux.relations == frozenset({BOTTOM})
    ok = ok and t.target.relations == ctx.total.relations
    yield ok, "true"


@_law("topos.factorization", "every arrow factors epi-mono through its flux, minimally")
def law_factorization(ctx):
    for a, b in itertools.product(ctx.classes, repeat=2):
        for f in ctx.arrows(a, b):
            yield factorization_minimal(f, ctx.cfg, ctx.classes), _fmt(a, b, f.flux)


@_law("topos.coproduct-pullback", "combining two pullback squares over a shared leg is a pullback")
def law_coproduct_pullback(ctx):
    small = [ctx.zero, ctx.classes[-1]]
    for e in ctx.classes:
        for d in ctx.classes:
            for k_flux in ctx.homset(d, e):
                k = semantic_arrow(d, e, k_flux, ctx.cfg)
                squares = []
                for b in ctx.classes:
                    for h_flux in ctx.homset(b, e):
                        squares.append(pullback(k, semantic_arrow(b, e, h_flux, ctx.cfg)))
                for sq1, sq2 in itertools.product(squares, repeat=2):
                    yield (
                        coproduct_pullback_check(sq1, sq2, ctx.cfg, small),
                        _fmt(k_flux, sq1.g.flux, sq2.g.flux),
                    )


# --- negative probes ------------------------------------------------------


def law_negative(ctx: SuiteContext) -> list[LawResult]:
    report = negative_probes(ctx.cfg, ctx.max_relations)
    out = [
        LawResult(
            "negative.pullback-epi",
            "a pullback of an epimorphism with a non-epic leg exists",
            1,
            [] if report.pullback_epi_witness else ["no counterexample found"],
        ),
        LawResult(
            "negative.no-power-object",
            "no candidate satisfies the power-object counting bijection",
            report.power_object_candidates,
            [] if report.power_object_confirmed else ["a candidate survived"],
        ),
        LawResult(
            "negative.not-well-pointed",
            "distinct parallel arrows agree on every point",
            1,
            [] if report.well_pointed_witness else ["no witness pair found"],
        ),
    ]
    return out


# --- suite registry and runner -------------------------------------------

_CLOSURE_LAWS = [
    law_closure_extensive,
    law_closure_monotone,
    law_closure_idempotent,
    law_closure_bottom,
    law_closure_total,
    law_closure_algebraic,
    law_closure_intersections,
    law_closure_order,
]

_CATEGORY_LAWS = [
    law_flux_composition,
    law_associativity,
    law_identity,
    law_mono_cancellation,
    law_epi_cancellation,
    law_mono_epi_iso,
    law_two_cells,
    law_closure_functor,
    law_duality,
    law_totalize,
    law_retraction,
    law_idempotents,
    law_principal,
    law_monad,
]

_MONOIDAL_LAWS = [
    law_tensor_commutative,
    law_tensor_associative,
    law_tensor_units,
    law_arrow_tensor,
    law_flux_range,
    law_monoid,
    law_hom_object,
    law_hom_counting,
    law_exponent,
    law_internal_arrows,
]

_LATTICE_LAWS = [
    law_join_laws,
    law_absorption,
    law_inf_sup,
    law_distributive,
    law_bounds,
    law_closed_count,
    law_sup_all,
    law_federation,
    law_merge_functor,
    law_omega_chain,
    law_coproduct_count,
]

_TOPOS_LAWS = [
    law_pullback,
    law_classifier,
    law_classifier_audit,
    law_equalizer,
    law_true_arrow,
    law_factorization,
    law_coproduct_pullback,
]

SUITES: dict[str, list] = {
    "closure": _CLOSURE_LAWS,
    "category": _CATEGORY_LAWS,
    "monoidal": _MONOIDAL_LAWS,
    "lattice": _LATTICE_LAWS,
    "metric": [law_metric],
    "topos": _TOPOS_LAWS,
    "negative": [law_negative],
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(
    name: str,
    cfg: UniverseConfig,
    max_relations: int = DEFAULT_MAX_RELATIONS,
    max_instances: int = DEFAULT_MAX_INSTANCES,
) -> SuiteReport:
    """Run one suite (or all of them) and collect per-law results."""
    if name not in SUITE_NAMES:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    law_fns: Iterable = (
        itertools.chain.from_iterable(SUITES.values()) if name == "all" else SUITES[name]
    )
    started = time.perf_counter()
    ctx = SuiteContext(cfg, max_relations, max_instances)
    laws: list[LawResult] = []
    for fn in law_fns:
        outcome = fn(ctx)
        if isinstance(outcome, list):
            laws.extend(outcome)
        else:
            laws.append(outcome)
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
