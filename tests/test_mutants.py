"""Mutant rows: a broken operation, bound where one law reads it, must make
that law report FAIL with the same ``checked=`` count as the golden report.

Each row names the law, its check, the module whose binding the mutant
replaces, the attribute, the mutant and the law's ``checked=`` count.
Every mutant is first shown to violate the statement its law checks, on the
classes of the default configuration.
"""

import itertools

import pytest
from test_suites import _golden_checked

from viewflux import (
    BOTTOM,
    ZERO,
    Instance,
    arrow_coproduct,
    catops,
    coproduct,
    fold_arrow,
    power_view,
    suites,
    topos,
    zero_object,
)
from viewflux.catops import tag_left, tagged_flux
from viewflux.closure import meet_closed
from viewflux.morphisms import _morphism
from viewflux.suites import SuiteContext


def _left_only_coproduct(a, b):
    """A mutant coproduct: the right operand's relations are dropped."""
    return Instance(frozenset(map(tag_left, a.relations)) | {BOTTOM}, {})


def _left_only_fold(d, cfg):
    """A mutant fold: it passes only the left copy of the doubled instance."""
    fold = fold_arrow(d, cfg)
    flux = tagged_flux(power_view(d, cfg), zero_object(), cfg)
    return _morphism(fold.source, d, (), flux, cfg, check_range=False)


# The coproduct mutant is bound where the law reads it.  Bound in ``catops``
# it would also reach ``arrow_coproduct``, whose range check raises
# ``FluxOutOfRange`` instead of letting the law fail.  The fold mutant sits
# behind the ``copair`` memo, which a passing run has filled.
MUTANTS = [
    pytest.param("topos.coproduct-pullback", suites.law_coproduct_pullback,
                 topos, "coproduct", _left_only_coproduct, 1225,
                 id="topos.coproduct-pullback"),
    pytest.param("topos.coproduct-pullback", suites.law_coproduct_pullback,
                 catops, "fold_arrow", _left_only_fold, 1225,
                 id="topos.coproduct-pullback:fold_arrow"),
    pytest.param("lattice.coproduct-count", suites.law_coproduct_count,
                 suites, "coproduct", _left_only_coproduct, 13,
                 id="lattice.coproduct-count"),
]


@pytest.fixture(scope="module")
def ctx(cfg0):
    return SuiteContext(cfg0, 4)


def test_left_only_coproduct_breaks_the_component_count(ctx):
    # The closure of a coproduct has both components, sharing the bottom.
    broken = [
        (a, b)
        for a, b in itertools.product(ctx.classes, repeat=2)
        if len(power_view(_left_only_coproduct(a, b), ctx.cfg))
        != len(power_view(coproduct(a, b), ctx.cfg))
    ]
    assert broken


def test_left_only_fold_breaks_the_copairing_flux(ctx):
    # A copair out of two non-zero sources is the fold after the arrow
    # coproduct, and its flux is the tagged sum of the two fluxes.
    nonzero = [c for c in ctx.classes if not c.relations <= ZERO.relations]
    broken = [
        (f, g)
        for a, b in itertools.product(nonzero, repeat=2)
        for e in ctx.classes
        for f, g in itertools.product(ctx.arrows(a, e), ctx.arrows(b, e))
        if meet_closed(_left_only_fold(e, ctx.cfg).flux, arrow_coproduct(f, g).flux)
        != tagged_flux(f.flux, g.flux, ctx.cfg)
    ]
    assert broken


@pytest.mark.parametrize("law, check, module, attr, mutant, checked", MUTANTS)
def test_law_fails_under_its_mutant(ctx, monkeypatch, law, check, module, attr, mutant, checked):
    assert check(ctx).status == "PASS"
    monkeypatch.setattr(module, attr, mutant)
    result = check(ctx)
    assert result.status == "FAIL"
    assert result.checked == _golden_checked(law) == checked
