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

from viewflux import BOTTOM, Instance, coproduct, power_view, suites, topos
from viewflux.catops import tag_left
from viewflux.suites import SuiteContext


def _left_only_coproduct(a, b):
    """A mutant coproduct: the right operand's relations are dropped."""
    return Instance(frozenset(map(tag_left, a.relations)) | {BOTTOM}, {})


# The coproduct mutant is bound where the law reads it.  Bound in ``catops``
# it would also reach ``arrow_coproduct``, whose range check raises
# ``FluxOutOfRange`` instead of letting the law fail.
MUTANTS = [
    ("topos.coproduct-pullback", suites.law_coproduct_pullback,
     topos, "coproduct", _left_only_coproduct, 1225),
    ("lattice.coproduct-count", suites.law_coproduct_count,
     suites, "coproduct", _left_only_coproduct, 13),
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


@pytest.mark.parametrize(
    "law, check, module, attr, mutant, checked", MUTANTS, ids=[row[0] for row in MUTANTS]
)
def test_law_fails_under_its_mutant(ctx, monkeypatch, law, check, module, attr, mutant, checked):
    assert check(ctx).status == "PASS"
    monkeypatch.setattr(module, attr, mutant)
    result = check(ctx)
    assert result.status == "FAIL"
    assert result.checked == _golden_checked(law) == checked
