"""Renaming the constants of the domain commutes with the constructions.

Every query selects on every constant alike, so a permutation of the domain
carries instances, closures, closed subsets, fluxes and arrows to instances,
closures, closed subsets, fluxes and arrows of the same shape.  Each test
applies a construction before and after renaming, for every permutation of
domains of one to three constants, at k=1 and at k=2, and compares the
results as relation sets (the canonical order itself is not equivariant).
Where there are more instances with at most one relation than a test takes
(20 at {a,b} k=2, 520 at {a,b,c} k=2), it takes a fixed sample of them.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from viewflux import (
    Instance,
    Relation,
    UniverseConfig,
    ZERO,
    closed_subsets,
    compose,
    coproduct,
    instance,
    make_relation,
    matching,
    merging,
    power_view,
    semantic_arrow,
    semantic_arrows,
    subset_instances,
)
from viewflux.topos import classifier, pullback

CONFIGS = [
    UniverseConfig(domain=frozenset("abc"[:n]), k_max=k) for n in (1, 2, 3) for k in (1, 2)
]


def _id(cfg):
    return f"{''.join(sorted(cfg.domain))}-k{cfg.k_max}"


# A permutation is a tuple of (constant, image) pairs, so that renamings are
# cached: the closures at {a,b,c} k=2 hold up to 519 relations.


@functools.cache
def _rename_relation(rel: Relation, perm: tuple) -> Relation:
    image = dict(perm)
    return Relation(rel.arity, frozenset(tuple(image[c] for c in t) for t in rel.tuples), rel.tag)


@functools.cache
def _rename(relations: frozenset[Relation], perm: tuple) -> frozenset[Relation]:
    return frozenset(_rename_relation(r, perm) for r in relations)


def _renamed(inst: Instance, perm: tuple) -> Instance:
    return Instance(
        _rename(inst.relations, perm),
        {name: _rename_relation(rel, perm) for name, rel in inst.labels.items()},
    )


def _renamed_arrow(f, perm: tuple):
    return semantic_arrow(
        _renamed(f.source, perm), _renamed(f.target, perm), _rename(f.flux.relations, perm), f.cfg
    )


def _permutations(cfg):
    constants = sorted(cfg.domain)
    return [tuple(zip(constants, image)) for image in itertools.permutations(constants)]


def _inputs(cfg, size):
    """The instances with at most one relation; a sample of ``size`` of them
    (the zero object among them) where there are more."""
    insts = list(subset_instances(cfg, 1))
    if len(insts) <= size:
        return insts
    return insts[:1] + random.Random(0).sample(insts[1:], size - 1)


def _classes(cfg):
    """One instance per closure class at max-relations 1: at these arity caps
    a class is fixed by its constants, so a unary relation stands for it."""
    constants = sorted(cfg.domain)
    return [ZERO] + [
        instance(make_relation(1, {(c,) for c in combo}))
        for size in range(1, len(constants) + 1)
        for combo in itertools.combinations(constants, size)
    ]


@pytest.mark.parametrize("cfg", CONFIGS, ids=_id)
def test_renaming_commutes_with_the_closure_operations(cfg):
    insts = _inputs(cfg, 12)
    for perm in _permutations(cfg):
        for a in insts:
            ra = _renamed(a, perm)
            closed = power_view(a, cfg)
            assert power_view(ra, cfg).relations == _rename(closed.relations, perm), (a, perm)
            expected = {_rename(c.relations, perm) for c in closed_subsets(closed, cfg)}
            got = closed_subsets(power_view(ra, cfg), cfg)
            assert {c.relations for c in got} == expected, (a, perm)
        for a, b in itertools.product(insts[:6], repeat=2):
            ra, rb = _renamed(a, perm), _renamed(b, perm)
            for op in (matching, merging):
                assert op(ra, rb, cfg).relations == _rename(op(a, b, cfg).relations, perm)
            assert coproduct(ra, rb).relations == _rename(coproduct(a, b).relations, perm)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_id)
def test_renaming_commutes_with_compose_and_pullback(cfg):
    classes = _classes(cfg)[:5]
    for perm in _permutations(cfg):
        for a, b, c in itertools.product(classes, repeat=3):
            for f in semantic_arrows(a, b, cfg):
                rf = _renamed_arrow(f, perm)
                for g in semantic_arrows(b, c, cfg):
                    gf = compose(g, f)
                    assert compose(_renamed_arrow(g, perm), rf).flux.relations == _rename(
                        gf.flux.relations, perm
                    ), (f.flux, g.flux, perm)
                for g in semantic_arrows(c, b, cfg):
                    sq = pullback(f, g)
                    rsq = pullback(rf, _renamed_arrow(g, perm))
                    assert rsq.corner.relations == _rename(sq.corner.relations, perm)
                    for leg, rleg in ((sq.left, rsq.left), (sq.right, rsq.right)):
                        assert rleg.source == _renamed(leg.source, perm)
                        assert rleg.target == _renamed(leg.target, perm)
                        assert rleg.flux.relations == _rename(leg.flux.relations, perm)


@pytest.mark.parametrize("cfg", CONFIGS, ids=_id)
def test_renaming_commutes_with_the_classifier(cfg):
    classes = _classes(cfg)
    ambients = [power_view(a, cfg) for a in _inputs(cfg, 3)]
    for a, b in itertools.product(classes, ambients):
        if not power_view(a, cfg).relations <= b.relations:
            continue
        mono = semantic_arrow(a, b, power_view(a, cfg), cfg)
        char, report = classifier(mono, cfg, classes)
        for perm in _permutations(cfg):
            vertices = [_renamed(v, perm) for v in classes]
            rchar, rreport = classifier(_renamed_arrow(mono, perm), cfg, vertices)
            assert rchar.flux.relations == _rename(char.flux.relations, perm), (a, b, perm)
            assert rreport.generators == _rename(report.generators, perm)
            assert rreport.audit_intersection == _rename(report.audit_intersection, perm)
            assert (rreport.generator_commutes, rreport.factorization_ok,
                    rreport.arrows_checked, rreport.char_class_size, rreport.flagged) == (
                report.generator_commutes, report.factorization_ok,
                report.arrows_checked, report.char_class_size, report.flagged)
