"""Matching and merging of instances, coproducts, lattice and closed structure.

Matching intersects the view closures of two instances (the largest flux any
arrow between them can carry); merging closes their union.  With matching as
meet and merging as join the closed instances form a bounded lattice whose
bottom is the zero object and whose top is the local total object.  The
hom-object of two instances coincides with their matching, which makes the
structure closed: currying is a flux-preserving bijection of hom-sets.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .closure import (
    ClosedInstance,
    certify_closed,
    matching,
    meet_closed,
    power_view,
    total_object,
    zero_object,
)
from .core import (
    BOTTOM,
    ZERO,
    Instance,
    Relation,
    UniverseConfig,
)
from .errors import DomainMismatch, NotMonic, ViewfluxError
from .morphisms import (
    Morphism,
    compose,
    equiv,
    identity,
    invert,
    is_mono,
    per_pass,
    semantic_arrow,
    semantic_homset,
    _morphism,
)


def merging(a: Instance, b: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The federation of two instances: the closure of their union.

    Memoized on the two relation sets and the configuration.
    """
    return _merging_cached(a.relations, b.relations, cfg)


@lru_cache(maxsize=None)
def _merging_cached(
    a: frozenset[Relation], b: frozenset[Relation], cfg: UniverseConfig
) -> ClosedInstance:
    return power_view(Instance(a | b, {}), cfg)


def tensor_arrow(f: Morphism, g: Morphism) -> Morphism:
    """The matching of two arrows: transmits the views both transmit."""
    if f.cfg is not g.cfg and f.cfg != g.cfg:
        raise DomainMismatch("arrows built over different configurations")
    cfg = f.cfg
    src = matching(f.source, g.source, cfg)
    tgt = matching(f.target, g.target, cfg)
    return semantic_arrow(src, tgt, meet_closed(f.flux, g.flux), cfg)


@per_pass
def merge_arrow(a: Instance, f: Morphism) -> Morphism:
    """The "merging with a" functor on arrows: the identity on a joined with f.

    Sends f to an arrow between the merged endpoints whose flux is the
    merging of a with the flux of f; preserves identities and composition.
    Memoized per law pass on a (by its relations) and the arrow f.
    """
    cfg = f.cfg
    src = merging(a, f.source, cfg)
    tgt = merging(a, f.target, cfg)
    return semantic_arrow(src, tgt, merging(a, f.flux, cfg), cfg)


@lru_cache(maxsize=None)
def _retag(rel: Relation, side: str) -> Relation:
    if rel.is_bottom:
        return rel
    return Relation(rel.arity, rel.tuples, (side,) + rel.tag)


def tag_left(rel: Relation) -> Relation:
    return _retag(rel, "L")


def tag_right(rel: Relation) -> Relation:
    return _retag(rel, "R")


def _tagged_union(lrels: frozenset[Relation], rrels: frozenset[Relation]) -> frozenset[Relation]:
    return frozenset(map(tag_left, lrels)) | frozenset(map(tag_right, rrels))


def coproduct(a: Instance, b: Instance) -> Instance:
    """The tagged disjoint union of two instances.

    Queries cannot combine relations from different components, so closure
    and subobject counting work componentwise while the two copies stay
    distinct; the bottom relation is shared untagged.  The zero object is
    the unit: coproducts with it return the other operand unchanged.
    Otherwise there is one result per pair of relation sets and labels.
    """
    if a.relations <= ZERO.relations:
        return b
    if b.relations <= ZERO.relations:
        return a
    return _coproduct_cached((a.relations, *a.labels.items()), (b.relations, *b.labels.items()))


@lru_cache(maxsize=None)
def _coproduct_cached(a: tuple, b: tuple) -> Instance:
    """The coproduct of two operands, each given as its relations then its label items."""
    (arels, *alabels), (brels, *blabels) = a, b
    labels = {f"l_{name}": tag_left(rel) for name, rel in alabels}
    labels.update((f"r_{name}", tag_right(rel)) for name, rel in blabels)
    return Instance(_tagged_union(arels, brels), labels)


@lru_cache(maxsize=None)
def tagged_flux(
    lrels: frozenset[Relation], rrels: frozenset[Relation], cfg: UniverseConfig
) -> ClosedInstance:
    """The closed set holding the relations ``lrels`` tagged left and ``rrels``
    tagged right.

    Memoized on the two relation sets; an open input raises
    ``NotClosedDomain`` on every call.
    """
    return certify_closed(Instance(_tagged_union(lrels, rrels) | {BOTTOM}, {}), cfg)


@per_pass
def arrow_coproduct(f: Morphism, g: Morphism) -> Morphism:
    """The coproduct of two arrows, acting componentwise on the tagged sum."""
    if f.cfg is not g.cfg and f.cfg != g.cfg:
        raise DomainMismatch("arrows built over different configurations")
    cfg = f.cfg
    return _morphism(
        coproduct(f.source, g.source),
        coproduct(f.target, g.target),
        (),
        tagged_flux(f.flux.relations, g.flux.relations, cfg),
        cfg,
    )


def fold_arrow(d: Instance, cfg: UniverseConfig) -> Morphism:
    """The codiagonal from the doubled instance back onto itself.

    Its view-maps send each tagged copy of a relation to the relation, so it
    passes both components through; the flux is the full closure of the
    doubled instance.  The flux necessarily lives in the tagged space, not
    in the matching of the endpoints, so no range check applies.
    """
    doubled = coproduct(d, d)
    return _morphism(
        doubled, d, (), power_view(doubled, cfg), cfg, check_range=False
    )


@per_pass
def copair(f: Morphism, g: Morphism) -> Morphism:
    """The copairing of two arrows into a common target.

    Built as the fold after the arrow coproduct; the flux is the tagged sum
    of the two fluxes (what each component transmits, with provenance).
    Memoized per law pass on the two arrows.
    """
    if f.cfg is not g.cfg and f.cfg != g.cfg:
        raise DomainMismatch("arrows built over different configurations")
    if f.target is not g.target and f.target != g.target:
        raise DomainMismatch("copairing needs a common target")
    cfg = f.cfg
    # The zero object is the coproduct unit, so copairing with an arrow out
    # of it is the other arrow.
    if f.source.relations <= ZERO.relations:
        return g
    if g.source.relations <= ZERO.relations:
        return f
    summed = arrow_coproduct(f, g)
    flux = meet_closed(fold_arrow(f.target, cfg).flux, summed.flux)
    return _morphism(summed.source, f.target, (), flux, cfg, check_range=False)


def transpose(
    f: Morphism, a: Instance, b: Instance, cfg: UniverseConfig
) -> Morphism:
    """Curry an arrow out of a matching: same flux, target the hom-object."""
    if f.source != matching(a, b, cfg):
        raise DomainMismatch("transpose needs an arrow out of the matching of a and b")
    return semantic_arrow(a, matching(b, f.target, cfg), f.flux, cfg)


def eval_arrow(b: Instance, c: Instance, cfg: UniverseConfig) -> Morphism:
    """The evaluation arrow of the closed structure; monic with flux the matching."""
    hom = matching(b, c, cfg)
    return semantic_arrow(matching(hom, b, cfg), c, hom, cfg)


def monoid_structure(a: Instance, cfg: UniverseConfig) -> tuple[Morphism, Morphism]:
    """The multiplication and unit making an instance a monoid under matching.

    The multiplication (an isomorphism) folds the self-matching onto the
    instance; the unit (an epimorphism) collapses the total object onto it.
    Both carry the instance's closure as flux.
    """
    ta = power_view(a, cfg)
    mu = semantic_arrow(ta, a, ta, cfg)
    eta = semantic_arrow(total_object(cfg), a, ta, cfg)
    return mu, eta


def composition_arrow(
    a: Instance, b: Instance, c: Instance, cfg: UniverseConfig
) -> Morphism:
    """The internal composition law: monic from stacked hom-objects to the hom.

    Flux is the three-way matching of the instances.
    """
    src = matching(matching(b, c, cfg), matching(a, b, cfg), cfg)
    tgt = matching(a, c, cfg)
    flux = meet_closed(matching(a, b, cfg), power_view(c, cfg))
    return semantic_arrow(src, tgt, flux, cfg)


def identity_element_arrow(a: Instance, cfg: UniverseConfig) -> Morphism:
    """The internal identity element: epic from the total object onto the self-hom."""
    tgt = matching(a, a, cfg)
    return semantic_arrow(total_object(cfg), tgt, power_view(a, cfg), cfg)


def principal_morphism(a: Instance, b: Instance, cfg: UniverseConfig) -> Morphism:
    """The largest arrow between two instances: flux equal to their matching.

    Every parallel arrow factors through it (semantically, via itself)."""
    return semantic_arrow(a, b, matching(a, b, cfg), cfg)


def retraction_check(f: Morphism) -> bool:
    """Verify that the inverse of a monomorphism retracts it onto its source."""
    if not is_mono(f):
        raise NotMonic("retraction_check needs a monomorphism")
    return equiv(compose(invert(f), f), identity(f.source, f.cfg))


def ret_category_probe(a: Instance, cfg: UniverseConfig) -> bool:
    """Probe the category of idempotent endomorphisms on an instance.

    Whether, for every pair of endomorphism fluxes (f, g), the arrows between
    their flux objects correspond one to one with the endomorphisms k
    satisfying k = g . k . f up to equivalence.
    """
    endos = semantic_homset(a, a, cfg)
    return all(
        len(semantic_homset(f_flux, g_flux, cfg))
        == sum(k.mask & ~(f_flux.mask & g_flux.mask) == 0 for k in endos)
        for f_flux, g_flux in itertools.product(endos, repeat=2)
    )


def omega_chain(a: Instance, cfg: UniverseConfig, steps: int) -> list[ClosedInstance]:
    """Iterate "merge with a" starting from the zero object.

    Returns the chain of the first ``steps`` iterates after the start; it
    reaches the closure of ``a`` at the first step and stays there.
    """
    if steps < 0:
        raise ViewfluxError(f"steps must be at least 0, got {steps}")
    chain = [zero_object()]
    for _ in range(steps):
        chain.append(merging(a, chain[-1], cfg))
    return chain
