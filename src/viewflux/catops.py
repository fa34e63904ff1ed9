"""Matching and merging of instances, coproducts, lattice and closed structure.

Matching intersects the view closures of two instances (the largest flux any
arrow between them can carry); merging closes their union.  With matching as
meet and merging as join the closed instances form a bounded lattice whose
bottom is the zero object and whose top is the local total object.  The
hom-object of two instances coincides with their matching, which makes the
structure closed: currying is a flux-preserving bijection of hom-sets.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import (
    ClosedInstance,
    certify_closed,
    meet_closed,
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
)
from .errors import DomainMismatch, NotMonic
from .morphisms import (
    Morphism,
    compose,
    equiv,
    identity,
    invert,
    is_mono,
    semantic_arrow,
    semantic_homset,
    _morphism,
)


def matching(a: Instance, b: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The overlap of two instances: the intersection of their view closures.

    Commutative; matching with the total object gives the closure, matching
    with the zero object gives the zero object.
    """
    return meet_closed(power_view(a, cfg), power_view(b, cfg))


def merging(a: Instance, b: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The federation of two instances: the closure of their union."""
    return power_view(instance_union(a, b), cfg)


#: The lattice meet and join of closed instances.
lattice_inf = matching
lattice_sup = merging


def tensor_arrow(f: Morphism, g: Morphism) -> Morphism:
    """The matching of two arrows: transmits the views both transmit."""
    if f.cfg != g.cfg:
        raise DomainMismatch("arrows built over different configurations")
    cfg = f.cfg
    src = Instance(matching(f.source, g.source, cfg).relations, {})
    tgt = Instance(matching(f.target, g.target, cfg).relations, {})
    return semantic_arrow(src, tgt, meet_closed(f.flux, g.flux), cfg)


def merge_arrow(a: Instance, f: Morphism) -> Morphism:
    """The "merging with a" functor on arrows: the identity on a joined with f.

    Sends f to an arrow between the merged endpoints whose flux is the
    merging of a with the flux of f; preserves identities and composition.
    """
    cfg = f.cfg
    src = Instance(merging(a, f.source, cfg).relations, {})
    tgt = Instance(merging(a, f.target, cfg).relations, {})
    flux = power_view(instance_union(a, Instance(f.flux.relations, {})), cfg)
    return semantic_arrow(src, tgt, flux, cfg)


def _retag(rel: Relation, side: str) -> Relation:
    if rel.is_bottom:
        return rel
    return Relation(rel.arity, rel.tuples, (side,) + rel.tag)


def tag_left(rel: Relation) -> Relation:
    return _retag(rel, "L")


def tag_right(rel: Relation) -> Relation:
    return _retag(rel, "R")


def coproduct(a: Instance, b: Instance) -> Instance:
    """The tagged disjoint union of two instances.

    Queries cannot combine relations from different components, so closure
    and subobject counting work componentwise while the two copies stay
    distinct; the bottom relation is shared untagged.  The zero object is
    the unit: coproducts with it return the other operand unchanged.
    """
    if all(r.is_bottom for r in a.relations):
        return b
    if all(r.is_bottom for r in b.relations):
        return a
    rels: set[Relation] = set()
    labels: dict[str, Relation] = {}
    for side, inst, tagger in (("l", a, tag_left), ("r", b, tag_right)):
        for rel in inst.relations:
            if rel.is_bottom:
                rels.add(BOTTOM)
            else:
                rels.add(tagger(rel))
        for name, rel in inst.labels.items():
            labels[f"{side}_{name}"] = rel if rel.is_bottom else tagger(rel)
    return Instance(frozenset(rels), labels)


def tagged_flux(
    left: Instance | frozenset[Relation],
    right: Instance | frozenset[Relation],
    cfg: UniverseConfig,
) -> ClosedInstance:
    """The closed set holding the left flux tagged left and the right tagged right."""
    lrels = left.relations if isinstance(left, Instance) else left
    rrels = right.relations if isinstance(right, Instance) else right
    rels = {tag_left(r) for r in lrels} | {tag_right(r) for r in rrels} | {BOTTOM}
    return certify_closed(Instance(frozenset(rels), {}), cfg)


def arrow_coproduct(f: Morphism, g: Morphism) -> Morphism:
    """The coproduct of two arrows, acting componentwise on the tagged sum."""
    if f.cfg != g.cfg:
        raise DomainMismatch("arrows built over different configurations")
    cfg = f.cfg
    return _morphism(
        coproduct(f.source, g.source),
        coproduct(f.target, g.target),
        (),
        tagged_flux(f.flux, g.flux, cfg),
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


def copair(f: Morphism, g: Morphism) -> Morphism:
    """The copairing of two arrows into a common target.

    Built as the fold after the arrow coproduct; the flux is the tagged sum
    of the two fluxes (what each component transmits, with provenance).
    """
    if f.target != g.target:
        raise DomainMismatch("copairing needs a common target")
    cfg = f.cfg
    # The zero object is the coproduct unit, so copairing with an arrow out
    # of it is the other arrow.
    if all(r.is_bottom for r in f.source.relations):
        return g
    if all(r.is_bottom for r in g.source.relations):
        return f
    summed = arrow_coproduct(f, g)
    fold = fold_arrow(f.target, cfg)
    flux = meet_closed(fold.flux, summed.flux)
    return _morphism(
        summed.source, f.target, (), flux, cfg, check_range=False
    )


def hom_object(b: Instance, c: Instance, cfg: UniverseConfig) -> ClosedInstance:
    """The internal hom of two instances; equal to their matching.

    Equivalently the merging of all arrow fluxes from b to c, of which the
    matching is the largest.
    """
    return matching(b, c, cfg)


def transpose(
    f: Morphism, a: Instance, b: Instance, cfg: UniverseConfig
) -> Morphism:
    """Curry an arrow out of a matching: same flux, target the hom-object."""
    if f.source != Instance(matching(a, b, cfg).relations, {}):
        raise DomainMismatch("transpose needs an arrow out of the matching of a and b")
    hom = Instance(hom_object(b, f.target, cfg).relations, {})
    return semantic_arrow(a, hom, f.flux, cfg)


def eval_arrow(b: Instance, c: Instance, cfg: UniverseConfig) -> Morphism:
    """The evaluation arrow of the closed structure; monic with flux the matching."""
    hom = Instance(hom_object(b, c, cfg).relations, {})
    src = Instance(matching(hom, b, cfg).relations, {})
    return semantic_arrow(src, c, matching(b, c, cfg), cfg)


def monoid_structure(a: Instance, cfg: UniverseConfig) -> tuple[Morphism, Morphism]:
    """The multiplication and unit making an instance a monoid under matching.

    The multiplication (an isomorphism) folds the self-matching onto the
    instance; the unit (an epimorphism) collapses the total object onto it.
    Both carry the instance's closure as flux.
    """
    ta = power_view(a, cfg)
    mu = semantic_arrow(Instance(ta.relations, {}), a, ta, cfg)
    eta = semantic_arrow(Instance(total_object(cfg).relations, {}), a, ta, cfg)
    return mu, eta


def composition_arrow(
    a: Instance, b: Instance, c: Instance, cfg: UniverseConfig
) -> Morphism:
    """The internal composition law: monic from stacked hom-objects to the hom.

    Flux is the three-way matching of the instances.
    """
    hom_bc = Instance(hom_object(b, c, cfg).relations, {})
    hom_ab = Instance(hom_object(a, b, cfg).relations, {})
    src = Instance(matching(hom_bc, hom_ab, cfg).relations, {})
    tgt = Instance(hom_object(a, c, cfg).relations, {})
    flux = meet_closed(meet_closed(power_view(a, cfg), power_view(b, cfg)), power_view(c, cfg))
    return semantic_arrow(src, tgt, flux, cfg)


def identity_element_arrow(a: Instance, cfg: UniverseConfig) -> Morphism:
    """The internal identity element: epic from the total object onto the self-hom."""
    tgt = Instance(hom_object(a, a, cfg).relations, {})
    return semantic_arrow(Instance(total_object(cfg).relations, {}), tgt, power_view(a, cfg), cfg)


def principal_morphism(a: Instance, b: Instance, cfg: UniverseConfig) -> Morphism:
    """The largest arrow between two instances: flux equal to their matching.

    Every parallel arrow factors through it (semantically, via itself)."""
    return semantic_arrow(a, b, matching(a, b, cfg), cfg)


def retraction_check(f: Morphism) -> bool:
    """Verify that the inverse of a monomorphism retracts it onto its source."""
    if not is_mono(f):
        raise NotMonic("retraction_check needs a monomorphism")
    return equiv(compose(invert(f), f), identity(f.source, f.cfg))


@dataclass(frozen=True)
class RetCategoryReport:
    """Outcome of probing the category of idempotents on an instance."""

    instance: Instance
    pairs_checked: int
    bijection_holds: bool


def ret_category_probe(a: Instance, cfg: UniverseConfig) -> RetCategoryReport:
    """Probe the category of idempotent endomorphisms on an instance.

    For every pair of endomorphism fluxes (f, g), the arrows between their
    flux objects must correspond one to one with the endomorphisms k
    satisfying k = g . k . f up to equivalence.
    """
    endos = semantic_homset(a, a, cfg)
    pairs = 0
    ok = True
    for f_flux in endos:
        for g_flux in endos:
            pairs += 1
            outer = semantic_homset(
                Instance(f_flux.relations, {}), Instance(g_flux.relations, {}), cfg
            )
            fixed = [
                k for k in endos
                if k.relations == (k.relations & f_flux.relations & g_flux.relations)
            ]
            ok = ok and len(outer) == len(fixed)
    return RetCategoryReport(a, pairs, ok)


def omega_chain(a: Instance, cfg: UniverseConfig, steps: int) -> list[ClosedInstance]:
    """Iterate "merge with a" starting from the zero object.

    Returns the chain of the first ``steps`` iterates after the start; it
    reaches the closure of ``a`` at the first step and stays there.
    """
    chain = [zero_object()]
    for _ in range(steps):
        chain.append(merging(a, Instance(chain[-1].relations, {}), cfg))
    return chain
