"""Frozen reference: the pullback kernel before its mediator tables were memoized.

``viewflux.topos`` verified each pullback square by trying every pair of cone
legs from every vertex (``square_mediators``) and ran every step of the
coproduct-pullback check once per pair of squares
(``combined_pullback_check``).  Both are kept here verbatim, so the indexed,
memoized kernel that replaced them can be compared against them: the same
verdicts, the same mediator tuples in the same order.

Do not edit: a change here hides a change in the library.
"""

from __future__ import annotations

import itertools
from typing import Callable

from viewflux.catops import arrow_coproduct, coproduct, copair, tagged_flux
from viewflux.closure import power_view
from viewflux.core import ZERO, Instance, Relation, UniverseConfig
from viewflux.errors import NotAPullback
from viewflux.morphisms import Morphism, equiv
from viewflux.topos import PullbackSquare


Mediators = tuple[frozenset[Relation], ...] | None
Arrows = Callable[[Instance, Instance], tuple[Morphism, ...]]


def square_mediators(
    square: PullbackSquare, vertices: list[Instance], arrows: Arrows
) -> Mediators:
    """Verify ``square`` in one pass over its cones: None when it is not a
    pullback, else the flux of the unique mediator of every cone from every
    vertex.

    ``arrows(v, x)`` gives one arrow per flux from ``v`` to ``x``.
    """
    fl_f = square.f.flux.relations
    fl_g = square.g.flux.relations
    fl_p1 = square.left.flux.relations
    fl_p2 = square.right.flux.relations
    composite = fl_f & fl_p1
    if composite != fl_g & fl_p2:
        return None
    mediators = []
    for v in vertices:
        legs_g = arrows(v, square.g.source)
        into_corner = arrows(v, square.corner)
        for h1 in arrows(v, square.f.source):
            w = fl_f & h1.flux.relations
            for h2 in legs_g:
                if w != fl_g & h2.flux.relations:
                    continue
                # Both legs' composites are ``composite`` (the square commutes).
                found = [u.flux.relations for u in into_corner if composite & u.flux.relations == w]
                if len(found) != 1 or not (
                    fl_p1 & found[0] <= h1.flux.relations and fl_p2 & found[0] <= h2.flux.relations
                ):
                    return None
                mediators.append(found[0])
    return tuple(mediators)


def combined_pullback_check(
    sq1: PullbackSquare,
    mediators1: Mediators,
    sq2: PullbackSquare,
    mediators2: Mediators,
    cfg: UniverseConfig,
) -> bool:
    """The pair step of ``coproduct_pullback_check``, given each square's
    ``square_mediators`` over the same vertices."""
    if mediators1 is None:
        raise NotAPullback("first square fails pullback verification")
    if mediators2 is None:
        raise NotAPullback("second square fails pullback verification")
    if sq1.f is not sq2.f and (
        sq1.f.source != sq2.f.source or sq1.f.target != sq2.f.target or not equiv(sq1.f, sq2.f)
    ):
        raise NotAPullback("squares do not share the cospan leg")
    # The zero object is the coproduct unit: combining with a zero corner
    # returns the other square, already verified above.
    if sq1.corner.relations <= ZERO.relations or sq2.corner.relations <= ZERO.relations:
        return True

    shared = sq1.f  # k : D -> E
    combined_corner = coproduct(sq1.corner, sq2.corner)
    left_pair = copair(sq1.left, sq2.left)  # A+A1 -> D
    right_pair = arrow_coproduct(sq1.right, sq2.right)  # A+A1 -> B+B1
    bottom_pair = copair(sq1.g, sq2.g)  # B+B1 -> E

    # Corner closure decomposes componentwise.
    expected_corner = tagged_flux(
        power_view(sq1.corner, cfg).relations, power_view(sq2.corner, cfg).relations, cfg
    )
    if power_view(combined_corner, cfg).relations != expected_corner.relations:
        return False
    # Copairing flux is the tagged sum of the component fluxes.
    legs = tagged_flux(sq1.left.flux.relations, sq2.left.flux.relations, cfg)
    if left_pair.flux.relations != legs.relations:
        return False

    # Combined square commutes componentwise: a plain flux is lifted to both
    # components when it crosses into the tagged space.
    k_lifted = tagged_flux(shared.flux.relations, shared.flux.relations, cfg).relations
    lhs = k_lifted & left_pair.flux.relations
    rhs = bottom_pair.flux.relations & right_pair.flux.relations
    if lhs != rhs:
        return False

    # Universal property: component mediators reassemble into the unique
    # tagged mediator for every pair of component cones.  A step reads only
    # (u1, u2), so each distinct pair is checked once.
    for u1, u2 in itertools.product(dict.fromkeys(mediators1), dict.fromkeys(mediators2)):
        combined = tagged_flux(u1, u2, cfg).relations
        p1 = left_pair.flux.relations & combined
        expected = tagged_flux(
            sq1.left.flux.relations & u1, sq2.left.flux.relations & u2, cfg
        ).relations
        if p1 != expected:
            return False
    return True
