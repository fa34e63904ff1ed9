"""Expected ``checked=`` counts of the arrow laws, written apart from viewflux.

At max-relations 1 over a domain of ``n`` constants the closure classes are
fixed by their active domains, so they are the subsets of the domain, and the
hom-set between classes ``a`` and ``b`` has ``2 ** |a & b|`` arrows (one per
set of shared constants).  The enumeration has ``2 ** n + 1`` instances.
Each law's count is a sum over tuples of classes of products of hom-set
sizes, the loops of the law read as a formula.  Summed one constant at a
time, the sum factors into a per-constant term, which gives the closed forms
of ``CLOSED_FORMS``.

This module imports nothing from ``viewflux``.
"""

from __future__ import annotations

import itertools


def classes(n: int) -> list[frozenset[int]]:
    """The closure classes of a domain of ``n`` constants: its subsets."""
    return [
        frozenset(c) for size in range(n + 1) for c in itertools.combinations(range(n), size)
    ]


def hom(a: frozenset[int], b: frozenset[int]) -> int:
    """The number of arrows between two classes."""
    return 2 ** len(a & b)


def counted(n: int) -> dict[str, int]:
    """Each law's count, summed over the classes as its loops run."""
    cs = classes(n)
    pairs = list(itertools.product(cs, repeat=2))
    triples = list(itertools.product(cs, repeat=3))
    composable = sum(hom(a, b) * hom(b, c) for a, b, c in triples)
    return {
        "category.flux-composition": composable,
        "category.associativity": sum(
            hom(a, b) * hom(b, c) * hom(c, d) for a, b, c, d in itertools.product(cs, repeat=4)
        ),
        # Every instance is an identity check, then every arrow of every pair.
        "category.identity": 2 ** n + 1 + sum(hom(a, b) for a, b in pairs),
        # Every pair of arrows of two pairs of classes.
        "monoidal.arrow-tensor": sum(hom(a, b) for a, b in pairs) ** 2,
        # Identities on every pair, then every class against composable arrows.
        "lattice.merge-functor": len(pairs) + len(cs) * composable,
        # Every cospan of arrows into one class.
        "topos.pullback": sum(hom(a, c) * hom(b, c) for c, a, b in triples),
        # Every ordered pair of legs into e, for every arrow from d to e.
        "topos.coproduct-pullback": sum(
            hom(d, e) * sum(hom(b, e) for b in cs) ** 2 for d, e in pairs
        ),
    }


def squares(n: int) -> int:
    """The number of distinct squares ``topos.pullback`` verifies, leaving out
    the cospan target: one per pair of leg sources ``(a, b)`` and pair of leg
    fluxes, a set of constants of ``a`` and one of ``b`` (the top class
    receives every such flux)."""
    return sum(2 ** len(a) * 2 ** len(b) for a, b in itertools.product(classes(n), repeat=2))


#: Each law's count as a function of the domain size.
CLOSED_FORMS = {
    "category.flux-composition": lambda n: 13**n,
    "category.associativity": lambda n: 34**n,
    "category.identity": lambda n: 2**n + 1 + 5**n,
    "monoidal.arrow-tensor": lambda n: 25**n,
    "lattice.merge-functor": lambda n: 4**n + 26**n,
    "topos.pullback": lambda n: 13**n,
    "topos.coproduct-pullback": lambda n: 35**n,
}
