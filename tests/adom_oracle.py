"""Closed-form power view: an oracle written from the formula alone.

Every query may select on any constant of the domain, so every tuple of a
view is a view by itself and unions give every set of such tuples.
Projection (with repeated columns) and join within the arity cap then give
every tuple over the active domain.  Hence the closure of an instance ``S``
over a domain that holds all of its constants is, per coproduct tag:

* for each arity ``n <= k_max``, every non-empty relation over
  ``adom^n``, where ``adom`` is the set of constants of the component;
* for each arity ``n > k_max`` of a relation of the component's own, every
  non-empty set of the component's arity-``n`` tuples;
* plus the bottom.

The untagged relations belong to every component: a union with a tagged
relation carries the tag, so their tuples and constants reach every tagged
component.  A tagged component reaches an arity above ``k_max`` only through
a tagged relation of that arity, since nothing else builds one.  (This is
the monotone case of BP-completeness: Bancilhon, MFCS 1978; Paredaens,
IPL 1978.)

``closed_subset_count`` counts the closed subsets of a closed instance
from the same form.

A view is written as its ``(arity, tuples, tag)`` triple and the bottom as
``(0, frozenset(), ())``.  The module imports nothing from ``viewflux``: it
only reads the ``arity``, ``tuples`` and ``tag`` of the relations it is given.
"""

from __future__ import annotations

import itertools

BOTTOM = (0, frozenset(), ())


def _nonempty_relations(arity, rows, tag):
    rows = sorted(rows)
    for size in range(1, len(rows) + 1):
        for combo in itertools.combinations(rows, size):
            yield arity, frozenset(combo), tag


def oracle(relations, cfg) -> frozenset[tuple]:
    """The closure of ``relations`` under every query, from the closed form,
    as a set of ``(arity, tuples, tag)`` triples."""
    present = [r for r in relations if r.tuples]
    shared = [r for r in present if not r.tag]
    tags = sorted({r.tag for r in present if r.tag})
    out = {BOTTOM}
    for tag in [()] + tags:
        own = [r for r in present if r.tag == tag]
        members = own if not tag else own + shared
        adom = sorted({c for r in members for t in r.tuples for c in t})
        for n in range(1, cfg.k_max + 1):
            out.update(_nonempty_relations(n, itertools.product(adom, repeat=n), tag))
        for n in sorted({r.arity for r in own if r.arity > cfg.k_max}):
            rows = {t for r in members if r.arity == n for t in r.tuples}
            out.update(_nonempty_relations(n, rows, tag))
    return frozenset(out)



def _subsets(items):
    items = sorted(items)
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(len(items) + 1)
    )


def closed_subset_count(relations, cfg) -> int:
    """The number of closed subsets of a closed instance ``X``, from the
    closed form.

    A closed subset ``C`` is fixed by one choice per component: for the
    untagged one, its constants ``U`` (a subset of ``X``'s) and its tuples
    ``V`` above ``k_max`` (any set of ``X``'s whose constants lie in ``U``);
    for each tag of ``X``, either nothing (no relation of ``C`` carries the
    tag) or a non-empty set ``T`` of constants with ``U <= T <= adom_t`` and,
    for each arity ``n > k_max`` of the tag's own relations, either no
    arity-``n`` view or a non-empty set ``W`` of its arity-``n`` tuples over
    ``T`` holding every arity-``n`` tuple of ``V``.  Different choices give
    different closed sets, so the count is

        sum over (U, V) of  prod over tags t of
            (1 + sum over T of prod over n of (1 + 2**|free_n| - [V_n empty]))

    where ``free_n`` is the set of the tag's arity-``n`` tuples over ``T``
    that are not in ``V``.  For an untagged ``X`` with no relation above
    ``k_max`` this is ``2**|adom(X)|``; for a coproduct of such instances it
    is the product of the components' counts.
    """
    present = [r for r in relations if r.tuples]

    def constants(rels):
        return {c for r in rels for t in r.tuples for c in t}

    shared = [r for r in present if not r.tag]
    shared_adom = constants(shared)
    shared_high = {(r.arity, t) for r in shared if r.arity > cfg.k_max for t in r.tuples}
    components = []
    for tag in sorted({r.tag for r in present if r.tag}):
        own = [r for r in present if r.tag == tag]
        high = {}
        for r in own:
            if r.arity > cfg.k_max:
                high.setdefault(r.arity, set()).update(r.tuples)
        components.append((constants(own) | shared_adom, high))
    total = 0
    for u in _subsets(shared_adom):
        u = set(u)
        for v in _subsets(h for h in shared_high if set(h[1]) <= u):
            product = 1
            for adom, high in components:
                options = 1  # no relation carries the tag
                for extra in _subsets(adom - u):
                    t_adom = u | set(extra)
                    if not t_adom:
                        continue
                    ways = 1
                    for n, rows in high.items():
                        fixed = {t for m, t in v if m == n}
                        free = {t for t in rows if set(t) <= t_adom} - fixed
                        ways *= 1 + 2 ** len(free) - (not fixed)
                    options += ways
                product *= options
            total += product
    return total
