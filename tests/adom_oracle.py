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

