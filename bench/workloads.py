"""The benchmark's workloads and the inputs they are built from.

``check-abc`` runs ``viewflux check all`` at a fixed configuration.  The
suites enumerate their instances exhaustively, so the seed does not change
its inputs.

``closure-k2`` closes a batch of instances over ``{a,b,c}`` at view arity 2,
one ``viewflux closure`` call each.  The batch is a fixed pool of instances
with one or two random relations of arity at most 2, drawn once from
``POOL_SEED``.  The run's seed renames the constants of each instance by a
permutation of ``a, b, c`` and shuffles the batch order and the order of
the tuple lines.  Renaming constants maps the closure of an instance onto the
closure of the renamed instance, so every seed does the same work on inputs
the program has not seen, and each output can be mapped back and compared
with the committed closure of its pool entry.
"""

from __future__ import annotations

import itertools
import random

CHECK_ARGS = {
    "check-abc": ["check", "all", "--domain", "a,b,c", "--max-relations", "2"],
}

#: (domain, k_max, max_relations) of the suite context each check builds.
CHECK_CONTEXT = {
    "check-abc": (("a", "b", "c"), 1, 2),
}

CLOSURE = "closure-k2"
WORKLOADS = tuple(CHECK_ARGS) + (CLOSURE,)

DOMAIN = ("a", "b", "c")
K_MAX = 2
POOL_SEED = 2011
POOL_SIZE = 8

#: A relation is (arity, frozenset of tuples); an instance a tuple of them.


def closure_args(path: str) -> list[str]:
    return ["closure", path, "--kmax", str(K_MAX)]


def rename(relations, perm: dict[str, str]) -> tuple:
    """Apply a renaming of constants to every tuple of every relation."""
    return tuple(
        (arity, frozenset(tuple(perm[c] for c in t) for t in tuples))
        for arity, tuples in relations
    )


def canonical(relations) -> tuple:
    """A hashable, order-free form of a set of relations."""
    return tuple(sorted((arity, tuple(sorted(tuples))) for arity, tuples in relations))


def _permutations() -> list[dict[str, str]]:
    return [dict(zip(DOMAIN, p)) for p in itertools.permutations(DOMAIN)]


def pool() -> list[tuple]:
    """The fixed closure pool: instances distinct up to renaming constants."""
    rng = random.Random(POOL_SEED)
    seen: set = set()
    out: list[tuple] = []
    while len(out) < POOL_SIZE:
        relations = []
        for _ in range(rng.randint(1, 2)):
            arity = rng.randint(1, 2)
            rows = list(itertools.product(DOMAIN, repeat=arity))
            relations.append((arity, frozenset(rng.sample(rows, rng.randint(1, len(rows))))))
        if len({canonical([r]) for r in relations}) < len(relations):
            continue
        key = min(canonical(rename(relations, p)) for p in _permutations())
        if key not in seen:
            seen.add(key)
            out.append(tuple(relations))
    return out


def closure_batch(seed: int) -> list[tuple[int, dict[str, str], str]]:
    """The batch of one run: (pool index, constant renaming, file text) each.

    The same seed gives the same batch.
    """
    rng = random.Random(seed)
    perms = _permutations()
    batch = []
    for index, relations in enumerate(pool()):
        perm = rng.choice(perms)
        batch.append((index, perm, render(rename(relations, perm), rng)))
    rng.shuffle(batch)
    return batch


def render(relations, rng: random.Random) -> str:
    """Instance file text; tuple lines appear in an order the seed picks."""
    lines = ["domain: " + " ".join(DOMAIN)]
    for i, (arity, tuples) in enumerate(relations, start=1):
        rows = sorted(tuples)
        rng.shuffle(rows)
        lines.append("")
        lines.append(f"relation r{i}/{arity}:")
        lines.extend(" ".join(t) for t in rows)
    return "\n".join(lines) + "\n"
