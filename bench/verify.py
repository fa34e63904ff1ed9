"""Correctness checks of the program's outputs, written apart from viewflux.

``compare_report`` holds a ``check`` report against the committed golden
report.  ``check_closure`` tests a ``closure`` output without calling the
program: the output must contain the input and the bottom relation, one more
round of select, project, union and join at the arity cap must add nothing,
and, mapped back through the run's renaming of constants, it must match the
committed digest of its pool entry.
"""

from __future__ import annotations

import hashlib
import itertools

from workloads import DOMAIN, K_MAX, canonical, rename

BOTTOM = (0, frozenset())
LAW_STATUSES = ("PASS", "FAIL", "FLAGGED")


def _is_law_line(line: str) -> bool:
    return line.split(" ", 1)[0] in LAW_STATUSES


def compare_report(golden: str, actual: str) -> tuple[int, int]:
    """Return (law lines in the golden report, law lines that differ).

    Law lines are compared by position; a missing or extra law line counts
    as differing.
    """
    want = [line for line in golden.splitlines() if _is_law_line(line)]
    got = [line for line in actual.splitlines() if _is_law_line(line)]
    return len(want), sum(1 for w, g in itertools.zip_longest(want, got) if w != g)


def parse_relations(text: str) -> frozenset:
    """Relations of an instance file as (arity, frozenset of tuples).

    A relation declared ``empty`` is the bottom relation ``(0, {})``.
    Raises ``ValueError`` on text that is not an instance file.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("domain:"):
        raise ValueError("missing domain line")
    out = set()
    current = None

    def flush():
        if current is not None:
            out.add((current[0], frozenset(current[1])))

    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("relation "):
            flush()
            head, _, rest = line[len("relation "):].partition(":")
            arity = int(head.partition("/")[2])
            if rest.strip() == "empty":
                out.add(BOTTOM)
                current = None
            else:
                current = (arity, [])
            continue
        if current is None:
            raise ValueError(f"tuple outside a relation block: {line!r}")
        row = tuple(line.split())
        if len(row) != current[0]:
            raise ValueError(f"tuple {row!r} does not have arity {current[0]}")
        current[1].append(row)
    flush()
    return frozenset(out)


def _rel(arity: int, tuples) -> tuple:
    tuples = frozenset(tuples)
    return (arity, tuples) if tuples else BOTTOM


def one_round(views: frozenset, k_max: int = K_MAX, domain=DOMAIN):
    """Yield every relation one operator application makes from ``views``."""
    proper = [v for v in views if v[1]]
    for arity, tuples in proper:
        for i in range(arity):
            for c in domain:
                yield _rel(arity, (t for t in tuples if t[i] == c))
            for j in range(i + 1, arity):
                yield _rel(arity, (t for t in tuples if t[i] == t[j]))
        for m in range(1, k_max + 1):
            for cols in itertools.product(range(arity), repeat=m):
                yield _rel(m, (tuple(t[c] for c in cols) for t in tuples))
    for (a_ar, a), (b_ar, b) in itertools.product(proper, repeat=2):
        if a_ar == b_ar:
            yield (a_ar, a | b)
        if a_ar + b_ar <= k_max:
            yield (a_ar + b_ar, frozenset(x + y for x in a for y in b))


def is_closed(views: frozenset, k_max: int = K_MAX, domain=DOMAIN) -> bool:
    """True when no operator application yields a relation outside ``views``."""
    for arity, tuples in views:
        if arity > k_max or any(c not in domain for t in tuples for c in t):
            return False
    return all(rel in views for rel in one_round(views, k_max, domain))


def digest(relations) -> str:
    return hashlib.sha256(repr(canonical(relations)).encode()).hexdigest()


def check_closure(
    input_text: str, output: str, perm: dict[str, str], want_digest: str, closed_cache: dict
) -> list[str]:
    """Problems found in one closure output; empty when it is correct.

    ``closed_cache`` maps the digest of each output already tested to whether
    it is closed, so an output repeated across a run is tested once.
    """
    try:
        views = parse_relations(output)
        given = parse_relations(input_text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    problems = []
    if not given <= views:
        problems.append("output misses an input relation")
    if BOTTOM not in views:
        problems.append("output misses the bottom relation")
    key = digest(views)
    if key not in closed_cache:
        closed_cache[key] = is_closed(views)
    if not closed_cache[key]:
        problems.append("one more round of the operators adds a view")
    inverse = {new: old for old, new in perm.items()}
    if digest(rename(views, inverse)) != want_digest:
        problems.append("output differs from the committed closure")
    return problems
