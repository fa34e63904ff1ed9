"""Plain-text formats for instances and morphisms.

Instance files name a domain and a block per base relation::

    domain: a b
    relation r1/1:
    a
    b

    relation r2/2:
    a b

    relation r3/1: empty

A block header gives the relation's name and arity; tuple lines list one
constant per column, whitespace separated; ``empty`` declares a base
relation whose value is the bottom relation.  Blank lines separate blocks.

Morphism files name their endpoint instance files and list one query per
line::

    morphism A.db -> B.db
    sel[1='a'](r1)
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path
from typing import Callable

from .closure import ClosedInstance, lex_subsets
from .core import (
    BOTTOM,
    Constant,
    Instance,
    Relation,
    UniverseConfig,
    make_relation,
)
from .errors import ArityMismatch, QuerySyntaxError, UnknownConstant, ViewfluxError
from .morphisms import Morphism, atomic_morphism
from .queries import parse_query

_HEADER = re.compile(r"relation\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)\s*:\s*(empty)?\s*$")


def parse_instance(text: str) -> tuple[Instance, frozenset[Constant]]:
    """Parse instance text into an instance with labels plus its domain."""
    lines = text.splitlines()
    pos = 0
    while pos < len(lines) and not lines[pos].strip():
        pos += 1
    if pos == len(lines) or not lines[pos].strip().startswith("domain:"):
        raise QuerySyntaxError("instance file must start with a domain line", 0)
    domain = frozenset(lines[pos].strip()[len("domain:"):].split())
    if not domain:
        raise UnknownConstant("the domain line declares no constants")
    pos += 1

    labels: dict[str, Relation] = {}
    arities: dict[str, int] = {}
    current: str | None = None
    rows: list[tuple[str, ...]] = []

    def flush() -> None:
        nonlocal current, rows
        if current is None:
            return
        labels[current] = make_relation(arities[current], rows, domain)
        current, rows = None, []

    for lineno, raw in enumerate(lines[pos:], start=pos + 1):
        line = raw.strip()
        if not line:
            continue
        m = _HEADER.match(line)
        if m:
            flush()
            name, arity, empty = m.group(1), int(m.group(2)), m.group(3)
            if name in labels or name == current:
                raise ArityMismatch(f"duplicate relation name {name!r} (line {lineno})")
            if empty:
                labels[name] = BOTTOM
            else:
                current = name
                arities[name] = arity
        else:
            if current is None:
                raise QuerySyntaxError(f"tuple outside a relation block (line {lineno})", lineno)
            parts = tuple(line.split())
            if len(parts) != arities[current]:
                raise ArityMismatch(
                    f"tuple {parts!r} has {len(parts)} columns, relation "
                    f"{current!r} declares {arities[current]} (line {lineno})"
                )
            for c in parts:
                if c not in domain:
                    raise UnknownConstant(f"constant {c!r} is not in the domain (line {lineno})")
            rows.append(parts)
    flush()
    relations = frozenset(labels.values()) if labels else frozenset()
    return Instance(relations, labels), domain


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ViewfluxError(f"{path} is not UTF-8 text: {exc}") from None


def load_instance(path: str | Path) -> tuple[Instance, frozenset[Constant]]:
    return parse_instance(_read_text(Path(path)))


def render_closed(support: list[tuple], domain: frozenset[Constant]) -> str:
    """Render the closed set of a support (``closure.support``), building no
    view: its views are the bottom and, per shape, the subsets of the shape's
    sorted rows in lexicographic order, named ``v1, v2, ...`` in that order,
    each listing its rows in order."""
    lines = ["domain: " + " ".join(sorted(domain)), "", "relation v1/1: empty"]
    names = itertools.count(2)
    for _, n, rows in support:
        for subset in lex_subsets([" ".join(row) for row in rows]):
            lines += ("", f"relation v{next(names)}/{n}:", *subset)
    return "\n".join(lines) + "\n"


def render_instance(inst: Instance, domain: frozenset[Constant]) -> str:
    """Render an instance in the text format.

    Relations keep their labels; unlabeled ones are named ``v1, v2, ...`` in
    canonical order, so closures print deterministically.  A closed set, whose
    labels are empty, is written from its support rows (``render_closed``).
    """
    if isinstance(inst, ClosedInstance):
        return render_closed(inst.support, domain)
    lines = ["domain: " + " ".join(sorted(domain))]
    name_of = {rel: name for name, rel in inst.labels.items()}
    counter = 1
    for rel in inst:
        name = name_of.get(rel)
        if name is None:
            while f"v{counter}" in inst.labels:
                counter += 1
            name = f"v{counter}"
            counter += 1
        lines.append("")
        if rel.is_bottom:
            lines.append(f"relation {name}/1: empty")
        else:
            lines.append(f"relation {name}/{rel.arity}:")
            for t in sorted(rel.tuples):
                lines.append(" ".join(t))
    return "\n".join(lines) + "\n"


def load_morphism(
    path: str | Path, config: Callable[[frozenset[Constant]], UniverseConfig] = UniverseConfig
) -> Morphism:
    """Load an atomic morphism under ``config(domain)``, the configuration of
    the endpoints' domain (default bounds at arity cap 1); endpoints resolve
    relative to the file."""
    path = Path(path)
    lines = [l for l in _read_text(path).splitlines() if l.strip()]
    if not lines or not lines[0].strip().startswith("morphism"):
        raise QuerySyntaxError("morphism file must start with a morphism header", 0)
    m = re.match(r"morphism\s+(\S+)\s*->\s*(\S+)\s*$", lines[0].strip())
    if not m:
        raise QuerySyntaxError("malformed morphism header", 0)
    src_inst, src_domain = load_instance(path.parent / m.group(1))
    tgt_inst, tgt_domain = load_instance(path.parent / m.group(2))
    if src_domain != tgt_domain:
        raise UnknownConstant("morphism endpoints declare different domains")
    cfg = config(src_domain)
    schema = {n: r.arity for n, r in src_inst.labels.items()}
    terms = [parse_query(line, schema, src_domain) for line in lines[1:]]
    return atomic_morphism(src_inst, tgt_inst, terms, cfg)
