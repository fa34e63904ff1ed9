"""Query terms over instances: AST, concrete grammar, evaluation, substitution.

The term language has five constructors (base relation, bottom, select,
project, join, union) with set semantics.  Join is Cartesian concatenation;
equijoins are expressed as a select over a join.  Project may reorder and
duplicate columns, which subsumes renaming in the positional setting.

Grammar::

    query := NAME | "bot" | "sel[" pred "](" query ")"
           | "proj[" cols "](" query ")"
           | "join(" query "," query ")" | "union(" query "," query ")"
    pred  := INT "=" INT | INT "='" NAME "'"
    cols  := INT { "," INT }          columns are 1-based
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union as TUnion

from .core import BOTTOM, Constant, Instance, Relation, make_relation
from .errors import (
    ArityError,
    DomainMismatch,
    QuerySyntaxError,
    UnknownConstant,
    UnknownRelation,
)


@dataclass(frozen=True)
class ColEqCol:
    """Selection condition: column i equals column j."""

    i: int
    j: int


@dataclass(frozen=True)
class ColEqConst:
    """Selection condition: column i equals a constant."""

    i: int
    const: Constant


Predicate = TUnion[ColEqCol, ColEqConst]


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Bot:
    pass


@dataclass(frozen=True)
class Select:
    pred: Predicate
    arg: "QueryTerm"


@dataclass(frozen=True)
class Project:
    cols: tuple[int, ...]
    arg: "QueryTerm"


@dataclass(frozen=True)
class Join:
    left: "QueryTerm"
    right: "QueryTerm"


@dataclass(frozen=True)
class UnionTerm:
    left: "QueryTerm"
    right: "QueryTerm"


@dataclass(frozen=True)
class Slot:
    """A numbered placeholder with a declared arity, used by flatten_term.

    Slots have no concrete syntax; they exist so that term-over-term
    substitution can be expressed and checked statically.
    """

    index: int
    arity: int


QueryTerm = TUnion[Base, Bot, Select, Project, Join, UnionTerm, Slot]


def subterms(term: QueryTerm) -> Iterator[QueryTerm]:
    """The term and all its subterms, depth first, left to right."""
    yield term
    if isinstance(term, (Select, Project)):
        yield from subterms(term.arg)
    elif isinstance(term, (Join, UnionTerm)):
        yield from subterms(term.left)
        yield from subterms(term.right)


def _check_columns(cols: Sequence[int], arity: int) -> None:
    """Column numbers are 1-based and at most ``arity``; a column list is not empty."""
    if not cols:
        raise ArityError("project needs at least one column")
    for c in cols:
        if not 1 <= c <= arity:
            raise ArityError(f"column {c} out of range for arity {arity}")


def _pred_columns(pred: Predicate) -> tuple[int, ...]:
    return (pred.i, pred.j) if isinstance(pred, ColEqCol) else (pred.i,)


def static_arity(term: QueryTerm, schema: Mapping[str, int]) -> int | None:
    """Static arity of a term; ``None`` means arity-erased (necessarily empty).

    Raises ArityError when column references are out of range, when a union
    has operands of different known arities, or when select/project is
    applied to an arity-erased operand.  Raises UnknownRelation for base
    names missing from the schema.
    """
    if isinstance(term, Base):
        if term.name not in schema:
            raise UnknownRelation(f"unknown relation {term.name!r}")
        n = schema[term.name]
        return None if n == 0 else n  # bottom-valued bases are arity-erased
    if isinstance(term, Bot):
        return None
    if isinstance(term, Slot):
        return term.arity
    if isinstance(term, Select):
        n = static_arity(term.arg, schema)
        if n is None:
            raise ArityError("select needs an operand of known arity")
        _check_columns(_pred_columns(term.pred), n)
        return n
    if isinstance(term, Project):
        n = static_arity(term.arg, schema)
        if n is None:
            raise ArityError("project needs an operand of known arity")
        _check_columns(term.cols, n)
        return len(term.cols)
    if isinstance(term, Join):
        left = static_arity(term.left, schema)
        right = static_arity(term.right, schema)
        if left is None or right is None:
            return None
        return left + right
    if isinstance(term, UnionTerm):
        left = static_arity(term.left, schema)
        right = static_arity(term.right, schema)
        if left is None:
            return right
        if right is None:
            return left
        if left != right:
            raise ArityError(f"union of arities {left} and {right}")
        return left
    raise TypeError(f"not a query term: {term!r}")


def base_names(term: QueryTerm) -> tuple[str, ...]:
    """Base relation names referenced by a term, left to right, deduplicated."""
    return tuple(dict.fromkeys(t.name for t in subterms(term) if isinstance(t, Base)))


def _merge_tags(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    if not left:
        return right
    if not right or left == right:
        return left
    raise DomainMismatch(
        "cannot combine relations from different coproduct components"
    )


def evaluate(
    term: QueryTerm,
    inst: Instance,
    slots: Sequence[Relation] = (),
) -> Relation:
    """Evaluate a term against an instance; empty results canonicalize to bottom.

    Slots index into ``slots`` (1-based).  Evaluation is lenient about the
    bottom relation: selecting from or projecting an empty operand yields
    bottom even though its arity is erased.
    """
    if isinstance(term, Base):
        if term.name not in inst.labels:
            raise UnknownRelation(f"unknown relation {term.name!r}")
        return inst.labels[term.name]
    if isinstance(term, Bot):
        return BOTTOM
    if isinstance(term, Slot):
        if not 1 <= term.index <= len(slots):
            raise UnknownRelation(f"slot {term.index} is not bound")
        rel = slots[term.index - 1]
        if not rel.is_bottom and rel.arity != term.arity:
            raise ArityError(
                f"slot {term.index} declared arity {term.arity}, bound to arity {rel.arity}"
            )
        return rel
    if isinstance(term, Select):
        rel = evaluate(term.arg, inst, slots)
        if rel.is_bottom:
            return BOTTOM
        pred = term.pred
        _check_columns(_pred_columns(pred), rel.arity)
        if isinstance(pred, ColEqCol):
            kept = {t for t in rel.tuples if t[pred.i - 1] == t[pred.j - 1]}
        else:
            kept = {t for t in rel.tuples if t[pred.i - 1] == pred.const}
        return make_relation(rel.arity, kept, tag=rel.tag)
    if isinstance(term, Project):
        rel = evaluate(term.arg, inst, slots)
        if rel.is_bottom:
            return BOTTOM
        _check_columns(term.cols, rel.arity)
        rows = {tuple(t[c - 1] for c in term.cols) for t in rel.tuples}
        return make_relation(len(term.cols), rows, tag=rel.tag)
    if isinstance(term, Join):
        left = evaluate(term.left, inst, slots)
        right = evaluate(term.right, inst, slots)
        if left.is_bottom or right.is_bottom:
            return BOTTOM
        tag = _merge_tags(left.tag, right.tag)
        rows = {l + r for l in left.tuples for r in right.tuples}
        return make_relation(left.arity + right.arity, rows, tag=tag)
    if isinstance(term, UnionTerm):
        left = evaluate(term.left, inst, slots)
        right = evaluate(term.right, inst, slots)
        if left.is_bottom:
            return right
        if right.is_bottom:
            return left
        if left.arity != right.arity:
            raise ArityError(f"union of arities {left.arity} and {right.arity}")
        tag = _merge_tags(left.tag, right.tag)
        return make_relation(left.arity, left.tuples | right.tuples, tag=tag)
    raise TypeError(f"not a query term: {term!r}")


def slot_count(term: QueryTerm) -> int:
    """Number of distinct slots; indices must be exactly 1..k."""
    indices = {t.index for t in subterms(term) if isinstance(t, Slot)}
    if indices and indices != set(range(1, max(indices) + 1)):
        raise ArityError(f"slot indices {sorted(indices)} are not contiguous from 1")
    return len(indices)


def flatten_term(term: QueryTerm, subs: Sequence[QueryTerm]) -> QueryTerm:
    """Substitute each slot i by subs[i-1]; the term-level monad multiplication.

    Substitution checks that every slot's declared arity matches the static
    arity of its replacement (computed against an empty schema, so the
    replacements must not contain free base names of unknown arity; slots in
    replacements are allowed and keep the result open for further
    flattening).  Evaluation commutes with substitution.
    """
    k = slot_count(term)
    if k != len(subs):
        raise ArityError(f"term has {k} slots but {len(subs)} replacements were given")

    def arity_of(sub: QueryTerm) -> int | None:
        try:
            return static_arity(sub, {})
        except UnknownRelation:
            return None  # unknown base names: defer the check to evaluation

    def walk(t: QueryTerm) -> QueryTerm:
        if isinstance(t, Slot):
            sub = subs[t.index - 1]
            sub_arity = arity_of(sub)
            if sub_arity is not None and sub_arity != t.arity:
                raise ArityError(
                    f"slot {t.index} has arity {t.arity}, replacement has {sub_arity}"
                )
            return sub
        if isinstance(t, Select):
            return Select(t.pred, walk(t.arg))
        if isinstance(t, Project):
            return Project(t.cols, walk(t.arg))
        if isinstance(t, Join):
            return Join(walk(t.left), walk(t.right))
        if isinstance(t, UnionTerm):
            return UnionTerm(walk(t.left), walk(t.right))
        return t

    return walk(term)


def format_query(term: QueryTerm) -> str:
    """Render a term in the concrete grammar (inverse of parse_query)."""
    if isinstance(term, Base):
        return term.name
    if isinstance(term, Bot):
        return "bot"
    if isinstance(term, Select):
        pred = term.pred
        if isinstance(pred, ColEqCol):
            body = f"{pred.i}={pred.j}"
        else:
            body = f"{pred.i}='{pred.const}'"
        return f"sel[{body}]({format_query(term.arg)})"
    if isinstance(term, Project):
        cols = ",".join(str(c) for c in term.cols)
        return f"proj[{cols}]({format_query(term.arg)})"
    if isinstance(term, Join):
        return f"join({format_query(term.left)},{format_query(term.right)})"
    if isinstance(term, UnionTerm):
        return f"union({format_query(term.left)},{format_query(term.right)})"
    if isinstance(term, Slot):
        raise ArityError("slots have no concrete syntax")
    raise TypeError(f"not a query term: {term!r}")


class _Parser:
    """Recursive-descent parser for the query grammar."""

    def __init__(self, text: str, schema: Mapping[str, int]):
        self.text = text
        self.pos = 0
        self.schema = schema

    def error(self, message: str):
        raise QuerySyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, literal: str) -> None:
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            self.error(f"expected {literal!r}")
        self.pos += len(literal)

    def name(self) -> str:
        self.skip_ws()
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos:])
        if not m:
            self.error("expected a name")
        self.pos += m.end()
        return m.group(0)

    def integer(self) -> int:
        self.skip_ws()
        m = re.match(r"\d+", self.text[self.pos:])
        if not m:
            self.error("expected a column number")
        self.pos += m.end()
        return int(m.group(0))

    def predicate(self) -> Predicate:
        i = self.integer()
        self.expect("=")
        self.skip_ws()
        if self.peek() == "'":
            self.expect("'")
            const = self.name()
            self.expect("'")
            return ColEqConst(i, const)
        return ColEqCol(i, self.integer())

    def columns(self) -> tuple[int, ...]:
        cols = [self.integer()]
        while self.peek() == ",":
            self.expect(",")
            cols.append(self.integer())
        return tuple(cols)

    def query(self) -> QueryTerm:
        self.skip_ws()
        start = self.pos
        word = None
        m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", self.text[self.pos:])
        if m:
            word = m.group(0)
            self.pos += m.end()
        if word == "bot":
            return Bot()
        if word == "sel":
            self.expect("[")
            pred = self.predicate()
            self.expect("]")
            self.expect("(")
            arg = self.query()
            self.expect(")")
            return Select(pred, arg)
        if word == "proj":
            self.expect("[")
            cols = self.columns()
            self.expect("]")
            self.expect("(")
            arg = self.query()
            self.expect(")")
            return Project(cols, arg)
        if word == "join" or word == "union":
            self.expect("(")
            left = self.query()
            self.expect(",")
            right = self.query()
            self.expect(")")
            return Join(left, right) if word == "join" else UnionTerm(left, right)
        if word is not None:
            return Base(word)
        self.pos = start
        self.error("expected a query")
        raise AssertionError  # unreachable

    def parse(self) -> QueryTerm:
        term = self.query()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input after query")
        return term


def parse_query(
    text: str,
    schema: Mapping[str, int],
    domain: frozenset[Constant] | None = None,
) -> QueryTerm:
    """Parse query text and statically check arities against the schema.

    When ``domain`` is given, selection constants must belong to it.
    """
    term = _Parser(text, schema).parse()
    static_arity(term, schema)
    if domain is not None:
        _check_constants(term, domain)
    return term


def _check_constants(term: QueryTerm, domain: frozenset[Constant]) -> None:
    for t in subterms(term):
        if isinstance(t, Select) and isinstance(t.pred, ColEqConst) and t.pred.const not in domain:
            raise UnknownConstant(f"constant {t.pred.const!r} is not in the domain")
