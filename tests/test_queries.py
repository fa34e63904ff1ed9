import itertools

import pytest
from hypothesis import given, settings, strategies as st

from viewflux import (
    ArityError,
    BOTTOM,
    Instance,
    QuerySyntaxError,
    Slot,
    UnknownRelation,
    evaluate,
    flatten_term,
    format_query,
    instance,
    make_relation,
    parse_query,
    static_arity,
)
from viewflux.queries import (
    Base,
    Bot,
    ColEqCol,
    ColEqConst,
    Join,
    Project,
    Select,
    UnionTerm,
)

SCHEMA1 = {"r1": 1, "r2": 1}


def test_parse_select():
    term = parse_query("sel[1='a'](r1)", SCHEMA1)
    assert term == Select(ColEqConst(1, "a"), Base("r1"))


def test_parse_nested():
    term = parse_query("union(r1, proj[1](join(r1,r1)))", SCHEMA1)
    assert term == UnionTerm(
        Base("r1"), Project((1,), Join(Base("r1"), Base("r1")))
    )
    assert static_arity(term, SCHEMA1) == 1


def test_parse_col_eq_col():
    term = parse_query("sel[1=2](join(r1,r2))", SCHEMA1)
    assert term == Select(ColEqCol(1, 2), Join(Base("r1"), Base("r2")))


def test_parse_union_arity_mismatch():
    with pytest.raises(ArityError):
        parse_query("union(r1, r2)", {"r1": 1, "r2": 2})


def test_parse_unknown_relation():
    with pytest.raises(UnknownRelation):
        parse_query("r9", SCHEMA1)


def test_parse_syntax_error_position():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("union(r1", SCHEMA1)
    assert err.value.position == 8


def test_parse_trailing_garbage():
    with pytest.raises(QuerySyntaxError):
        parse_query("r1 r2", SCHEMA1)


def test_parse_column_out_of_range():
    with pytest.raises(ArityError):
        parse_query("proj[2](r1)", SCHEMA1)


def test_parse_unknown_constant():
    from viewflux import UnknownConstant

    with pytest.raises(UnknownConstant):
        parse_query("sel[1='z'](r1)", SCHEMA1, domain=frozenset({"a", "b"}))


# Evaluation oracles: tiny hand-enumerable cases computed with plain set
# comprehensions, frozen here.


def test_eval_select_empty(pa):
    # filtering the single tuple (a) against b leaves nothing
    term = parse_query("sel[1='b'](r1)", {"r1": 1})
    assert evaluate(term, pa) is BOTTOM


def test_eval_union(pa, pb, ra, rb, rab):
    both = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    term = parse_query("union(r1,r2)", {"r1": 1, "r2": 1})
    assert evaluate(term, both) == rab


def test_eval_project_join(rab):
    # Cartesian square of {a,b} has four rows; the first column is {a,b}
    inst = Instance(frozenset({rab}), {"r1": rab})
    term = parse_query("proj[1](join(r1,r1))", {"r1": 1})
    oracle = {
        (t1[0],) for t1 in rab.tuples for _ in rab.tuples
    }
    assert evaluate(term, inst) == make_relation(1, oracle)
    assert evaluate(term, inst) == rab


def test_eval_join_concatenates(ra, rb):
    inst = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    term = parse_query("join(r1,r2)", {"r1": 1, "r2": 1})
    got = evaluate(term, inst)
    assert got == make_relation(2, {("a", "b")})


def test_eval_project_reorders_and_duplicates():
    r = make_relation(2, {("a", "b")})
    inst = Instance(frozenset({r}), {"r": r})
    term = parse_query("proj[2,1,1](r)", {"r": 2})
    assert evaluate(term, inst) == make_relation(3, {("b", "a", "a")})


@pytest.mark.parametrize(
    "term",
    [Project((0,), Base("r1")), Select(ColEqConst(0, "b"), Base("r1")), Project((), Base("r1"))],
    ids=["project-column-0", "select-column-0", "project-no-column"],
)
def test_eval_rejects_a_column_below_one_or_an_empty_projection(term):
    # Column 0 would wrap to the last column through negative indexing.
    r1 = make_relation(2, {("a", "b")})
    with pytest.raises(ArityError):
        evaluate(term, Instance(frozenset({r1}), {"r1": r1}))
    with pytest.raises(ArityError):
        static_arity(term, {"r1": 2})


def test_eval_bot():
    assert evaluate(Bot(), instance()) is BOTTOM


def test_eval_select_on_empty_operand():
    empty = BOTTOM
    inst = Instance(frozenset({empty}), {"e": empty})
    assert evaluate(Select(ColEqConst(1, "a"), Base("e")), inst) is BOTTOM
    assert evaluate(Project((1,), Base("e")), inst) is BOTTOM


def test_eval_unknown_relation(pa):
    with pytest.raises(UnknownRelation):
        evaluate(Base("nope"), pa)


def test_query_equiv(pa, rab):
    # Two terms are equivalent on an instance when they evaluate alike.
    r1 = Base("r1")
    assert evaluate(r1, pa) == evaluate(UnionTerm(r1, r1), pa)
    sel = Select(ColEqConst(1, "a"), r1)
    assert evaluate(sel, pa) == evaluate(r1, pa)
    wide = Instance(frozenset({rab}), {"r1": rab})
    assert evaluate(sel, wide) != evaluate(r1, wide)


def test_bottom_canonicalization_in_eval(pa):
    # no operation distinguishes empty relations of different arities
    join_empty = Join(Base("r1"), Bot())
    assert evaluate(join_empty, pa) is BOTTOM
    union_empty = UnionTerm(Base("r1"), Bot())
    assert evaluate(union_empty, pa) == pa.labels["r1"]


def test_flatten_substitution():
    ctx = Select(ColEqConst(1, "a"), Slot(1, 1))
    subbed = flatten_term(ctx, [UnionTerm(Base("r1"), Base("r2"))])
    assert subbed == Select(ColEqConst(1, "a"), UnionTerm(Base("r1"), Base("r2")))


def test_flatten_identity_context():
    q = UnionTerm(Base("r1"), Base("r2"))
    assert flatten_term(Slot(1, 1), [q]) == q


def test_flatten_arity_mismatch():
    with pytest.raises(ArityError):
        flatten_term(Slot(1, 2), [Slot(1, 1)])
    with pytest.raises(ArityError):
        flatten_term(Slot(1, 1), [])


def test_flatten_commutes_with_eval(ra, rb):
    inst = Instance(frozenset({ra, rb}), {"r1": ra, "r2": rb})
    ctx = Select(ColEqConst(1, "a"), Slot(1, 1))
    sub = UnionTerm(Base("r1"), Base("r2"))
    direct = evaluate(flatten_term(ctx, [sub]), inst)
    staged = evaluate(ctx, inst, slots=[evaluate(sub, inst)])
    assert direct == staged == ra


def _unary_contexts(max_nodes):
    """Every single-slot unary-valued term with at most max_nodes nodes.

    Arities stay unary (selections over column 1, single-column projections;
    joins are immediately projected back down) so any context substitutes
    into any other.
    """
    def well_formed(term):
        try:
            static_arity(term, {"r1": 1})
        except ArityError:
            return False  # selections or projections over the erased bottom
        return True

    by_size = {1: [Slot(1, 1), Base("r1"), Bot()]}
    for size in range(2, max_nodes + 1):
        terms = []
        for inner in by_size[size - 1]:
            terms.append(Select(ColEqConst(1, "a"), inner))
            terms.append(Select(ColEqConst(1, "b"), inner))
            terms.append(Project((1,), inner))
        for left_size in range(1, size - 1):
            for left in by_size[left_size]:
                for right in by_size[size - 1 - left_size]:
                    if slot_total(left) + slot_total(right) <= 1:
                        terms.append(UnionTerm(left, right))
        for left_size in range(1, size - 2):
            for left in by_size[left_size]:
                for right in by_size[size - 2 - left_size]:
                    if slot_total(left) + slot_total(right) <= 1:
                        terms.append(Project((1,), Join(left, right)))
        by_size[size] = [t for t in terms if well_formed(t)]
    out = []
    for terms in by_size.values():
        out.extend(t for t in terms if slot_total(t) == 1)
    return out


def slot_total(term):
    if isinstance(term, Slot):
        return 1
    if isinstance(term, (Select, Project)):
        return slot_total(term.arg)
    if isinstance(term, (Join, UnionTerm)):
        return slot_total(term.left) + slot_total(term.right)
    return 0


def test_flatten_associativity_exhaustive(pa, pab):
    # substituting u into t and then v equals substituting (u with v) into t:
    # nesting three stages either way gives the same term, over every
    # single-slot context of at most four nodes
    contexts = _unary_contexts(4)
    assert len(contexts) > 20
    for t, u in itertools.product(contexts, repeat=2):
        left = flatten_term(flatten_term(t, [u]), [Base("r1")])
        right = flatten_term(t, [flatten_term(u, [Base("r1")])])
        assert left == right
        for inst in (pa, pab):
            assert evaluate(left, inst) == evaluate(right, inst)


def test_eval_monotone_join_free(cfg0, all_instances):
    # growing the base relations grows every select/project/union view
    from viewflux import sorted_relations

    terms = []
    for c in sorted(cfg0.domain):
        terms.append(Select(ColEqConst(1, c), Base("r1")))
    terms.append(Project((1,), Base("r1")))
    terms.append(UnionTerm(Base("r1"), Base("r2")))
    singles = [i for i in all_instances if len(i.relations) == 2 and BOTTOM not in i.relations]
    for small in singles:
        for big in singles:
            rels_small = sorted_relations(small.relations)
            rels_big = sorted_relations(big.relations)
            if not all(s.tuples <= b.tuples for s, b in zip(rels_small, rels_big)):
                continue
            bind_small = {"r1": rels_small[0], "r2": rels_small[1]}
            bind_big = {"r1": rels_big[0], "r2": rels_big[1]}
            for term in terms:
                low = evaluate(term, Instance(small.relations, bind_small))
                high = evaluate(term, Instance(big.relations, bind_big))
                assert low.tuples <= high.tuples


# Round-trip property: rendering then parsing returns the same tree.

_names = st.sampled_from(["r1", "r2"])
_consts = st.sampled_from(["a", "b"])


def _terms(max_arity=3):
    def extend(children):
        unary = children.flatmap(
            lambda q: st.one_of(
                st.builds(Select, st.one_of(
                    st.builds(ColEqConst, st.integers(1, 1), _consts),
                ), st.just(q)),
                st.just(Project((1,), q)),
            )
        )
        binary = st.tuples(children, children).map(lambda lr: UnionTerm(*lr))
        return st.one_of(unary, binary)

    base = st.one_of(st.builds(Base, _names), st.just(Bot()))
    return st.recursive(base, extend, max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(_terms())
def test_format_parse_round_trip(term):
    text = format_query(term)
    try:
        parsed = parse_query(text, SCHEMA1)
    except ArityError:
        return  # selections over the bottom term are statically rejected
    assert parsed == term


@settings(max_examples=100, deadline=None)
@given(_terms())
def test_eval_canonicalizes_empties(term):
    inst = Instance(
        frozenset({make_relation(1, {("a",)}), make_relation(1, {("b",)})}),
        {"r1": make_relation(1, {("a",)}), "r2": make_relation(1, {("b",)})},
    )
    result = evaluate(term, inst)
    if not result.tuples:
        assert result is BOTTOM
