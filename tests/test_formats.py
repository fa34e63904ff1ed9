import pytest
from hypothesis import given, settings, strategies as st

from viewflux import (
    ArityMismatch,
    BOTTOM,
    Instance,
    QuerySyntaxError,
    UnknownConstant,
    load_instance,
    load_morphism,
    make_relation,
    parse_instance,
    power_view,
    render_instance,
)
from viewflux.queries import format_query

SAMPLE = """\
domain: a b

relation r1/1:
a
b

relation r2/2:
a b

relation r3/1: empty
"""


def test_parse_instance_blocks():
    inst, domain = parse_instance(SAMPLE)
    assert domain == frozenset({"a", "b"})
    assert inst.labels["r1"] == make_relation(1, {("a",), ("b",)})
    assert inst.labels["r2"] == make_relation(2, {("a", "b")})
    assert inst.labels["r3"] is BOTTOM
    assert len(inst.relations) == 3


def test_parse_instance_errors():
    with pytest.raises(QuerySyntaxError):
        parse_instance("relation r/1:\na\n")  # missing domain line
    with pytest.raises(UnknownConstant):
        parse_instance("domain: a\nrelation r/1:\nz\n")
    with pytest.raises(ArityMismatch):
        parse_instance("domain: a\nrelation r/2:\na\n")
    with pytest.raises(ArityMismatch):
        parse_instance("domain: a\nrelation r/1:\na\nrelation r/1:\na\n")
    with pytest.raises(QuerySyntaxError):
        parse_instance("domain: a\na\n")


def test_round_trip(tmp_path):
    inst, domain = parse_instance(SAMPLE)
    path = tmp_path / "sample.db"
    path.write_text(render_instance(inst, domain))
    again, domain2 = load_instance(path)
    assert again == inst
    assert domain2 == domain


def test_render_auto_names(cfg0, pab):
    closure = power_view(pab, cfg0)
    text = render_instance(Instance(closure.relations, {}), cfg0.domain)
    # canonical order: the bottom first, then by extension
    assert text.splitlines()[0] == "domain: a b"
    assert "relation v1/1: empty" in text
    assert text.count("relation") == 4
    inst, _ = parse_instance(text)
    assert inst.relations == closure.relations


def test_render_is_deterministic(cfg0, pab):
    closure = power_view(pab, cfg0)
    a = render_instance(Instance(closure.relations, {}), cfg0.domain)
    b = render_instance(Instance(closure.relations, {}), cfg0.domain)
    assert a == b


def test_a_closed_set_prints_as_the_instance_of_its_views(flux_pairs):
    # Written from its support rows, a closed set (tagged ones among them)
    # prints as the plain instance of its relations, in canonical order.
    for x, _, cfg in {id(x): (x, y, cfg) for x, y, cfg in flux_pairs}.values():
        assert render_instance(x, cfg.domain) == render_instance(Instance(x.relations, {}), cfg.domain), x


def render_morphism(f, src_name, tgt_name):
    """The text of an atomic morphism: one query per top-level tree."""
    queries = sorted(format_query(t.head.query) for t in f.trees)
    return "\n".join([f"morphism {src_name} -> {tgt_name}", *queries]) + "\n"


def test_morphism_round_trip(tmp_path, cfg0):
    (tmp_path / "A.db").write_text("domain: a b\n\nrelation r1/1:\na\nb\n")
    (tmp_path / "B.db").write_text("domain: a b\n\nrelation s1/1:\na\n")
    (tmp_path / "f.morph").write_text("morphism A.db -> B.db\nsel[1='a'](r1)\n")
    f = load_morphism(tmp_path / "f.morph")
    assert f.flux.relations == frozenset({BOTTOM, make_relation(1, {("a",)})})
    text = render_morphism(f, "A.db", "B.db")
    (tmp_path / "g.morph").write_text(text)
    g = load_morphism(tmp_path / "g.morph")
    assert g.flux.relations == f.flux.relations


def test_morphism_domain_mismatch(tmp_path):
    (tmp_path / "A.db").write_text("domain: a\n\nrelation r1/1:\na\n")
    (tmp_path / "B.db").write_text("domain: a b\n\nrelation s1/1:\na\n")
    (tmp_path / "f.morph").write_text("morphism A.db -> B.db\n")
    with pytest.raises(UnknownConstant):
        load_morphism(tmp_path / "f.morph")


def test_morphism_bad_header(tmp_path):
    (tmp_path / "f.morph").write_text("not a morphism\n")
    with pytest.raises(QuerySyntaxError):
        load_morphism(tmp_path / "f.morph")


_rel_strategy = st.sets(
    st.tuples(st.sampled_from("ab")), min_size=0, max_size=2
).map(lambda rows: make_relation(1, rows))


@settings(max_examples=50, deadline=None)
@given(st.sets(_rel_strategy, min_size=0, max_size=4))
def test_round_trip_random_instances(relations):
    from viewflux import with_default_labels

    inst = with_default_labels(Instance(frozenset(relations), {}))
    text = render_instance(inst, frozenset({"a", "b"}))
    again, domain = parse_instance(text)
    assert again == inst
    assert domain == frozenset({"a", "b"})
