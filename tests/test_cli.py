import pytest

from viewflux.cli import main

A_DB = "domain: a b\n\nrelation r1/1:\na\n"
B_DB = "domain: a b\n\nrelation s1/1:\na\n\nrelation s2/1:\nb\n"
C_DB = "domain: a b\n\nrelation t1/1:\na\nb\n"


@pytest.fixture()
def files(tmp_path):
    (tmp_path / "A.db").write_text(A_DB)
    (tmp_path / "B.db").write_text(B_DB)
    (tmp_path / "C.db").write_text(C_DB)
    (tmp_path / "f.morph").write_text("morphism A.db -> B.db\nr1\n")
    (tmp_path / "g.morph").write_text("morphism B.db -> C.db\nunion(s1,s2)\n")
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eval(files, capsys):
    code, out = run(capsys, "eval", str(files / "B.db"), "sel[1='a'](union(s1,s2))")
    assert code == 0
    assert "relation result/1:" in out
    assert "\na\n" in out


def test_closure(files, capsys):
    code, out = run(capsys, "closure", str(files / "A.db"))
    assert code == 0
    assert out.count("relation") == 2
    assert "empty" in out


def test_total(files, capsys):
    code, out = run(capsys, "total", "--domain", "a,b", "--kmax", "1")
    assert code == 0
    assert out.count("relation") == 4


def test_match_merge_homobj_distance(files, capsys):
    a, b = str(files / "A.db"), str(files / "B.db")
    for op, relations in [("match", 2), ("merge", 4), ("homobj", 2), ("distance", 2)]:
        code, out = run(capsys, op, a, b)
        assert code == 0, op
        assert out.count("relation") == relations, (op, out)


def test_chain(files, capsys):
    code, out = run(capsys, "chain", str(files / "A.db"), "--steps", "2")
    assert code == 0
    assert out.count("# step") == 3


def test_compose_flux_classify(files, capsys):
    code, out = run(capsys, "compose", str(files / "f.morph"), str(files / "g.morph"))
    assert code == 0
    assert "classification: mono" in out

    code, out = run(capsys, "flux", str(files / "f.morph"))
    assert code == 0
    assert out.count("relation") == 2

    code, out = run(capsys, "classify", str(files / "f.morph"))
    assert code == 0
    assert out.strip() == "mono"


def test_classify_subobject(files, capsys):
    code, out = run(capsys, "classify-subobject", str(files / "A.db"), str(files / "C.db"))
    assert code == 0
    assert "generator-level: PASS" in out
    assert "closure-level audit: FLAGGED" in out


def test_classify_subobject_rejects_non_subobject(files, capsys):
    (files / "D.db").write_text("domain: a b\n\nrelation u1/1:\nb\n")
    code, _ = run(capsys, "classify-subobject", str(files / "D.db"), str(files / "A.db"))
    assert code == 2


def test_check_pass_exit_zero(files, capsys):
    code, out = run(capsys, "check", "closure")
    assert code == 0
    assert "result: PASS" in out


def test_check_topos_flagged_still_zero(files, capsys):
    code, out = run(capsys, "check", "topos")
    assert code == 0
    assert "FLAGGED" in out


def test_probe_alias(files, capsys):
    code, out = run(capsys, "probe", "--suite", "negative")
    assert code == 0
    assert "negative.not-well-pointed" in out


def test_check_determinism(files, capsys):
    _, first = run(capsys, "check", "metric")
    _, second = run(capsys, "check", "metric")
    assert first == second


def test_domain_mismatch_error(files, capsys):
    (files / "E.db").write_text("domain: a\n\nrelation r1/1:\na\n")
    code = main(["match", str(files / "A.db"), str(files / "E.db")])
    assert code == 2


def test_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "10")
    code = main(["check", "closure"])
    # ten instances exceed the overridden bound, so enumeration errors out
    assert code == 2


@pytest.mark.parametrize("value", ["abc", "0"])
def test_env_override_rejects_bad_value(files, capsys, monkeypatch, value):
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", value)
    for argv in (["closure", str(files / "A.db")], ["check", "closure"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: VIEWFLUX_MAX_ENUM"), err


def test_explicit_max_instances_beats_env(files, capsys, monkeypatch):
    # 93 instances at {a,b,c} with up to three relations: within the
    # environment's bound of 100, but over the explicit cap of 64
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "100")
    argv = ["check", "closure", "--domain", "a,b,c", "--max-relations", "3"]
    assert main(argv + ["--max-instances", "64"]) == 2
    assert "93 instances enumerated" in capsys.readouterr().err
