import argparse
import contextlib
import gc
import importlib.util
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import viewflux
from viewflux import cli, closure
from viewflux.cli import main
from viewflux.suites import SUITE_NAMES

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


def test_classify_iso_epi_general(files, capsys):
    (files / "iso.morph").write_text("morphism A.db -> A.db\nr1\n")
    (files / "epi.morph").write_text("morphism B.db -> A.db\ns1\n")
    (files / "general.morph").write_text("morphism B.db -> B.db\ns1\n")
    for kind in ("iso", "epi", "general"):
        code, out = run(capsys, "classify", str(files / f"{kind}.morph"))
        assert code == 0 and out.strip() == kind


def test_check_reports_a_failing_law_and_exits_1(capsys, monkeypatch):
    # A closure of the first relation alone is not extensive.
    first_only = lambda a, cfg: viewflux.power_view(
        viewflux.Instance(frozenset(viewflux.sorted_relations(a.relations)[:1]), {}), cfg
    )
    monkeypatch.setattr(viewflux.suites, "power_view", first_only)
    code, out = run(capsys, "check", "closure")
    assert code == 1
    lines = out.splitlines()
    assert lines[2] == "FAIL    closure.extensive            checked=16 first_failure={bot, {(a)}/1}"
    assert lines[-1] == "result: FAIL (8 laws, 6 failed, 0 flagged)"


def test_classify_subobject(files, capsys):
    code, out = run(capsys, "classify-subobject", str(files / "A.db"), str(files / "C.db"))
    assert code == 0
    assert "generator-level: PASS" in out
    assert "closure-level audit: FLAGGED" in out


def test_classify_subobject_of_an_ambient_above_the_arity_cap(tmp_path, capsys):
    # The ambient holds a binary relation at --kmax 1: the characteristic
    # arrow transmits only the views up to the cap.
    (tmp_path / "X.db").write_text(
        "domain: a b c\n\nrelation r1/2:\na b\nb c\n\nrelation r2/1:\nc\n"
    )
    (tmp_path / "Y.db").write_text("domain: a b c\n\nrelation r1/2:\na b\n")
    code, out = run(
        capsys, "classify-subobject", str(tmp_path / "Y.db"), str(tmp_path / "X.db"),
        "--kmax", "1",
    )
    assert code == 0
    assert "factorization: PASS (27 arrows)" in out
    assert "characteristic arrows in class: 1" in out
    assert "closure-level audit: FLAGGED" in out


def test_classify_subobject_at_kmax_2_over_three_constants(tmp_path, capsys):
    # The ambient's closure is the 519-view total object, which has 3 atoms.
    (tmp_path / "X.db").write_text("domain: a b c\n\nrelation r1/2:\na b\nb c\n")
    (tmp_path / "Y.db").write_text("domain: a b c\n\nrelation r1/1:\na\n")
    code, out = run(
        capsys, "classify-subobject", str(tmp_path / "Y.db"), str(tmp_path / "X.db"),
        "--kmax", "2",
    )
    assert code == 0
    assert out.splitlines()[-4:] == [
        "generator-level: PASS",
        "factorization: PASS (27 arrows)",
        "characteristic arrows in class: 1",
        "closure-level audit: FLAGGED",
    ]


def test_closed_subset_bound_follows_the_env_override(tmp_path, capsys, monkeypatch):
    # Ten ternary tuples over {a,b,c}: at k=1 the ambient has 13 atoms, and
    # 2**13 sets of them are over the overridden bound.
    rows = [" ".join(t) for t in itertools.product("abc", repeat=3)][:10]
    (tmp_path / "X.db").write_text("domain: a b c\n\nrelation r1/3:\n" + "\n".join(rows) + "\n")
    (tmp_path / "Y.db").write_text("domain: a b c\n\nrelation r1/1:\na\n")
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "2000")
    code, err = _error(
        capsys, "classify-subobject", str(tmp_path / "Y.db"), str(tmp_path / "X.db")
    )
    assert code == 2
    assert "2**13 sets of atoms exceed the enumeration bound 2000" in err


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


def test_env_override_bounds_the_triples_a_run_walks(files, capsys, monkeypatch):
    # 93 instances at {a,b,c} with up to three relations: 93**3 = 804357
    # triples, over the default bound of 200000 and within an override of
    # exactly that many.
    argv = ["check", "closure", "--domain", "a,b,c", "--max-relations", "3"]
    code, err = _error(capsys, *argv)
    assert code == 2
    assert err.startswith("error: 93 instances enumerated; ") and " 804357 triples" in err, err
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "804356")
    assert _error(capsys, *argv)[0] == 2
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "804357")
    code, out = run(capsys, *argv)
    assert code == 0, out
    assert "result: PASS" in out


@pytest.mark.parametrize(
    "argv", [["flux", "f.morph"], ["classify", "f.morph"], ["compose", "f.morph", "g.morph"]],
    ids=lambda argv: argv[0],
)
def test_morphism_commands_read_the_env_override(files, capsys, monkeypatch, argv):
    monkeypatch.chdir(files)
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "abc")
    code, err = _error(capsys, *argv)
    assert code == 2
    assert err == "error: VIEWFLUX_MAX_ENUM must be a positive integer, got 'abc'\n"
    # The closure of B has four views, over the overridden bound of 2.
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "2")
    code, err = _error(capsys, *argv)
    assert code == 2
    assert err == "error: saturation produced more than 2 views\n", err


def _error(capsys, *argv):
    """Exit status and standard error of a call that must fail cleanly."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    return code, err


@pytest.mark.parametrize("value", ["0", "-3"])
def test_check_rejects_max_relations_below_one(files, capsys, value):
    code, err = _error(capsys, "check", "all", "--max-relations", value)
    assert code == 2
    assert "max_relations must be at least 1" in err


def test_missing_file_is_an_error(files, capsys):
    code, err = _error(capsys, "closure", str(files / "missing.db"))
    assert code == 2
    assert "missing.db" in err


def test_directory_is_an_error(files, capsys):
    code, _ = _error(capsys, "closure", str(files))
    assert code == 2


def test_binary_file_is_an_error(files, capsys):
    (files / "bin.db").write_bytes(b"\x89PNG\r\n\x1a\n\xff\x00")
    code, _ = _error(capsys, "closure", str(files / "bin.db"))
    assert code == 2


def test_check_all_at_one_constant_passes(files, capsys):
    code, out = run(capsys, "check", "all", "--domain", "a")
    assert code == 0, out
    assert "result: PASS (60 laws, 0 failed" in out


def test_non_utf8_file_error_names_the_file(files, capsys):
    (files / "bin.db").write_bytes(b"\x89PNG\r\n\x1a\n\xff\x00")
    (files / "bin.morph").write_bytes(b"\x89PNG\r\n\x1a\n\xff\x00")
    (files / "h.morph").write_text("morphism bin.db -> A.db\nr1\n")
    for argv, name in [
        (("closure", str(files / "bin.db")), "bin.db"),
        (("match", str(files / "A.db"), str(files / "bin.db")), "bin.db"),
        (("flux", str(files / "bin.morph")), "bin.morph"),
        (("flux", str(files / "h.morph")), "bin.db"),
    ]:
        code, err = _error(capsys, *argv)
        assert code == 2
        assert f"{name} is not UTF-8 text" in err, err


def test_closure_of_binary_chain_exceeds_view_bound(files, capsys):
    (files / "chain.db").write_text(
        "domain: a b c d\n\nrelation r1/2:\na b\nb c\nc d\n"
    )
    code, err = _error(capsys, "closure", str(files / "chain.db"), "--kmax", "2")
    assert code == 2
    assert err == "error: saturation produced more than 20000 views\n"


@pytest.mark.parametrize("domain, kmax, message", [
    ("a,b,c", "3", "universe holds 134218246 relations, bound is 20000"),
    ("a,b,c,d,e,f,g,h,i", "2", "2**81 relations of arity 2 exceed any workable bound"),
    ("a", "1000000000", "universe holds 1000000001 relations, bound is 20000"),
])
def test_total_refuses_an_over_bound_universe_by_its_size(domain, kmax, message):
    # The universe is counted before a support row is formed, and one
    # constant's without a walk over its arities.
    proc = _run_bounded("total", "--domain", domain, "--kmax", kmax)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("text, code, out, err", [
    ("domain: a\n\nrelation r1/1:\na\n", 2, "", "error: saturation produced more than 20000 views\n"),
    ("domain: a b\n", 0, "domain: a b\n\nrelation v1/1: empty\n", ""),
], ids=["one-constant", "no-tuple"])
def test_closure_at_a_billion_arities_forms_none_past_the_bound(tmp_path, text, code, out, err):
    # One constant makes one view per arity, so the count passes the bound
    # at arity 20,000; an instance with no tuple forms no arity at all.
    (tmp_path / "X.db").write_text(text)
    proc = _run_bounded("closure", str(tmp_path / "X.db"), "--kmax", "1000000000")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("max_relations", ["1000000000", "100000000000000000000"])
def test_check_past_the_universes_size_enumerates_the_same_instances(capsys, max_relations):
    # No instance holds more than the universe's four relations, so the count
    # and the enumeration stop there; only the config line keeps the value.
    proc = _run_bounded("check", "closure", "--max-relations", max_relations)
    code, out = run(capsys, "check", "closure", "--max-relations", "4")
    given = out.replace("max_relations=4\n", f"max_relations={max_relations}\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, given, "") and code == 0


@pytest.mark.parametrize("env, domain, max_relations, message", [
    (None, "abcdefghijklmn", "4800", "over 2**14289 instances requested, bound is 200000"),
    (None, "abcdefghijklmn", "100000", "2**16384 instances requested, bound is 200000"),
    ("9" * 2500, "abcdefghijklm", "8192",
     f"{2**8192} instances enumerated; the suites walk their 2**24576 triples, over the "
     f"enumeration bound {'9' * 2500}. Lower max_relations (or raise max_enumeration)."),
    ("9" * 4301, "ab", "4", "VIEWFLUX_MAX_ENUM has 4301 digits, too many to read"),
], ids=["count", "count-past-the-universe", "triples", "bound"])
def test_numbers_past_the_int_text_limit_are_refused(monkeypatch, env, domain, max_relations, message):
    # Each number has more digits than str() converts: a count over 14 or 13
    # constants, the cube of one under a raised bound, or the bound itself.
    # A power of two prints as one, any other count as the power below it.
    if env is not None:
        monkeypatch.setenv("VIEWFLUX_MAX_ENUM", env)
    proc = _run_bounded("check", "closure", "--domain", ",".join(domain), "--max-relations", max_relations)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_chain_rejects_negative_steps(files, capsys):
    code, err = _error(capsys, "chain", str(files / "A.db"), "--steps", "-1")
    assert code == 2
    assert "steps must be at least 0, got -1" in err


KMAX_9_ARGV = ["check", "all", "--domain", "a", "--kmax", "9", "--max-relations", "1"]


def test_check_all_at_kmax_9_passes(files, capsys):
    # Witness queries are read off the closed form, so no saturation tries
    # the 9 + 9**2 + ... + 9**9 projections of a relation of arity 9.
    code, out = run(capsys, *KMAX_9_ARGV)
    assert code == 0, out
    assert "result: PASS (60 laws, 0 failed" in out


def test_witness_saturation_passes_below_the_projection_bound(files, capsys):
    # The classifier builds the witnesses of every class.
    code, out = run(capsys, "check", "topos", "--domain", "a", "--kmax", "6", "--max-relations", "1")
    assert code == 0, out


def test_check_fails_early_on_the_instance_cap(files, capsys):
    argv = ["check", "all", "--domain", "a,b,c", "--kmax", "2", "--max-relations", "1"]
    code, err = _error(capsys, *argv)
    assert code == 2
    assert "520 instances enumerated" in err


def _run_with_src(*argv, **options):
    """Run ``python *argv`` with this checkout's ``src`` on ``PYTHONPATH``;
    ``options`` go to ``subprocess.run``."""
    src = str(Path(viewflux.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        **options,
    )


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_bounded(*argv):
    """``python -m viewflux *argv`` held to 20 s and 1 GiB of address space,
    so that a walk over a billion arities fails the test instead of running
    for minutes or exhausting the machine's memory."""
    return _run_with_src("-m", "viewflux", *argv, timeout=20, preexec_fn=_limit_address_space)


def test_main_unfreezes_the_objects_it_froze(files, capsys):
    for argv in (["closure", str(files / "A.db")], ["closure", str(files / "missing.db")]):
        main(argv)
        assert gc.get_freeze_count() == 0


def test_python_m_viewflux_runs_the_cli():
    proc = _run_with_src("-m", "viewflux", "check", "closure")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("suite: closure")


BENCH = Path(__file__).parents[1] / "bench"


def _load_bench_module(name: str):
    """A module of ``bench/``, loaded from its file without changing ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"viewflux_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_worker_sets_up_and_runs_check_abc():
    # The benchmark's worker builds the suite context itself and runs the
    # workload through `main`, each in a fresh interpreter; its last line
    # is a JSON object.
    results = []
    for mode in ("setup", "pass"):
        proc = _run_with_src(str(BENCH / "worker.py"), mode, "check-abc")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert results[0]["setup_s"] > 0
    assert results[1]["statuses"] == [0]
    assert results[1]["outputs"] == [(BENCH / "golden" / "check-abc.txt").read_text()]


# --- the command line's own text --------------------------------------------

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
COMMANDS = [
    "eval", "closure", "total", "match", "merge", "homobj", "distance", "chain",
    "compose", "flux", "classify", "classify-subobject", "check",
]
# The top-level parser's text: no arguments, help, an unknown command, an
# option before any command, and an unknown option after a command's
# arguments (reported with the top-level usage line).
TOP_CASES = [[], ["-h"], ["nosuch"], ["--kmax", "2"], ["closure", "x.db", "--bogus"]]


def _golden_cases():
    """Each golden file's name and the argument lists whose text it holds."""
    yield "viewflux", TOP_CASES
    for name in COMMANDS:
        yield name, [[name, "--help"], [name], [name, "--bogus"]]


def _exit_status(argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _transcript(cases, call) -> str:
    """Exit status, standard output and standard error of each call of
    ``main``; ``call`` runs one and returns the three."""
    return "".join(
        f"$ viewflux {' '.join(argv)}\n--- exit {code}\n--- stdout\n{out}--- stderr\n{err}"
        for argv in cases
        for code, out, err in [call(argv)]
    )


@pytest.mark.parametrize("name, cases", list(_golden_cases()), ids=[n for n, _ in _golden_cases()])
def test_cli_text_matches_golden(capsys, monkeypatch, name, cases):
    # Help is wrapped to the terminal width, which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    text = _transcript(cases, lambda argv: (_exit_status(argv), *capsys.readouterr()))
    assert text == (GOLDEN_CLI / f"{name}.txt").read_text()


# --- printed closed sets -------------------------------------------------------

GOLDEN_CLOSED = Path(__file__).parent / "golden" / "closed"
#: The instance files the printed-closure goldens read, written into the
#: working directory so that each transcript names them alike.
CLOSED_INPUTS = {
    "path.db": "domain: a b c\n\nrelation r1/2:\na b\nb c\n",
    "ternary.db": "domain: a b c\n\nrelation r1/2:\na b\nb c\n\n"
                  "relation r2/3:\na b c\nb c a\nc a b\n",
    "pair.db": "domain: a b\n\nrelation r1/2:\na b\n",
    "left.db": "domain: a b\n\nrelation r1/1:\na\n",
    "right.db": "domain: a b\n\nrelation s1/3:\nb a b\n",
}
# Closures at the view-arity cap 2: 519 views of a binary path, 526 with an
# arity-3 relation above the cap, the total object over {a,b,c}, an omega
# chain, and a merge that holds an arity-3 view.
CLOSED_CASES = {
    "closure-k2": ["closure", "path.db", "--kmax", "2"],
    "closure-ternary-k2": ["closure", "ternary.db", "--kmax", "2"],
    "total-k2": ["total", "--domain", "a,b,c", "--kmax", "2"],
    "chain-k2": ["chain", "pair.db", "--steps", "2", "--kmax", "2"],
    "merge-k2": ["merge", "left.db", "right.db", "--kmax", "2"],
}


def _write_closed_inputs(directory: Path) -> None:
    for name, text in CLOSED_INPUTS.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("name", CLOSED_CASES)
def test_printed_closure_matches_golden(tmp_path, capsys, monkeypatch, name):
    _write_closed_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    text = _transcript([CLOSED_CASES[name]], lambda argv: (_exit_status(argv), *capsys.readouterr()))
    assert text == (GOLDEN_CLOSED / f"{name}.txt").read_text()


def test_closure_command_builds_no_view(tmp_path, capsys, monkeypatch, clear_caches):
    # The 519 views of the binary path print from the support the command
    # computes, so the one relation built is the file's own, and no closed
    # set is built.
    _write_closed_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    built = []
    init = viewflux.Relation.__post_init__
    monkeypatch.setattr(viewflux.Relation, "__post_init__", lambda r: built.append(r) or init(r))
    text = _transcript([CLOSED_CASES["closure-k2"]], lambda argv: (_exit_status(argv), *capsys.readouterr()))
    monkeypatch.undo()
    assert [r.tuples for r in built] == [{("a", "b"), ("b", "c")}]
    assert text == (GOLDEN_CLOSED / "closure-k2.txt").read_text()
    assert not closure._closed
    # The support is held to the view bound as the closure was.
    monkeypatch.setenv("VIEWFLUX_MAX_ENUM", "2")
    code, err = _error(capsys, "closure", str(tmp_path / "path.db"), "--kmax", "2")
    assert (code, err) == (2, "error: saturation produced more than 2 views\n")


# --- the plain-call reader ----------------------------------------------------

#: Tokens of the differential corpus: every declared flag, forms that only
#: argparse reads (``--flag=value``, an abbreviation, ``--``, ``-``, help),
#: values argparse converts or refuses in ways of its own, suites and files.
PLAIN_POOL = [
    *sorted({flag for name in cli.COMMANDS for flag, _ in cli._arguments(name) if flag.startswith("-")}),
    "--kmax=2", "--km", "-h", "--", "-", "",
    "-1", "+3", " 4", "\u0663", "9" * 5000, "2", "a,b",
    *SUITE_NAMES, "A.db", "B.db", "f.morph",
]


def _typed(namespace) -> list[tuple]:
    # ``True == 1``, so the types are compared too.
    return sorted((name, type(value).__name__, value) for name, value in vars(namespace).items())


def test_plain_reader_agrees_with_argparse():
    # Whatever the reader accepts, argparse reads alike; what it leaves,
    # argparse reads or refuses as before.
    rng = random.Random(2011)
    commands = list(cli.COMMANDS)
    parser = cli._parser()
    accepted = set()
    for _ in range(50_000):
        argv = [rng.choice(commands), *rng.choices(PLAIN_POOL, k=rng.randint(0, 6))]
        plain = cli._read_plain(argv)
        if plain is None:
            continue
        accepted.add(argv[0])
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                expected = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv!r}: {err.getvalue()}")
        assert _typed(plain) == _typed(expected), argv
    assert accepted == set(cli.COMMANDS)


def test_plain_reader_accepts_the_documented_calls():
    workloads = _load_bench_module("workloads")
    argvs = [
        *CLOSED_CASES.values(),
        *workloads.CHECK_ARGS.values(),
        workloads.closure_args("X.db"),
        KMAX_9_ARGV,
    ]
    parser = cli._parser()
    for argv in argvs:
        plain = cli._read_plain(argv)
        assert plain is not None, argv
        assert _typed(plain) == _typed(parser.parse_args(argv))


@pytest.mark.parametrize("argv, code, parsers", [
    (["closure", "A.db", "--kmax", "2"], 0, 0),
    (["check", "all", "--domain", "a"], 0, 0),
    (["--help"], 0, 14),
    (["nosuch"], 2, 14),
    (["closure", "A.db", "--kmax=2"], 0, 14),
])
def test_main_builds_argument_parsers_only_for_what_the_reader_leaves(
    files, capsys, monkeypatch, argv, code, parsers
):
    # A plain call builds none; any other builds the top-level parser and
    # every command's, so that help and errors list them all.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    argv = [str(files / arg) if arg.endswith(".db") else arg for arg in argv]
    assert _exit_status(argv) == code
    assert len(built) == parsers


def test_a_plain_call_loads_no_argument_parser(files):
    # argparse, and the gettext and locale modules its first use loads,
    # stay unloaded through a plain call.
    script = (
        "import sys\n"
        "from viewflux.cli import main\n"
        f"assert main(['closure', {str(files / 'A.db')!r}, '--kmax', '2']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
    )
    proc = _run_with_src("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


if __name__ == "__main__":
    # Rewrite the golden transcripts and printed closures:
    # PYTHONPATH=src python tests/test_cli.py
    import tempfile

    def redirected(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _exit_status(argv)
        return code, out.getvalue(), err.getvalue()

    os.environ["COLUMNS"] = "80"
    GOLDEN_CLI.mkdir(exist_ok=True)
    for name, cases in _golden_cases():
        (GOLDEN_CLI / f"{name}.txt").write_text(_transcript(cases, redirected))

    GOLDEN_CLOSED.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_closed_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            texts = {name: _transcript([argv], redirected) for name, argv in CLOSED_CASES.items()}
        finally:
            os.chdir(cwd)
    for name, text in texts.items():
        (GOLDEN_CLOSED / f"{name}.txt").write_text(text)
