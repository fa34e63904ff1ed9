"""Tests of the benchmark itself: its correctness checks and its metric names.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from verify import BOTTOM, check_closure, compare_report, digest, is_closed  # noqa: E402
from workloads import closure_batch, pool  # noqa: E402

IDENTITY = {"a": "a", "b": "b", "c": "c"}
INPUT = "domain: a b c\n\nrelation r1/1:\na\n"
# The closure of {a}/1 over {a,b,c} at view arity 2.
VIEWS = frozenset({BOTTOM, (1, frozenset({("a",)})), (2, frozenset({("a", "a")}))})


def _output(views) -> str:
    lines = ["domain: a b c"]
    for n, (arity, tuples) in enumerate(sorted(views, key=repr), start=1):
        lines.append("")
        if tuples:
            lines.append(f"relation v{n}/{arity}:")
            lines.extend(" ".join(t) for t in sorted(tuples))
        else:
            lines.append(f"relation v{n}/1: empty")
    return "\n".join(lines) + "\n"


def _definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_report_comparison_accepts_the_golden_report():
    golden = (BENCH / "golden" / "check-abc.txt").read_text()
    assert compare_report(golden, golden) == (60, 0)


def test_report_comparison_rejects_one_altered_law_line():
    golden = (BENCH / "golden" / "check-abc.txt").read_text()
    lines = golden.splitlines(keepends=True)
    lines[5] = lines[5].replace("checked=", "checked=1")
    assert compare_report(golden, "".join(lines)) == (60, 1)


def test_report_comparison_counts_a_missing_law_line():
    golden = (BENCH / "golden" / "check-abc.txt").read_text()
    lines = golden.splitlines(keepends=True)
    del lines[-2]
    assert compare_report(golden, "".join(lines)) == (60, 1)


def test_closure_check_accepts_a_correct_closure():
    assert is_closed(VIEWS)
    assert check_closure(INPUT, _output(VIEWS), IDENTITY, digest(VIEWS), {}) == []


def test_closure_check_rejects_a_set_missing_its_input():
    views = VIEWS - {(1, frozenset({("a",)}))}
    problems = check_closure(INPUT, _output(views), IDENTITY, digest(VIEWS), {})
    assert "output misses an input relation" in problems


def test_closure_check_rejects_a_set_missing_the_bottom():
    problems = check_closure(INPUT, _output(VIEWS - {BOTTOM}), IDENTITY, digest(VIEWS), {})
    assert "output misses the bottom relation" in problems


def test_closure_check_rejects_a_set_that_is_not_closed():
    views = VIEWS - {(2, frozenset({("a", "a")}))}
    assert not is_closed(views)
    problems = check_closure(INPUT, _output(views), IDENTITY, digest(VIEWS), {})
    assert "one more round of the operators adds a view" in problems


def test_closure_check_maps_outputs_back_through_the_renaming():
    perm = {"a": "c", "b": "a", "c": "b"}
    renamed = frozenset({BOTTOM, (1, frozenset({("c",)})), (2, frozenset({("c", "c")}))})
    text = "domain: a b c\n\nrelation r1/1:\nc\n"
    assert check_closure(text, _output(renamed), perm, digest(VIEWS), {}) == []
    assert check_closure(text, _output(renamed), IDENTITY, digest(VIEWS), {}) == [
        "output differs from the committed closure"
    ]


def test_closure_batch_depends_only_on_the_seed():
    assert closure_batch(5) == closure_batch(5)
    assert closure_batch(5) != closure_batch(6)
    assert sorted(index for index, _, _ in closure_batch(5)) == list(range(len(pool())))


def test_golden_digests_cover_the_pool():
    digests = json.loads((BENCH / "golden" / "closure-k2.json").read_text())
    assert len(digests) == len(pool())


def test_traced_metrics_are_the_per_layer_metrics():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "pass", "closure-k2", "--trace"],
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    emitted = set(json.loads(proc.stdout.splitlines()[-1])["metrics"]) | run.RUN_METRICS
    assert emitted == {m["name"] for m in _definition()["per_layer"]}


def test_untraced_metrics_are_the_end_to_end_metrics():
    tally = run.Tally()
    tally.attempted = 8
    rounds = [[(1.0, 0.05, 20.0), (2.0, 0.05, 21.0)]]
    emitted = set(run.summarize(0.1, rounds, tally))
    assert emitted == {m["name"] for m in _definition()["end_to_end"]}


def test_call_times_are_counted_in_reference_loops():
    tally = run.Tally()
    tally.attempted = 6
    rounds = [
        [(1.0, 0.1, 20.0), (0.1, 0.1, 22.0), (0.5, 0.1, 20.0)],
        [(3.0, 0.1, 20.0), (0.4, 0.2, 21.0), (0.6, 0.1, 20.0)],
        [(4.0, 0.2, 19.0), (0.9, 0.1, 21.0), (0.7, 0.1, 20.0)],
    ]
    metrics = run.summarize(0.1, rounds, tally)
    # Per call: medians of (10, 30, 20), (1, 2, 9) and (5, 6, 7) reference loops.
    assert metrics["wall_ref"] == pytest.approx(20 + 2 + 6)
    assert metrics["call_p50_ref"] == pytest.approx(6)
    assert metrics["peak_rss_mb"] == 21.0
    assert metrics["success_rate"] == 1.0


def test_the_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-abc", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
