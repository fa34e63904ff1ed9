"""Benchmark of viewflux as a single-process batch verifier.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/viewflux``; the
benchmark uses the sources there and writes only under ``.bench_work/`` and
the interpreter's ``__pycache__`` directories.  Every command call runs in a
fresh interpreter with a single caller, so every cache starts cold as it
does for a user of the command line.

With ``--trace 0`` the run makes rounds while the next one is expected to
end within ``--seconds``, at least ``MIN_ROUNDS``.  A round of a check
workload is one ``check`` call; a round of ``closure-k2`` closes each
instance of the batch once, one interpreter per closure, in the order the
seed picks.  Before each round the run times ``SETUPS_PER_ROUND`` set-ups in
fresh interpreters, and more after the last round until there are
``SETUP_REPEATS``.  Spreading the set-ups over the run keeps one short slow
spell of the machine from deciding their median.

The speed of a shared machine drifts by a quarter and more over minutes,
for any code alike.  So the worker times a fixed pure-Python reference loop
before, during and after every untraced command call (see ``worker._call``),
and the run reports call times in units of that loop's time (see
``summarize``).  ``setup_s`` stays in seconds.

With ``--trace 1`` it makes one untraced and one traced pass, each running
every command call of a round in one interpreter, and reports the per-layer
metrics of the traced pass, plus the untraced pass's wall seconds and the
reference loop's time.

Every call is checked against the committed golden outputs (see
``verify.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from verify import check_closure, compare_report
from workloads import CLOSURE, WORKLOADS, closure_batch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden"

#: A median needs more than one round; a run that made a second round only
#: when the first was fast would also bias the median towards fast rounds.
MIN_ROUNDS = 2
SETUPS_PER_ROUND = 3
SETUP_REPEATS = 15
#: Per-layer metrics the traced run adds to those of the traced worker.
RUN_METRICS = {"wall_s", "ref_loop_s", "trace_overhead"}
#: Every worker must end this many seconds after the run started.
DEADLINE_S = 170


class BenchError(Exception):
    """The run cannot produce a result."""


class Tally:
    """Operations attempted and failed, and whether every output is correct."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def problem(self, message: str) -> None:
        self.correct = False
        sys.stderr.write(f"incorrect: {message}\n")


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.tally = Tally()
        self.files: list[str] = []
        if workload == CLOSURE:
            self.batch = closure_batch(seed)
            self.digests = json.loads((GOLDEN / f"{CLOSURE}.json").read_text())
            self.closed_cache: dict = {}
            self.work = WORK / f"{CLOSURE}-{seed}"
            self.work.mkdir(parents=True, exist_ok=True)
            for n, (_, _, text) in enumerate(self.batch):
                path = self.work / f"i{n}.db"
                path.write_text(text)
                self.files.append(str(path))
        else:
            self.golden = (GOLDEN / f"{workload}.txt").read_text()

    def close(self) -> None:
        """Remove the run's input files."""
        if self.workload == CLOSURE:
            shutil.rmtree(self.work, ignore_errors=True)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def worker(self, *args: str) -> dict:
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError(f"no time left within {DEADLINE_S} s")
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args[:2]} did not end within {DEADLINE_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker {args[:2]} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def warm_up(self) -> None:
        """One untimed set-up, which writes the bytecode caches of a fresh checkout."""
        self.worker("setup", self.workload, *self.files)

    def setup_s(self) -> float:
        return self.worker("setup", self.workload, *self.files)["setup_s"]

    def run_pass(self, trace: bool, entries: list[int] | None = None) -> dict:
        """One worker running the calls of ``entries`` (batch positions of
        ``closure-k2``; all of them when ``None``), checked."""
        if entries is None:
            entries = list(range(len(self.files)))
        flags = ["--trace"] if trace else []
        files = [self.files[i] for i in entries]
        result = self.worker("pass", self.workload, *flags, *files)
        self.check(result, entries)
        return result

    def check(self, result: dict, entries: list[int]) -> None:
        tally = self.tally
        if self.workload != CLOSURE:
            (status,), (report,) = result["statuses"], result["outputs"]
            attempted, differing = compare_report(self.golden, report)
            tally.attempted += attempted
            tally.failed += differing
            if status != 0:
                tally.problem(f"check exited with status {status}")
            if report != self.golden:
                tally.problem(f"report differs from the golden one in {differing} law lines")
            return
        for entry, status, output in zip(entries, result["statuses"], result["outputs"]):
            index, perm, text = self.batch[entry]
            tally.attempted += 1
            problems = check_closure(text, output, perm, self.digests[index], self.closed_cache)
            if status != 0:
                problems.append(f"closure exited with status {status}")
            if problems:
                tally.failed += 1
                tally.problem(f"closure of pool entry {index}: {'; '.join(problems)}")

    def run_round(self) -> list[tuple[float, float, float]]:
        """One untraced round: (seconds, reference seconds, peak resident MB)
        of each command call, in batch order.  The reference seconds are the
        median of the reference loop's timings around and during the call.
        Each closure of ``closure-k2`` gets its own worker."""
        entries = [None] if self.workload != CLOSURE else [[e] for e in range(len(self.files))]
        calls = []
        for entry in entries:
            result = self.run_pass(trace=False, entries=entry)
            ref_s = statistics.median(result["ref_s"][0])
            calls.append((result["call_s"][0], ref_s, result["peak_rss_mb"]))
        return calls

    def measure(self, seconds: float) -> dict[str, float]:
        self.warm_up()
        setups, rounds = [], []
        while True:
            begun = self.elapsed()
            setups.extend(self.setup_s() for _ in range(SETUPS_PER_ROUND))
            rounds.append(self.run_round())
            expected_end = self.elapsed() + (self.elapsed() - begun)
            if len(rounds) >= MIN_ROUNDS and expected_end > seconds:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(self.setup_s())
        return summarize(statistics.median(setups), rounds, self.tally)

    def trace(self) -> dict[str, float]:
        self.warm_up()
        plain = self.run_pass(trace=False)
        traced = self.run_pass(trace=True)
        metrics = dict(traced["metrics"])
        metrics["wall_s"] = sum(plain["call_s"])
        metrics["ref_loop_s"] = statistics.median(t for refs in plain["ref_s"] for t in refs)
        metrics["trace_overhead"] = sum(traced["call_s"]) / sum(plain["call_s"])
        return metrics


def summarize(
    setup_s: float, rounds: list[list[tuple[float, float, float]]], tally: Tally
) -> dict[str, float]:
    """End-to-end metrics of an untraced run.

    Each round lists (seconds, reference seconds, peak resident MB) of its
    command calls, in the same order in every round.  A call's time in
    reference loops is its seconds over its reference seconds, so a spell
    in which the whole machine runs slower scales both alike.
    Each call's time is its median time in reference loops over the
    rounds.  ``wall_ref`` is the sum of the calls' times, and
    ``call_p50_ref`` their median.  ``peak_rss_mb`` is the median over the
    rounds of the largest peak of a round's calls.  On the check workloads a
    round is one call, so ``wall_ref`` and ``call_p50_ref`` are both that
    call's time.
    """
    call_ref = [statistics.median(s / ref for s, ref, _ in call) for call in zip(*rounds)]
    return {
        "wall_ref": sum(call_ref),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(mb for _, _, mb in r) for r in rounds),
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "call_p50_ref": statistics.median(call_ref),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "viewflux" / "__init__.py").is_file():
        sys.stderr.write(f"error: no viewflux sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    runner = Runner(args.workload, args.seed)
    # On SIGTERM, unwind: subprocess.run then kills and waits for the
    # running worker, and ``close`` removes the run's files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        values = runner.trace() if args.trace else runner.measure(args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        runner.close()
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        sys.stderr.write(
            "error: measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(names) - set(values))}, "
            f"extra {sorted(set(values) - set(names))}\n"
        )
        return 1
    tally = runner.tally
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
