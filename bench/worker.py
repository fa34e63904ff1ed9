"""One cold pass of a workload, in a fresh interpreter.

Run by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object as
the last line of its standard output.

    python3 bench/worker.py setup WORKLOAD [FILE ...]
    python3 bench/worker.py pass WORKLOAD [--trace] [FILE ...]

``setup`` times importing ``viewflux`` plus building the suite context (the
check workloads) or loading the instance files (``closure-k2``).  ``pass``
runs the workload's command calls through ``viewflux.cli.main`` with standard
output captured, and reports the outputs, exit status and wall time of each
call, the peak resident memory, and with ``--trace`` the per-layer metrics.
Without ``--trace`` it also reports, for each call, the time of a fixed
reference loop's timings before, during and after the call (see ``_call``).
"""

from __future__ import annotations

import contextlib
import io
import json
import signal
import sys
from time import perf_counter

from tracer import Tracer
from workloads import CHECK_ARGS, CHECK_CONTEXT, CLOSURE, closure_args


def setup(workload: str, files: list[str]) -> dict:
    start = perf_counter()
    from viewflux import formats, suites
    from viewflux.core import UniverseConfig

    if workload == CLOSURE:
        for path in files:
            formats.load_instance(path)
    else:
        domain, k_max, max_relations = CHECK_CONTEXT[workload]
        suites.SuiteContext(UniverseConfig(domain=frozenset(domain), k_max=k_max), max_relations)
    return {"setup_s": perf_counter() - start}


#: Iterations of the reference loop: about 0.05 s on the reference machine.
REFERENCE_ITERATIONS = 500_000
#: Seconds between two timings of the reference loop during a command call.
SAMPLE_INTERVAL_S = 1.0
#: Timings of the reference loop just before and just after each call, so
#: that a call shorter than the interval has some too.
SAMPLES_AROUND = 4


def reference_loop() -> int:
    """Fixed pure-Python work whose time measures the machine's current speed."""
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


def _time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def _call(cli, argv: list[str], sample: bool) -> tuple[int, str, float, list[float]]:
    """Run one command call: (status, output, seconds, reference timings).

    With ``sample``, the reference loop is timed ``SAMPLES_AROUND`` times
    just before the call and just after it, and, from a ``SIGALRM``
    handler, every ``SAMPLE_INTERVAL_S`` seconds during it.  The handler's
    own time is taken out of the call's seconds.
    """
    out = io.StringIO()
    refs = [_time_reference() for _ in range(SAMPLES_AROUND)] if sample else []
    before = len(refs)
    if sample:
        signal.signal(signal.SIGALRM, lambda *_: refs.append(_time_reference()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
    finally:
        # Stop the timer before reading the clock, so that every in-call
        # timing lies inside the measured interval.
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - start - sum(refs[before:])
    if sample:
        refs.extend(_time_reference() for _ in range(SAMPLES_AROUND))
    return status, out.getvalue(), seconds, refs


def _peak_rss_mb() -> float:
    """Peak resident memory of this process: the kernel's high-water mark.

    Not ``ru_maxrss``: Linux carries it over ``execve`` from the process that
    spawned the worker, so it would report the runner's peak when that is
    larger.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("/proc/self/status has no VmHWM line")


def run_pass(workload: str, trace: bool, files: list[str]) -> dict:
    import viewflux
    from viewflux import cli

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(viewflux)
    argvs = [closure_args(path) for path in files] if workload == CLOSURE else [CHECK_ARGS[workload]]
    calls = [_call(cli, argv, sample=not trace) for argv in argvs]
    result = {
        "statuses": [status for status, _, _, _ in calls],
        "outputs": [output for _, output, _, _ in calls],
        "call_s": [seconds for _, _, seconds, _ in calls],
        "ref_s": [ref for _, _, _, ref in calls],
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer:
        result["metrics"] = tracer.metrics()
    return result


def main(argv: list[str]) -> int:
    mode, workload, *rest = argv
    if mode == "setup":
        result = setup(workload, rest)
    else:
        trace = "--trace" in rest
        result = run_pass(workload, trace, [a for a in rest if a != "--trace"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
