"""Rewrite the golden outputs the benchmark checks against.

    python3 bench/make_golden.py

Run it only when a change to viewflux is meant to change the ``check``
reports or the closures; the benchmark's correctness checks compare every
run with these files.  ``golden/<check workload>.txt`` is the report of the
workload's ``check`` command.  ``golden/closure-k2.json`` lists, per pool
entry, the digest of the closure of the entry as printed by the ``closure``
command.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from verify import digest, parse_relations  # noqa: E402
from workloads import CHECK_ARGS, CLOSURE, closure_args, pool, render  # noqa: E402


def _cli(argv: list[str]) -> str:
    from viewflux import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise SystemExit(f"viewflux {' '.join(argv)} exited {status}")
    return out.getvalue()


def main() -> None:
    golden = BENCH / "golden"
    golden.mkdir(exist_ok=True)
    for workload, argv in CHECK_ARGS.items():
        (golden / f"{workload}.txt").write_text(_cli(argv))
    digests = []
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        for n, relations in enumerate(pool()):
            path = Path(tmp) / f"p{n}.db"
            path.write_text(render(relations, random.Random(0)))
            digests.append(digest(parse_relations(_cli(closure_args(str(path))))))
    (golden / f"{CLOSURE}.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
