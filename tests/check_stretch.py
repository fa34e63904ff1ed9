"""Compare the five-constant stretch report with its golden file.

    PYTHONPATH=src python tests/check_stretch.py

runs ``viewflux check all --domain a,b,c,d,e --max-relations 1`` (120,658,560
checks, about two minutes on one core) and compares its report, byte for
byte, with ``tests/golden/check-all-abcde.txt``.  It prints ``PASS`` and the
run's time and exits 0 when they match; otherwise it prints a diff and exits 1.
At that cost it is not part of the pytest run.
"""

import difflib
import subprocess
import sys
import time
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "check-all-abcde.txt"
ARGS = ["check", "all", "--domain", "a,b,c,d,e", "--max-relations", "1"]


def main() -> int:
    started = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "viewflux", *ARGS], capture_output=True, text=True
    )
    elapsed = time.perf_counter() - started
    expected = GOLDEN.read_text()
    if run.returncode == 0 and run.stdout == expected:
        print(f"PASS viewflux {' '.join(ARGS)} matches {GOLDEN.name} ({elapsed:.1f}s)")
        return 0
    print(f"FAIL viewflux {' '.join(ARGS)} exited {run.returncode} ({elapsed:.1f}s)")
    sys.stdout.writelines(
        difflib.unified_diff(
            expected.splitlines(keepends=True), run.stdout.splitlines(keepends=True),
            str(GOLDEN), "report",
        )
    )
    sys.stderr.write(run.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
