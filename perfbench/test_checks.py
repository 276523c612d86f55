#!/usr/bin/env python3
"""Tests of the benchmark's correctness checks.

1. Builds the benchmark and runs perfbench_checks_test, which feeds each
   check a known-bad output (a perturbed label, a centroid that is not
   bit-identical, a corrupted .kmodel passed through TryPredict, counters
   that do not repeat, shard traffic that skips a read or overruns the
   residency budget) and asserts that it fails and raises the error rate.
2. Runs the benchmark command with each known-bad output injected and
   asserts that the command fails: non-zero exit, "correct": false and at
   least one failed operation. A clean run of the same workload must pass.

    python3 perfbench/test_checks.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run as bench  # noqa: E402

WORKLOAD = "fit_assign_k32"
SECONDS = "1"


def run_command(extra):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", WORKLOAD,
           "--seed", "5", "--seconds", SECONDS, "--trace", "0"] + extra
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return done.returncode, result


def main():
    failures = 0
    bin_dir = bench.build()
    if bin_dir is None:
        print("FAIL build")
        return 1
    unit = subprocess.run([str(bin_dir / "perfbench_checks_test"),
                           str(bench.OUT_DIR / "checks_test")])
    if unit.returncode != 0:
        print("FAIL perfbench_checks_test")
        failures += 1

    code, result = run_command([])
    ok = code == 0 and result.get("correct") is True and \
        result.get("failed") == 0
    print(f"{'ok  ' if ok else 'FAIL'} clean run passes "
          f"(exit {code}, failed {result.get('failed')})")
    failures += not ok
    for kind in ("label", "centroid", "kmodel"):
        code, result = run_command(["--inject", kind])
        ok = code != 0 and result.get("correct") is False and \
            result.get("failed", 0) >= 1
        print(f"{'ok  ' if ok else 'FAIL'} injected bad {kind} fails the "
              f"command (exit {code}, failed {result.get('failed')}/"
              f"{result.get('attempted')})")
        failures += not ok
    print("PASSED" if failures == 0 else f"FAILED: {failures}")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
