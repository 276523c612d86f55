#!/usr/bin/env python3
"""End-to-end benchmark of k-Shape fit, serving and out-of-core fit.

Run from the repository root:

    python3 perfbench/run.py --workload fit_extract_m512 --seed 1 \
        --seconds 10 --trace 0

Builds the library and the benchmark programs from source (CMake, into
.bench_build/perfbench), writes the workload's inputs for the seed, runs the
workload in its own process and relays its report. The last line of standard
output is the result JSON; the exit code is non-zero when the build fails,
the run fails or any correctness check fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("fit_extract_m512", "fit_assign_k32", "serve_online_m256",
             "sharded_exact_m128")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def child_env():
    # The library's process-wide KSHAPE_* switches would change the code
    # paths under test; the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("KSHAPE_")}


def build():
    """Configures and builds the benchmark; returns the binary dir or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {ROOT / 'src'}")
        return None
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    targets = ["--target", "perfbench_gen", "perfbench_run",
               "perfbench_checks_test"]
    for cmd in (configure,
                ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS]
                + targets):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env())
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return None
    return BUILD_DIR


def run(cmd, timeout):
    """Runs cmd to completion (killing it on timeout); returns (code, out)."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, env=child_env()) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"timed out after {timeout} s: {' '.join(cmd)}")
            return 1, ""
    return proc.returncode, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("label", "centroid", "kmodel"),
                        help="feed a known-bad output to one check (testing)")
    args = parser.parse_args(argv)

    bin_dir = build()
    if bin_dir is None:
        return 1

    run_dir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs, work = run_dir / "inputs", run_dir / "work"
    shutil.rmtree(run_dir, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        code, out = run([str(bin_dir / "perfbench_gen"),
                         "--workload", args.workload,
                         "--seed", str(args.seed), "--out", str(inputs)],
                        RUN_TIMEOUT_S)
        if code != 0:
            log("input generation failed")
            return 1
        cmd = [str(bin_dir / "perfbench_run"), "--workload", args.workload,
               "--inputs", str(inputs), "--work", str(work),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.inject:
            cmd += ["--inject", args.inject]
        code, out = run(cmd, RUN_TIMEOUT_S)
        lines = out.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if result is None:
            sys.stdout.write(out)
            log("the workload printed no result")
            return 1
        if args.trace and (work / "trace.json").exists():
            traces = OUT_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            kept = traces / f"{args.workload}-{args.seed}.json"
            shutil.copyfile(work / "trace.json", kept)
            out = out.replace(str(work / "trace.json"),
                              str(kept.relative_to(ROOT)))
        sys.stdout.write(out)
        sys.stdout.flush()
        return 0 if code == 0 and result.get("correct") is True else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
