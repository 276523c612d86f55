#!/usr/bin/env python3
"""Steadiness and A/B runner for the end-to-end benchmark.

Runs every workload on every seed once per side, alternating which side runs
first, and prints for each side the median and quartiles of every end-to-end
metric, the share of pairs each side won, and every metric whose spread or
whose difference between the sides is beyond its bound in BENCHMARK.json.

    # one build twice: do two sets of runs of the same code agree?
    python3 perfbench/ab.py --seeds 1-10 --seconds 10
    # two builds: the parent checkout against this one
    python3 perfbench/ab.py --a ../parent --b . --seeds 1-10

Each side is a directory holding BENCHMARK.json and perfbench/ (a checkout
root). The deterministic counters (k-Shape iterations, reseeds, assignment
pair counts, shard loads) must repeat exactly across all runs of one code and
seed; a difference reveals nondeterminism and fails the runner. The exit code
is non-zero on any failed run, on a counter mismatch, on any metric (setup_s
included) whose spread across seeds exceeds its bound, or, when both sides
are the same code, on any metric whose two sets disagree beyond its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root, workload, seed, seconds):
    """One run; returns a dict with result, counters and env, or None."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    record = {"code": done.returncode, "counters": None, "env": None,
              "result": None}
    for line in lines:
        if line.startswith("COUNTERS "):
            record["counters"] = line[len("COUNTERS "):]
        elif line.startswith("ENV "):
            record["env"] = json.loads(line[len("ENV "):])
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        pass
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    return record


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", default=str(ROOT), help="side A checkout root")
    parser.add_argument("--b", help="side B checkout root (default: side A)")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)

    side_root = {"A": Path(args.a).resolve(),
                 "B": Path(args.b or args.a).resolve()}
    same_code = side_root["A"] == side_root["B"]
    spec = json.loads((side_root["A"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)

    records = []
    problems = []
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for side in ("AB" if i % 2 == 0 else "BA"):
                rec = run_once(side_root[side], workload, seed, seconds)
                rec.update(side=side, workload=workload, seed=seed)
                records.append(rec)
                res = rec["result"] or {}
                env = rec["env"] or {}
                values = " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.5g}"
                    for m in metrics if m["name"] in res.get("metrics", {}))
                print(f"{workload} seed {seed} side {side} "
                      f"code {rec['code']} correct {res.get('correct')} "
                      f"failed {res.get('failed')}/{res.get('attempted')} "
                      f"calib_ms {env.get('calib_ms')} "
                      f"load {env.get('loadavg')} {values}", flush=True)
                if rec["code"] != 0 or not res.get("correct"):
                    problems.append(f"{workload} seed {seed} side {side}: "
                                    "run failed")

    # Deterministic counters repeat exactly per code and seed.
    groups = {}
    for rec in records:
        code = "A" if same_code else rec["side"]
        groups.setdefault((code, rec["workload"], rec["seed"]), set()).add(
            rec["counters"])
    for (code, workload, seed), values in sorted(groups.items()):
        if len(values) != 1:
            problems.append(f"{workload} seed {seed} code {code}: counters "
                            f"differ across runs: {sorted(map(str, values))}")

    for workload in workloads:
        print(f"\n== {workload} ({len(seeds)} seeds, {seconds} s per run)")
        print(f"{'metric':22s} {'side':4s} {'q1':>12s} {'median':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'won':>5s}")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            per_side = {}
            for side in "AB":
                per_side[side] = {
                    r["seed"]: r["result"]["metrics"][name]["value"]
                    for r in records
                    if r["workload"] == workload and r["side"] == side
                    and r["result"] and name in r["result"]["metrics"]}
            paired = [s for s in seeds
                      if s in per_side["A"] and s in per_side["B"]]
            wins = {"A": 0, "B": 0}
            for s in paired:
                a, b = per_side["A"][s], per_side["B"][s]
                if a != b:
                    wins["A" if (a < b) == lower else "B"] += 1
            med = {}
            for side in "AB":
                values = list(per_side[side].values())
                if not values:
                    continue
                q1, med[side], q3 = quartiles(values)
                spread = (q3 - q1) / med[side] if med[side] else float("inf")
                share = wins[side] / len(paired) if paired else 0.0
                flag = ""
                if spread > bound:
                    flag = " SPREAD>BOUND"
                    problems.append(f"{workload} {name} side {side}: spread "
                                    f"{spread:.3f} > bound {bound}")
                elif spread > bound / 3:
                    flag = " spread>bound/3"
                print(f"{name:22s} {side:4s} {q1:12.5g} {med[side]:12.5g} "
                      f"{q3:12.5g} {spread:7.3f} {share:5.2f}{flag}")
            if "A" in med and "B" in med and med["A"]:
                change = med["B"] / med["A"] - 1.0
                worse = change > bound if lower else -change > bound
                label = "same code" if same_code else "B vs A"
                verdict = ""
                if same_code and abs(change) > bound:
                    verdict = "  DISAGREE beyond bound"
                    problems.append(f"{workload} {name}: the two sets differ "
                                    f"by {change:+.3f} (bound {bound})")
                elif not same_code and worse:
                    verdict = "  B WORSE beyond bound"
                print(f"{'':22s} {label}: median change {change:+.4f} "
                      f"(bound {bound}){verdict}")

    print()
    for p in problems:
        print(f"PROBLEM {p}")
    print("OK" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
