#!/usr/bin/env python3
"""A/A steadiness check: two interleaved sets of runs of the same build.

    python3 perfbench/aa.py [--workloads tune-lr-sp,hc-gbdt-race]
                            [--seeds 10] [--seconds S] [--out FILE]

Run from the root of a source checkout. For each workload and each seed
1..N it runs untraced perfbench/run.py once per set, A and B, alternating
which set goes first, so slow host phases hit both sets alike. For every
metric it prints each set's median and quartiles, the spread
(Q3 - Q1) / median of each set, and the gap between the two medians as a
share of A's, over the metric's bound from BENCHMARK.json. A gap/bound
above 1 means two runs of identical code would already be told apart as a
regression; "spread>bound/3" marks a metric less steady than the benchmark
aims for.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return bounds, [w["name"] for w in spec["workloads"]], spec["run_seconds"]


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  note: {workload} seed {seed} reported correct=false "
              f"({result['failed']} of {result['attempted']} ops failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    bounds, listed, run_seconds = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(listed))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--out", help="also write every run's metrics here (JSON)")
    args = parser.parse_args()

    workloads = [w for w in args.workloads.split(",") if w]
    if not workloads:
        raise SystemExit("no workloads: pass --workloads")
    runs = {}  # workload -> [set A runs, set B runs], each a list of metric dicts
    for workload in workloads:
        sets = runs.setdefault(workload, [[], []])
        for seed in range(1, args.seeds + 1):
            for s in ((0, 1) if seed % 2 == 1 else (1, 0)):
                sets[s].append(run_once(workload, seed, args.seconds))
            print(f"{workload}: seed {seed} done", flush=True)

    worst = 0.0
    for workload, sets in runs.items():
        print(f"\n{workload}")
        print(f"  {'metric':<32}{'set':>4}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'gap/bound':>11}")
        for name in sets[0][0]:
            bound = bounds.get(name)
            medians = []
            for s, runs_of_set in enumerate(sets):
                median, q1, q3, spread = summarize([r[name] for r in runs_of_set])
                medians.append(median)
                gap = ""
                if s == 1 and bound and medians[0]:
                    ratio = abs(medians[1] - medians[0]) / abs(medians[0]) / bound
                    worst = max(worst, ratio)
                    gap = f"{ratio:.2f}"
                flag = " spread>bound/3" if bound and spread > bound / 3 else ""
                print(f"  {name:<32}{'AB'[s]:>4}{median:>14.6g}{q1:>14.6g}"
                      f"{q3:>14.6g}{spread:>9.3f}{gap:>11}{flag}")
    print(f"\nlargest gap/bound: {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))


if __name__ == "__main__":
    main()
