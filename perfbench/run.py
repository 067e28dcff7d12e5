#!/usr/bin/env python3
"""End-to-end benchmark of the OmniFair library (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One run:
  1. builds the library and the two benchmark programs from source into
     .bench_build/perfbench (incremental after the first run);
  2. runs perfbench_gen, a process of its own, to turn the seed into the
     workload's input files;
  3. runs perfbench, the measured process, with the environment pinned;
  4. prints a detail line (inputs with sizes and digests, environment,
     sample counts) and, as the last line, the result object
     {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

WORKLOADS = ("tune-lr-sp", "hc-gbdt-race", "stream-lr-sp", "serve-gbdt")

# Metric names and units come from BENCHMARK.json. serve-gbdt is not gated
# there (see README.md); these are the metrics only it reports.
SERVE_END_TO_END = {"op_p99_ms": "ms", "rows_per_s": "rows/s"}
SERVE_PER_LAYER = {
    "ml.bundle.open_us": "us", "ml.flat_predict_us": "us",
    "serve.encode_us": "us", "serve.handle_us": "us", "serve.audit_us": "us",
    "serve.server_init_us": "us", "serve.mismatch_rows": "rows",
}

# The pinned environment of both processes: a pool narrower than the VM and
# the user-default telemetry, with every trace/export/SIMD override cleared.
PINNED_ENV = {"OMNIFAIR_THREADS": "2", "OMNIFAIR_TELEMETRY": "counters"}
CLEARED_ENV = ("OMNIFAIR_TRACE_FILE", "OMNIFAIR_METRICS_OUT",
               "OMNIFAIR_METRICS_INTERVAL_MS", "OMNIFAIR_SIMD")

RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def pinned_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env.update(PINNED_ENV)
    return env


def build(build_dir):
    """Configures once, then builds the two programs (a no-op when current)."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench", "perfbench_gen"],
                   check=True, stdout=sys.stderr, timeout=850)


def describe_inputs(input_dir):
    described = {}
    for path in sorted(input_dir.iterdir()):
        digest = hashlib.sha256()
        with path.open("rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
        described[path.name] = {"bytes": path.stat().st_size,
                                "sha256": digest.hexdigest()}
    return described


def load_metrics():
    """(end-to-end, per-layer) metric units by name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def count_records(csv_path):
    """Data rows of a generated CSV (one record per line after the header)."""
    with csv_path.open("rb") as f:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")) - 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no OmniFair source tree at {ROOT}; run from a source checkout")
    end_to_end, per_layer = load_metrics()

    started = time.monotonic()
    build_dir = ROOT / ".bench_build" / "perfbench"
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    input_dir = ROOT / ".bench_build" / "perfbench-inputs" / args.workload
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    env = pinned_env()
    try:
        subprocess.run([str(build_dir / "perfbench_gen"), "--workload", args.workload,
                        "--seed", str(args.seed), "--out", str(input_dir)],
                       check=True, env=env, stdout=sys.stderr, timeout=120)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"input generation failed: {e}")
    inputs = describe_inputs(input_dir)
    # The stream check: ingest must keep every record of its CSV.
    csv_rows = (count_records(input_dir / "adult-0.csv")
                if args.workload == "stream-lr-sp" else None)

    # Seconds left of this run's limit once set-up of the run is done.
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(
            [str(build_dir / "perfbench"), "--workload", args.workload,
             "--inputs", str(input_dir), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]
            + (["--csv-rows", str(csv_rows)] if csv_rows is not None else []),
            env=env, capture_output=True, text=True, timeout=max(1.0, budget))
    except subprocess.TimeoutExpired:
        fail("measured process timed out")
    finally:
        shutil.rmtree(input_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"measured process exited with {proc.returncode}")
    run = json.loads(lines[-1])

    measured = run["metrics"]
    serve = args.workload == "serve-gbdt"
    if args.trace:
        # A layer the workload does not reach reads 0.
        units = {**per_layer, **(SERVE_PER_LAYER if serve else {})}
        values = {n: measured.get(n, 0.0) for n in units}
    else:
        # serve-gbdt scores no model quality, so it lacks the tuning
        # workloads' accuracy and gap; every other metric must be there.
        units = {n: u for n, u in end_to_end.items() if not serve or n in measured}
        units.update(SERVE_END_TO_END if serve else {})
        values = {n: measured.get(n) for n in units}
    # perfbench writes a non-finite figure as null.
    missing = [n for n, v in values.items() if v is None or not math.isfinite(v)]
    correct = (run["failed"] == 0 and not run["probe_error"] and not missing)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inputs, "csv_rows": csv_rows, "env": run["env"],
        "pinned_env": PINNED_ENV, "setups": run["setups"],
        "first_error": run["first_error"], "probe_error": run["probe_error"],
        "missing_metrics": missing,
        "op_seconds": run.get("op_seconds"),
        "setup_seconds": run.get("setup_seconds"),
        "all_metrics": measured,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": 0.0 if n in missing else v, "unit": units[n]}
                    for n, v in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
