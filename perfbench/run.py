#!/usr/bin/env python3
"""Build and run the factorhd end-to-end benchmark.

    python3 perfbench/run.py --workload paper_open --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark program fhbench (perfbench/src) in Release mode under
.bench_build (or $CARGO_TARGET_DIR when set); later runs rebuild
incrementally. fhbench runs with every FACTORHD_* variable removed from
its environment, so the stack serves at its defaults. Its last stdout line,
one JSON object with the keys correct / attempted / failed / metrics, is
checked against the metric names BENCHMARK.json declares and printed last.
With --trace 1 the spans of the traced run are written to
<build>/traces/<workload>-seed<seed>.json (Chrome trace-event JSON).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds fhbench; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "fhbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"build step exited {done.returncode}: {' '.join(cmd)}")
            return None
    exe = os.path.join(build_dir, "fhbench")
    return exe if os.path.exists(exe) else None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("no factorhd sources next to perfbench/")
        return 1
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    exe = build(build_dir)
    if exe is None:
        return 1

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FACTORHD_")}
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"fhbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"fhbench exited {done.returncode} without a result")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys are not correct/attempted/failed/metrics")
        return 1
    want = declared_metrics(args.trace)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
            f"declared {sorted(want.items())}")
        return 1
    print(lines[-1])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
