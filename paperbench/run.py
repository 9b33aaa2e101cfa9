#!/usr/bin/env python3
"""Build paperbench from source and run one workload.

    python3 paperbench/run.py --workload sram_paper --seed 7 --seconds 40 --trace 0

Run from the root of a checkout. The first call configures and builds the
library and the benchmark binary into .bench_build/paperbench (later calls only
check that the build is current). --trace 0 runs with tracing off
(RSM_OBS_LEVEL=0) and prints the end-to-end metrics; --trace 1 runs with
spans on (RSM_OBS_LEVEL=1), exports a Chrome trace with RSM_TRACE_EXPORT
and prints the per-layer metrics. The last stdout line is the JSON result.
The exit code is non-zero when the build, a correctness check or the
result's shape fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "paperbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"paperbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(command, timeout):
    """Runs a build step with its output on stderr; fails on error."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(command)}")


def build():
    binary = os.path.join(BUILD_DIR, "paperbench")
    if not os.path.exists(binary):
        run_logged(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "paperbench",
                "-j", "4"], BUILD_TIMEOUT_S)
    return binary


def expected_metrics(spec, trace):
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not a JSON result")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail(f"result keys are not {sorted(RESULT_KEYS)}")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    want = expected_metrics(spec, trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")
        if entry.get("unit") != want[name]:
            fail(f"metric {name} has unit {entry.get('unit')}, "
                 f"BENCHMARK.json says {want[name]}")
    return result


def check_trace(path):
    try:
        with open(path, encoding="utf-8") as f:
            document = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"Chrome trace {path} unreadable: {e}")
    names = {e.get("name") for e in document.get("traceEvents", [])}
    if "bench.build_model" not in names:
        fail(f"Chrome trace {path} has no bench.build_model span")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    trace = args.trace == "1"

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    binary = build()
    env = dict(os.environ)
    env["RSM_OBS_LEVEL"] = "1" if trace else "0"
    env.pop("RSM_TRACE_EXPORT", None)
    trace_path = None
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "paperbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_path = os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")
        env["RSM_TRACE_EXPORT"] = trace_path
    # Relative, so the server's AF_UNIX socket path stays short.
    workdir = os.path.join(".bench_build", "paperbench-work", args.workload)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if done.returncode != 0:
        print(lines[-1])
        fail(f"{args.workload} exited with {done.returncode}")
    result = check_result(lines[-1], spec, trace)
    if trace_path is not None:
        check_trace(trace_path)
        print(f"chrome trace: {os.path.relpath(trace_path, ROOT)}")
    print(lines[-1])
    sys.stdout.flush()
    if not result["correct"]:
        fail("a correctness check failed")


if __name__ == "__main__":
    main()
