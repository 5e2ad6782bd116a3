#!/usr/bin/env python3
"""perfbench entry point: build the driver, run one workload, print one result.

Usage (from the repository root):

    python3 perfbench/run.py --workload flat-4k --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench on
first use, then runs the workload in its own driver process.  With
--trace 0 it also repeats the workload's set-up in fresh processes and
reports the median set-up time.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, where metrics
are the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1), each as {"value", "unit"}.  Exit status is 0 only
when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORK_DIR = os.path.join(BUILD_DIR, "work")

DEFAULT_SEED = 1
# Set-up runs per timed run, the timed run included.  Half run before the
# timed run and half after it, so the median spans the whole run.
SETUP_REPEATS = 15
DRIVER_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the driver; build output goes to a log."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    configured = os.path.exists(cache)
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                   "-j", jobs]
    with open(log_path, "w") as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log,
                                  stderr=subprocess.STDOUT).returncode == 0
        ok = (configured or step(configure)) and step(compile_cmd)
    if not ok:
        if not configured and os.path.exists(cache):
            os.remove(cache)  # configure again next time
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log_path)


def run_driver(args):
    """Run the driver once; returns its parsed result line."""
    cmd = [DRIVER] + args + ["--work-dir=" + WORK_DIR,
                             "--t0-ns=%d" % time.monotonic_ns()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("driver failed (exit %d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    os.chdir(ROOT)
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    # The driver takes an unsigned 64-bit seed.
    common = ["--workload=" + args.workload,
              "--seed=%d" % (args.seed % (1 << 64))]

    def set_up(n):
        return [run_driver(common + ["--setup-only"]) for _ in range(n)]

    extra = 0 if args.trace else SETUP_REPEATS - 1
    setups = set_up(extra // 2)
    result = run_driver(common + ["--seconds=%d" % args.seconds,
                                  "--trace=%d" % args.trace])
    setups += set_up(extra - extra // 2)

    metrics = dict(result["metrics"])
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            [s["setup_s"] for s in setups] + [result["setup_s"]])
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if missing or extra:
        fail("metric set differs from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))

    correct = result["correct"] and all(s["correct"] for s in setups)
    errors = result["errors"] + [e for s in setups for e in s["errors"]]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "diagnostics": result["diagnostics"], "errors": errors}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
