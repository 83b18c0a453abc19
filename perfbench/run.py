#!/usr/bin/env python3
"""Build and run the rtpool benchmark (see perfbench/README.md).

Run from the root of an rtpool checkout:

  python3 perfbench/run.py --workload sweep|corpus|serve|admission \\
      --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-test

The first form runs one workload in its own process and prints, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}. The
second runs every workload, each in its own process, and prints each
metric by name and unit. The third is the benchmark's self-test.

The library and the benchmark program are built from source with CMake into
$CARGO_TARGET_DIR (default .bench_build) on first use.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sweep", "corpus", "serve", "admission"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_root):
    """Configure (once) and build the benchmark program; return the binary's path."""
    if not os.path.isfile(os.path.join(os.path.dirname(HERE), "src", "util", "rng.h")):
        fail("no rtpool sources next to perfbench/ (run from the root of a checkout)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "rtpool_perfbench"), build_dir


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=HERE,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(binary, build_dir, workload, seed, seconds, trace, size="full",
                 corrupt=None, echo=True):
    """Run one workload in its own process; return its result object."""
    scratch = os.path.join(build_dir, "run")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--size", size, "--scratch", scratch,
           "--commit", commit_id()]
    if trace:
        cmd += ["--spans", os.path.join(scratch, "spans-%s.json" % workload)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("%s: exited with code %d" % (workload, proc.returncode), 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("%s: last line is not a result: %s" % (workload, lines[-1]), 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: malformed result keys %s" % (workload, sorted(result)), 1)
    if echo:
        for line in lines[:-1]:
            print(line)
    return result


def check_metrics(result, expected):
    """Names of `expected` metrics missing from `result` or with another unit."""
    got = result["metrics"]
    return [m["name"] for m in expected
            if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]]


def complete_metrics(result, spec, trace):
    """Order `result`'s metrics as BENCHMARK.json lists them. A traced
    workload reports only the layers that work in it: the others read 0.
    Every end-to-end metric must be there."""
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    missing = check_metrics(result, expected)
    if missing and not trace:
        fail("end-to-end metrics missing or with another unit: %s" % missing, 1)
    got = result["metrics"]
    result["metrics"] = {m["name"]: got.get(m["name"], {"value": 0, "unit": m["unit"]})
                         for m in expected}
    return result


def self_test(binary, build_dir, spec):
    """Tiny runs print every named metric with its unit and fail nothing;
    a corrupted serve reference and a corrupted admission cold verdict each
    raise failed above 0."""
    problems = []
    measured = {}  # per-layer metric name -> unit, over every workload
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_workload(binary, build_dir, workload, 1, 2, trace, size="tiny", echo=False)
            # Every end-to-end metric on every workload; the traced health
            # metrics on every workload, the layer metrics where they work.
            expected = spec["end_to_end"] if trace == 0 else [
                m for m in spec["per_layer"]
                if m["name"] in ("unattributed_share", "trace.overhead_ratio")]
            missing = check_metrics(r, expected)
            if trace:
                measured.update((k, v["unit"]) for k, v in r["metrics"].items())
            ok = not missing and r["failed"] == 0 and r["correct"] and r["attempted"] > 0
            print("self-test %-9s trace=%d: %s" % (workload, trace, "ok" if ok else "FAIL"))
            if not ok:
                problems.append("%s trace=%d missing=%s failed=%d" %
                                (workload, trace, missing, r["failed"]))
    unmeasured = [m["name"] for m in spec["per_layer"] if measured.get(m["name"]) != m["unit"]]
    print("self-test per-layer metrics measured on some workload: %s" %
          ("ok" if not unmeasured else "FAIL"))
    if unmeasured:
        problems.append("per-layer metrics no workload measures: %s" % unmeasured)
    for workload in ("serve", "admission"):
        r = run_workload(binary, build_dir, workload, 1, 2, 0, size="tiny", corrupt=workload,
                         echo=False)
        ok = r["failed"] > 0 and not r["correct"]
        print("self-test %-9s corrupted: %s (failed %d of %d)" %
              (workload, "ok" if ok else "FAIL", r["failed"], r["attempted"]))
        if not ok:
            problems.append("%s: corruption not detected" % workload)
    for p in problems:
        print("self-test problem: " + p, file=sys.stderr)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary, build_dir = build(build_root)
    spec = load_spec()
    if args.self_test:
        sys.exit(self_test(binary, build_dir, spec))

    seed = args.seed if args.seed is not None else 1
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload != "all":
        result = run_workload(binary, build_dir, args.workload, seed, seconds, args.trace)
        print(json.dumps(complete_metrics(result, spec, args.trace)))
        return

    results = {}
    for workload in WORKLOADS:
        started = time.time()
        print("== %s (seed %d, %g s, trace %d)" % (workload, seed, seconds, args.trace))
        results[workload] = complete_metrics(
            run_workload(binary, build_dir, workload, seed, seconds, args.trace), spec,
            args.trace)
        print("== %s done in %.1f s" % (workload, time.time() - started))
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("\n%-32s %-7s" % ("metric", "unit") + "".join("%14s" % w for w in WORKLOADS))
    for m in expected:
        row = "%-32s %-7s" % (m["name"], m["unit"])
        for w in WORKLOADS:
            v = results[w]["metrics"].get(m["name"], {}).get("value")
            row += "%14.6g" % v if v is not None else "%14s" % "-"
        print(row)
    row = "%-32s %-7s" % ("failed_frac", "ratio")
    for w in WORKLOADS:
        row += "%14.6g" % (results[w]["failed"] / max(1, results[w]["attempted"]))
    print(row)
    print(json.dumps(results))
    sys.exit(0 if all(r["correct"] for r in results.values()) else 1)


if __name__ == "__main__":
    main()
