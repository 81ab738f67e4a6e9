#!/usr/bin/env python3
"""End-to-end crawl benchmark: the one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds perfbench/ (which builds the hdc
libraries from ../src) as a Release CMake project under $CARGO_TARGET_DIR
(default .bench_build), runs complete, verified crawls of one workload for
the given time, prints every metric by name with its unit plus the run's
provenance, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every crawl
extracted the exact generated multiset and billed the pinned query count (at
the default seed 2012) or the same count as every other crawl of the run
(at any other seed), and, with --trace 1, the layer split covers the crawl
wall time to within 5%.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "hdc_perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def child_env(out_dir):
    """The environment for child processes: temporary files (the compiler's
    included) stay inside the checkout."""
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(out_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no hdc source tree beside perfbench/ (need CMakeLists.txt and "
             "src/ at " + ROOT + ")")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", out_dir, "--target", BINARY,
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, env=child_env(out_dir),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, BINARY)


def cpu_jiffies():
    """(steal, total) CPU time of the machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = build_dir()
    binary = build(out_dir)
    workdir = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    steal_before, total_before = cpu_jiffies()
    try:
        done = subprocess.run(command, cwd=ROOT, env=child_env(out_dir),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    steal_after, total_after = cpu_jiffies()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark binary exited %d without a result" % done.returncode,
             1)

    measured = result["metrics"]
    problems = list(result["errors"])
    for metric in wanted:
        got = measured.get(metric["name"])
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]):
            problems.append("metric %s missing or not finite" % metric["name"])
        elif got["unit"] != metric["unit"]:
            problems.append("metric %s has unit %s, expected %s" %
                            (metric["name"], got["unit"], metric["unit"]))
    correct = result["correct"] and not problems

    provenance = {
        "nproc": os.cpu_count(),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "non_release": result["build_type"] != "Release",
        "git_commit": git_commit(),
        # Share of CPU time the hypervisor gave to other guests while the
        # binary ran; timings taken under heavy steal are not comparable.
        "cpu_steal_frac": round((steal_after - steal_before) /
                                max(1, total_after - total_before), 4),
    }
    print("workload %s  seed %d  trace %d" %
          (args.workload, args.seed, args.trace))
    for name, metric in measured.items():
        value = metric["value"]
        print("  %-28s %16s %s" % (name, "null" if value is None else
                                    "%.6f" % value, metric["unit"]))
    for name, value in sorted(result["notes"].items()):
        print("  note %-23s %16.6g" % (name, value))
    if provenance["non_release"]:
        print("WARNING: non-Release build; do not compare these numbers")
    if provenance["cpu_steal_frac"] > 0.02:
        print("WARNING: the hypervisor stole %.1f%% of CPU time during the "
              "run; timings are inflated" %
              (100 * provenance["cpu_steal_frac"]))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for problem in problems:
        print("ERROR: " + problem)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: measured[m["name"]] for m in wanted
                    if m["name"] in measured},
    }))
    sys.exit(0 if correct and done.returncode == 0 else 1)


if __name__ == "__main__":
    main()
