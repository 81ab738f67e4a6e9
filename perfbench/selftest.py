#!/usr/bin/env python3
"""Self-test of the crawl benchmark. Run from the repository root:

    python3 perfbench/selftest.py

1. BENCHMARK.json is well-formed, and perfbench/metric_map.json maps every
   per-layer metric to end-to-end metrics and workloads that exist.
2. Smoke: every workload runs briefly with --trace 0 and --trace 1; each
   run exits 0, its last line has exactly the result keys, and every metric
   BENCHMARK.json names for that mode is emitted, finite, with its unit.
3. Without the source tree (only BENCHMARK.json and perfbench/), the
   command exits non-zero and prints no result.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SECONDS = "1"


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def check_spec(spec, metric_map):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"},
              "end_to_end keys of " + metric["name"])
        check(0 < metric["bound"] <= 0.25, "bound of " + metric["name"])
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"},
              "per_layer keys of " + metric["name"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(len(set(all_names)) == len(all_names), "names are used once")
    for name in all_names:
        check(NAME.match(name), "name %r" % name)
    for metric in metrics:
        check(UNIT.match(metric["unit"]), "unit of " + metric["name"])
        check(metric["better"] in ("lower", "higher"),
              "better of " + metric["name"])
    check({"name": "setup_s", "unit": "s", "better": "lower",
           "bound": max(m["bound"] for m in spec["end_to_end"])}
          in spec["end_to_end"], "setup_s has the largest bound")

    e2e = {m["name"] for m in spec["end_to_end"]}
    mapped = metric_map["per_layer"]
    check(set(mapped) == {m["name"] for m in spec["per_layer"]},
          "metric_map.json covers exactly the per-layer metrics")
    for name, entry in mapped.items():
        check(all(m in e2e or m == "check" for m in entry["moves"]),
              name + " moves only end-to-end metrics")
        check(all(w in names for w in entry["on"]),
              name + " names only benchmark workloads")


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2012", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def smoke(spec):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = "%s --trace %d" % (workload, trace)
            done = run(ROOT, workload, trace)
            check(done.returncode == 0, label + " exits 0:\n" + done.stdout)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  label + " result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, label + " is correct")
            for metric in wanted:
                got = result["metrics"].get(metric["name"])
                check(got is not None, label + " emits " + metric["name"])
                check(isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      label + " finite " + metric["name"])
                check(got["unit"] == metric["unit"],
                      label + " unit of " + metric["name"])
            check(len(result["metrics"]) == len(wanted),
                  label + " emits only its mode's metrics")
            print("ok  " + label)


def bare_checkout(spec):
    """The command must fail cleanly without the program's sources."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path))
        done = run(bare, spec["workloads"][0]["name"], 0)
        check(done.returncode != 0, "bare checkout exits non-zero")
        check('"metrics"' not in done.stdout, "bare checkout prints no result")
        print("ok  bare checkout fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        metric_map = json.load(f)
    check_spec(spec, metric_map)
    print("ok  BENCHMARK.json and metric_map.json")
    smoke(spec)
    bare_checkout(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
