#!/usr/bin/env python3
# Copyright (c) hdc authors. Apache-2.0 license.
"""Negative selftest of the bench regression gate.

A gate is only as good as its failure paths: if check_bench_regression.py
ever started passing vacuously — a group silently dropped from a CSV, a
speedup floor no longer evaluated — every bench regression after that would
sail through CI. This script drives the real gate binary over synthetic
baseline/current directories and asserts each guard actually fires:

  1. an untouched copy of the baseline passes;
  2. a current bench_cache.csv missing the whole `delta` cache group is a
     hard failure (not the new-group warning path);
  3. a delta row billing only 2x fewer queries than full at the 1% rate
     trips the 10x cache floor;
  4. a current run without the gated 1% rate rows cannot evaluate the
     floor and hard-fails instead of skipping it;
  5. a drifted deterministic cell (billed queries) hard-fails within a
     group even when every group is present;
  6. a planner run whose pushdown bills more than the subspace-only crawl
     trips the planner gate;
  7. a pushdown only 2x cheaper than crawl-then-filter trips the 3x
     planner floor;
  8. a planner run missing the pushdown row cannot evaluate the gate and
     hard-fails instead of skipping it;
  9. a bench_index run where bitmap beats scan by >= 16x on the headline
     shape passes the index speedup gate;
 10. a bitmap only 10x faster than scan trips the 16x index floor;
 11. an index run missing the scan row cannot evaluate the gate and
     hard-fails instead of skipping it;
 12. a zero bitmap wall (below timer resolution) cannot evaluate the
     ratio and hard-fails instead of passing vacuously;
 13. each top-k shape floor (all-wildcard 143x, range-wide-random 46x,
     topk-overflow-heavy 29x) passes just above its floor and hard-fails
     just under it;
 14. a zero bitmap wall on a top-k shape (its ~80 us walls sit close to
     the CSV's microsecond resolution) hard-fails as unevaluable.

Exit status: 0 when every expectation holds, 1 otherwise.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

GATE = Path(__file__).resolve().parent / "check_bench_regression.py"

BASELINE_CACHE_CSV = """\
cache,rate,changed,billed queries,cheap revalidations,regions,extracted,wall seconds
full,0,0,1000,0,500,9000,0.020
delta,0,0,0,0,500,9000,0.010
full,0.01,90,1000,0,500,9000,0.020
delta,0.01,90,80,400,500,9000,0.015
"""


BASELINE_PLANNER_CSV = """\
plan,algorithm,selectivity,billed queries,extracted,wall_seconds
filter,hybrid,0.033654,1086,69768,0.059794
pushdown,hybrid,0.033654,95,2348,0.002506
subspace,hybrid,0.033654,104,2348,0.001137
"""


BASELINE_INDEX_CSV = """\
engine,shape,rows,queries,k,tuples,overflows,wall_seconds,qps_wall
scan,cat-1pred,1000000,12,100,1200,12,0.124265,96.6
scan,conjunction-selective,1000000,12,100,1200,12,0.159643,75.2
scan,range-wide-random,1000000,12,100,1200,12,0.293713,40.9
scan,all-wildcard,1000000,12,100,1200,12,0.252579,47.5
scan,topk-overflow-heavy,1000000,12,100,1200,12,0.169397,70.8
bitmap,cat-1pred,1000000,12,100,1200,12,0.002008,5974.9
bitmap,conjunction-selective,1000000,12,100,1200,12,0.004278,2804.9
bitmap,range-wide-random,1000000,12,100,1200,12,0.000090,133333.3
bitmap,all-wildcard,1000000,12,100,1200,12,0.000080,150000.0
bitmap,topk-overflow-heavy,1000000,12,100,1200,12,0.000140,85714.3
"""

# The per-shape floors the gate must enforce on the top-k shapes, and the
# scan walls BASELINE_INDEX_CSV pairs them with.
TOPK_FLOORS = {
    "all-wildcard": (143.0, 0.252579),
    "range-wide-random": (46.0, 0.293713),
    "topk-overflow-heavy": (29.0, 0.169397),
}


def with_bitmap_wall(shape: str, wall: float) -> str:
    """BASELINE_INDEX_CSV with the bitmap wall of `shape` replaced."""
    lines = []
    for line in BASELINE_INDEX_CSV.splitlines():
        cells = line.split(",")
        if cells[:2] == ["bitmap", shape]:
            cells[7] = f"{wall:.6f}"
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def run_gate(baseline: Path, current: Path):
    proc = subprocess.run(
        [sys.executable, str(GATE), "--baseline", str(baseline),
         "--current", str(current)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content)


def expect(label: str, ok: bool, output: str, problems: list) -> None:
    if ok:
        print(f"ok: {label}")
    else:
        problems.append(label)
        print(f"SELFTEST FAIL: {label}\n--- gate output ---\n{output}")


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        baseline = root / "baseline"
        write(baseline / "bench_cache.csv", BASELINE_CACHE_CSV)

        # 1. Clean copy passes.
        current = root / "clean"
        write(current / "bench_cache.csv", BASELINE_CACHE_CSV)
        code, out = run_gate(baseline, current)
        expect("identical run passes", code == 0, out, problems)

        # 2. Dropping the delta group entirely is a hard failure.
        current = root / "no_delta_group"
        write(current / "bench_cache.csv", "\n".join(
            line for line in BASELINE_CACHE_CSV.splitlines()
            if not line.startswith("delta,")) + "\n")
        code, out = run_gate(baseline, current)
        expect("missing cache group hard-fails",
               code == 1 and "missing from the current run" in out, out,
               problems)

        # 3. A delta crawl only 2x cheaper than full trips the 10x floor.
        #    (The baseline is edited identically so the per-cell comparison
        #    stays clean and the floor is what fails.)
        slow = BASELINE_CACHE_CSV.replace(
            "delta,0.01,90,80,", "delta,0.01,90,500,")
        current = root / "below_floor"
        write(current / "bench_cache.csv", slow)
        slow_baseline = root / "below_floor_baseline"
        write(slow_baseline / "bench_cache.csv", slow)
        code, out = run_gate(slow_baseline, current)
        expect("below-floor cache ratio hard-fails",
               code == 1 and "fewer queries than full" in out, out, problems)

        # 4. A run without the gated rate rows must fail, not skip the gate.
        trimmed = "\n".join(
            line for line in BASELINE_CACHE_CSV.splitlines()
            if ",0.01," not in line) + "\n"
        current = root / "no_rate_rows"
        write(current / "bench_cache.csv", trimmed)
        trimmed_baseline = root / "no_rate_rows_baseline"
        write(trimmed_baseline / "bench_cache.csv", trimmed)
        code, out = run_gate(trimmed_baseline, current)
        expect("missing 1% rate rows hard-fail",
               code == 1 and "cannot evaluate the cache gate" in out, out,
               problems)

        # 5. Deterministic-cell drift inside a present group hard-fails.
        current = root / "drift"
        write(current / "bench_cache.csv",
              BASELINE_CACHE_CSV.replace("full,0.01,90,1000,",
                                         "full,0.01,90,999,"))
        code, out = run_gate(baseline, current)
        expect("billed-query drift hard-fails",
               code == 1 and "query-cost drift" in out, out, problems)

        # 6. Pushdown billing more than the subspace-only crawl trips the
        #    planner gate. (Baseline edited identically: the floor, not the
        #    cell comparison, must be what fails.)
        outside = BASELINE_PLANNER_CSV.replace(
            "pushdown,hybrid,0.033654,95,", "pushdown,hybrid,0.033654,120,")
        current = root / "planner_outside_subspace"
        write(current / "bench_planner.csv", outside)
        outside_baseline = root / "planner_outside_subspace_baseline"
        write(outside_baseline / "bench_planner.csv", outside)
        code, out = run_gate(outside_baseline, current)
        expect("pushdown above subspace cost hard-fails",
               code == 1 and "descends outside the satisfying subspace"
               in out, out, problems)

        # 7. A pushdown only ~2x cheaper than filter trips the 3x floor.
        shallow = BASELINE_PLANNER_CSV.replace(
            "pushdown,hybrid,0.033654,95,", "pushdown,hybrid,0.033654,500,"
        ).replace("subspace,hybrid,0.033654,104,",
                  "subspace,hybrid,0.033654,600,")
        current = root / "planner_below_floor"
        write(current / "bench_planner.csv", shallow)
        shallow_baseline = root / "planner_below_floor_baseline"
        write(shallow_baseline / "bench_planner.csv", shallow)
        code, out = run_gate(shallow_baseline, current)
        expect("below-floor planner ratio hard-fails",
               code == 1 and "cheaper than" in out and "crawl-then-filter"
               in out, out, problems)

        # 8. Dropping the pushdown row entirely must fail the gate, not
        #    skip it. (The missing-group check also fires when the
        #    baseline has the group; trim both to isolate the gate check.)
        trimmed_planner = "\n".join(
            line for line in BASELINE_PLANNER_CSV.splitlines()
            if not line.startswith("pushdown,")) + "\n"
        current = root / "planner_no_pushdown"
        write(current / "bench_planner.csv", trimmed_planner)
        trimmed_planner_baseline = root / "planner_no_pushdown_baseline"
        write(trimmed_planner_baseline / "bench_planner.csv",
              trimmed_planner)
        code, out = run_gate(trimmed_planner_baseline, current)
        expect("missing pushdown row hard-fails",
               code == 1 and "cannot evaluate the planner gate" in out, out,
               problems)

        # 9. Bitmap ~37x faster than scan on the headline shape passes.
        index_baseline = root / "index_baseline"
        write(index_baseline / "bench_index.csv", BASELINE_INDEX_CSV)
        current = root / "index_clean"
        write(current / "bench_index.csv", BASELINE_INDEX_CSV)
        code, out = run_gate(index_baseline, current)
        expect("index speedup above floor passes", code == 0, out, problems)

        # 10. A bitmap only 10x faster than scan trips the 16x floor. Wall
        #     drift alone only warns, so the floor is what fails.
        current = root / "index_below_floor"
        write(current / "bench_index.csv", BASELINE_INDEX_CSV.replace(
            "bitmap,conjunction-selective,1000000,12,100,1200,12,0.004278,",
            "bitmap,conjunction-selective,1000000,12,100,1200,12,0.015964,"))
        code, out = run_gate(index_baseline, current)
        expect("below-floor index ratio hard-fails",
               code == 1 and "faster than scan" in out, out, problems)

        # 11. Dropping the scan row of the headline shape must fail the
        #     gate, not skip it. (Trim both sides to isolate the gate from
        #     the row-count check.)
        trimmed_index = "\n".join(
            line for line in BASELINE_INDEX_CSV.splitlines()
            if not line.startswith("scan,conjunction-selective,")) + "\n"
        current = root / "index_no_scan"
        write(current / "bench_index.csv", trimmed_index)
        trimmed_index_baseline = root / "index_no_scan_baseline"
        write(trimmed_index_baseline / "bench_index.csv", trimmed_index)
        code, out = run_gate(trimmed_index_baseline, current)
        expect("missing scan row hard-fails",
               code == 1 and "cannot evaluate the speedup gate" in out, out,
               problems)

        # 12. A zero bitmap wall makes the ratio unbounded: it must fail as
        #     unevaluable rather than pass.
        current = root / "index_zero_bitmap"
        write(current / "bench_index.csv", BASELINE_INDEX_CSV.replace(
            "bitmap,conjunction-selective,1000000,12,100,1200,12,0.004278,",
            "bitmap,conjunction-selective,1000000,12,100,1200,12,0.000000,"))
        code, out = run_gate(index_baseline, current)
        expect("zero bitmap wall hard-fails",
               code == 1 and "cannot evaluate the speedup gate" in out, out,
               problems)

        # 13. Each top-k floor: 1% above it passes, 1% under it fails. At
        #     these walls the CSV's %.6f rounding moves the ratio by <0.1%.
        for shape, (floor, scan) in TOPK_FLOORS.items():
            current = root / f"index_{shape}_above"
            write(current / "bench_index.csv",
                  with_bitmap_wall(shape, scan / (floor * 1.01)))
            code, out = run_gate(index_baseline, current)
            expect(f"{shape} just above its {floor:.0f}x floor passes",
                   code == 0, out, problems)
            current = root / f"index_{shape}_below"
            write(current / "bench_index.csv",
                  with_bitmap_wall(shape, scan / (floor * 0.99)))
            code, out = run_gate(index_baseline, current)
            expect(f"{shape} just under its {floor:.0f}x floor hard-fails",
                   code == 1 and f"[{shape}]" in out and
                   "faster than scan" in out, out, problems)

        # 14. A top-k bitmap wall that rounds to zero is unevaluable.
        current = root / "index_all_wildcard_zero"
        write(current / "bench_index.csv",
              with_bitmap_wall("all-wildcard", 0.0))
        code, out = run_gate(index_baseline, current)
        expect("zero all-wildcard bitmap wall hard-fails",
               code == 1 and "'all-wildcard'" in out and
               "cannot evaluate the speedup gate" in out, out, problems)

    if problems:
        print(f"{len(problems)} selftest expectation(s) failed")
        return 1
    print("bench gate selftest: all expectations held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
