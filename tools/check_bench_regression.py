#!/usr/bin/env python3
# Copyright (c) hdc authors. Apache-2.0 license.
"""Bench regression gate.

Compares freshly produced bench CSVs against the checked-in baselines in
bench_results/baseline/. The crawls behind the figure benches are fully
deterministic (fixed datasets, fixed ranking seeds), so *query-cost* cells
must match the baseline exactly: any drift is a hard failure — it means an
algorithm's conversation changed. Wall-time-like columns (header containing
"seconds", "wall" or "time") are machine noise: drift there only warns.

CSVs with a `transport`, `engine`, `shards`, `cache` or `plan` column (e.g.
transport_roundtrip.csv, which times the same workload in-process and over
the loopback wire; bench_index.csv, which times the same query script under
each evaluation engine; or bench_sharded.csv, which drives the same script
through 1-, 2- and 4-shard scatter-gather backends) are compared per group:
rows are matched only against baseline rows of the same
transport/engine/shard-count, so a loopback wall-time is never judged
against an in-process baseline (or vice versa). A group present in the
baseline but absent from the current run is a hard failure; a new group in
the current run is a warning until its rows are committed to the baseline.

bench_index.csv additionally carries per-shape speedup gates: the bitmap
engine must beat the scan oracle by at least 16x wall time on the headline
"conjunction-selective" shape, and on the top-k shapes by 143x
("all-wildcard"), 46x ("range-wide-random") and 29x ("topk-overflow-heavy").
Falling under a floor is a hard failure even though the cells are wall
times — each ratio is between two engines measured back-to-back on the same
machine, so machine speed cancels out. A run whose bitmap wall is zero (or
missing) for a gated shape cannot evaluate the ratio and hard-fails.
bench_cache.csv carries the analogous gate on *billed query counts*: at the
1% mutation rate the delta re-crawl must bill at least 10x fewer server
queries than the from-scratch re-crawl. bench_planner.csv carries the
predicate-pushdown gate, also on billed queries: the pushdown crawl must
bill no more than crawling only the satisfying subspace, and at least 3x
fewer queries than crawl-then-filter.

Every baseline CSV must have a matching current result: a baseline with no
current file means a bench was deleted, renamed, or silently skipped — a
hard failure, because a gate that compares nothing passes vacuously. The
same logic rejects a run that compared zero files overall. Pass
--allow-missing only for a deliberate transition (e.g. retiring a figure):
it downgrades unmatched baselines (and an empty comparison) to warnings.

Usage:
    tools/check_bench_regression.py \
        [--baseline bench_results/baseline] [--current bench_results] \
        [--time-tolerance 0.25] [--allow-missing]

Exit status: 0 clean (warnings allowed), 1 on any hard failure.
"""

import argparse
import csv
import sys
from pathlib import Path


def is_time_column(header: str) -> bool:
    h = header.lower()
    return "seconds" in h or "wall" in h or "time" in h


def as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def read_csv(path: Path):
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def compare_rows(name: str, header: list, base_rows: list, cur_rows: list,
                 time_tolerance: float, failures: list,
                 warnings: list) -> None:
    for row_idx, (base_row, cur_row) in enumerate(zip(base_rows, cur_rows)):
        if len(base_row) != len(cur_row):
            failures.append(f"{name} row {row_idx + 1}: cell count changed")
            continue
        for col_idx, (base_cell, cur_cell) in enumerate(
                zip(base_row, cur_row)):
            if base_cell == cur_cell:
                continue
            col_name = (header[col_idx]
                        if col_idx < len(header) else f"col{col_idx}")
            where = f"{name} row {row_idx + 1} [{col_name}]"
            base_num, cur_num = as_float(base_cell), as_float(cur_cell)
            if is_time_column(col_name):
                if base_num is None or cur_num is None:
                    warnings.append(f"{where}: {base_cell!r} -> {cur_cell!r}")
                    continue
                denom = max(abs(base_num), 1e-12)
                drift = abs(cur_num - base_num) / denom
                if drift > time_tolerance:
                    warnings.append(
                        f"{where}: wall-time drift {drift:.1%} "
                        f"({base_cell} -> {cur_cell})")
                continue
            # Everything else is a deterministic measurement — query costs,
            # extraction sizes, bound ratios. Exact mismatch is a failure.
            failures.append(f"{where}: {base_cell!r} -> {cur_cell!r} "
                            "(query-cost drift)")


# Columns whose value partitions rows into separately-measured populations.
# Rows are only ever compared within a group: a loopback wall-time against a
# loopback baseline, a bitmap-engine row against a bitmap-engine baseline, a
# 4-shard scatter-gather row against a 4-shard baseline, a delta re-crawl
# row against a delta baseline.
GROUP_COLUMNS = ("transport", "engine", "shards", "cache", "plan")

# bench_index speedup gates: per shape, the bitmap engine must beat the scan
# oracle by this factor within one run. See bench/bench_index.cc.
#   conjunction-selective: the former 4x bitmap-vs-legacy floor times the
#     smallest scan/legacy ratio (4.03) the committed CSVs recorded.
#   The top-k shapes, which the rank-ordered layout stops at match k+1: the
#     ROADMAP's speedup gate times the scan/bitmap ratio committed before
#     that layout (20 x 7.16, 20 x 2.27 and 3 x 9.52).
INDEX_SPEEDUP_FILE = "bench_index.csv"
INDEX_SPEEDUP_FLOORS = {
    "conjunction-selective": 16.0,
    "all-wildcard": 143.0,
    "range-wide-random": 46.0,
    "topk-overflow-heavy": 29.0,
}

# bench_cache query gate: at the headline mutation rate the delta re-crawl
# must bill this many times fewer server queries than the from-scratch
# re-crawl. See bench/bench_cache.cc. Unlike the index gate this compares
# deterministic query counts, not wall times.
CACHE_SPEEDUP_FILE = "bench_cache.csv"
CACHE_SPEEDUP_RATE = "0.01"
CACHE_SPEEDUP_FLOOR = 10.0

# bench_planner gate, on deterministic billed-query counts: predicate
# pushdown must bill no more than crawling only the satisfying subspace,
# and at least PLANNER_SPEEDUP_FLOOR times fewer queries than
# crawl-then-filter. See bench/bench_planner.cc.
PLANNER_FILE = "bench_planner.csv"
PLANNER_SPEEDUP_FLOOR = 3.0


def group_by_column(rows: list, key_idx: int) -> dict:
    groups = {}
    for row in rows:
        key = row[key_idx] if key_idx < len(row) else ""
        groups.setdefault(key, []).append(row)
    return groups


def check_index_speedup(header: list, rows: list, failures: list) -> None:
    """Hard-fails unless bitmap beats scan by its INDEX_SPEEDUP_FLOORS entry
    on every gated shape. Operates on the *current* run: each ratio is
    between two engines measured back-to-back, so machine speed cancels out
    and the check stays meaningful even though the cells are wall times."""
    try:
        engine_idx = header.index("engine")
        shape_idx = header.index("shape")
        wall_idx = header.index("wall_seconds")
    except ValueError:
        failures.append(f"{INDEX_SPEEDUP_FILE}: expected engine/shape/"
                        "wall_seconds columns for the speedup gate")
        return
    walls = {}
    for row in rows:
        if len(row) > max(engine_idx, shape_idx, wall_idx):
            walls[(row[shape_idx], row[engine_idx])] = as_float(row[wall_idx])
    for shape, floor in INDEX_SPEEDUP_FLOORS.items():
        scan, bitmap = walls.get((shape, "scan")), walls.get((shape, "bitmap"))
        if scan is None or bitmap is None or bitmap <= 0:
            # A zero bitmap wall is below timer resolution: the ratio is
            # unbounded, not evidence of a speedup.
            failures.append(
                f"{INDEX_SPEEDUP_FILE}: shape '{shape}' lacks positive "
                "scan/bitmap wall times — cannot evaluate the speedup gate")
            continue
        ratio = scan / bitmap
        if ratio < floor:
            failures.append(
                f"{INDEX_SPEEDUP_FILE} [{shape}]: bitmap is only "
                f"{ratio:.2f}x faster than scan (floor {floor:.1f}x; scan "
                f"{scan:.6f}s, bitmap {bitmap:.6f}s)")


def check_cache_speedup(header: list, rows: list, failures: list) -> None:
    """Hard-fails unless the delta re-crawl bills CACHE_SPEEDUP_FLOOR times
    fewer queries than the full re-crawl at the headline mutation rate.
    Operates on the *current* run; billed-query counts are deterministic,
    so the ratio carries no machine noise at all."""
    try:
        cache_idx = header.index("cache")
        rate_idx = header.index("rate")
        billed_idx = header.index("billed queries")
    except ValueError:
        failures.append(f"{CACHE_SPEEDUP_FILE}: expected cache/rate/"
                        "'billed queries' columns for the cache gate")
        return
    billed = {}
    for row in rows:
        if len(row) > max(cache_idx, rate_idx, billed_idx) and \
                row[rate_idx] == CACHE_SPEEDUP_RATE:
            billed[row[cache_idx]] = as_float(row[billed_idx])
    full, delta = billed.get("full"), billed.get("delta")
    if full is None or delta is None:
        failures.append(
            f"{CACHE_SPEEDUP_FILE}: rate '{CACHE_SPEEDUP_RATE}' lacks "
            "full/delta billed-query counts — cannot evaluate the cache "
            "gate")
        return
    if delta <= 0:
        return  # nothing billed at all; the ratio is vacuously fine
    ratio = full / delta
    if ratio < CACHE_SPEEDUP_FLOOR:
        failures.append(
            f"{CACHE_SPEEDUP_FILE} [rate={CACHE_SPEEDUP_RATE}]: delta "
            f"re-crawl bills only {ratio:.2f}x fewer queries than full "
            f"(floor {CACHE_SPEEDUP_FLOOR:.1f}x; full {full:.0f}, delta "
            f"{delta:.0f})")


def check_planner_speedup(header: list, rows: list, failures: list) -> None:
    """Hard-fails unless, on the current run, the pushdown crawl bills (a)
    no more queries than the subspace-only crawl and (b) at least
    PLANNER_SPEEDUP_FLOOR times fewer than crawl-then-filter. Billed-query
    counts are deterministic, so the ratios carry no machine noise."""
    try:
        plan_idx = header.index("plan")
        billed_idx = header.index("billed queries")
    except ValueError:
        failures.append(f"{PLANNER_FILE}: expected plan/'billed queries' "
                        "columns for the planner gate")
        return
    billed = {}
    for row in rows:
        if len(row) > max(plan_idx, billed_idx):
            billed[row[plan_idx]] = as_float(row[billed_idx])
    filter_q = billed.get("filter")
    pushdown_q = billed.get("pushdown")
    subspace_q = billed.get("subspace")
    if filter_q is None or pushdown_q is None or subspace_q is None:
        failures.append(
            f"{PLANNER_FILE}: needs filter/pushdown/subspace billed-query "
            "rows — cannot evaluate the planner gate")
        return
    if pushdown_q > subspace_q:
        failures.append(
            f"{PLANNER_FILE}: pushdown bills {pushdown_q:.0f} queries, more "
            f"than the subspace-only crawl's {subspace_q:.0f} — the planner "
            "descends outside the satisfying subspace")
    if pushdown_q <= 0:
        return  # degenerate; the exact-match comparison already covers it
    ratio = filter_q / pushdown_q
    if ratio < PLANNER_SPEEDUP_FLOOR:
        failures.append(
            f"{PLANNER_FILE}: pushdown is only {ratio:.2f}x cheaper than "
            f"crawl-then-filter (floor {PLANNER_SPEEDUP_FLOOR:.1f}x; filter "
            f"{filter_q:.0f}, pushdown {pushdown_q:.0f})")


def compare_file(baseline: Path, current: Path, time_tolerance: float,
                 failures: list, warnings: list) -> None:
    name = baseline.name
    base_header, base_rows = read_csv(baseline)
    cur_header, cur_rows = read_csv(current)

    if base_header != cur_header:
        failures.append(f"{name}: header changed "
                        f"{base_header} -> {cur_header}")
        return

    group_col = next((c for c in GROUP_COLUMNS if c in base_header), None)
    if group_col is not None:
        # Same-group comparison only: loopback wall-times must never be
        # judged against in-process baselines, nor bitmap-engine rows
        # against scan ones. Rows are grouped by the tag column and each
        # group compared positionally.
        key_idx = base_header.index(group_col)
        base_groups = group_by_column(base_rows, key_idx)
        cur_groups = group_by_column(cur_rows, key_idx)
        for key, base_group in base_groups.items():
            cur_group = cur_groups.get(key)
            if cur_group is None:
                failures.append(
                    f"{name}: {group_col} '{key}' present in the "
                    "baseline but missing from the current run")
                continue
            if len(base_group) != len(cur_group):
                failures.append(
                    f"{name} [{group_col}={key}]: row count changed "
                    f"{len(base_group)} -> {len(cur_group)}")
                continue
            compare_rows(f"{name} [{group_col}={key}]", base_header,
                         base_group, cur_group, time_tolerance, failures,
                         warnings)
        for key in cur_groups:
            if key not in base_groups:
                warnings.append(
                    f"{name}: new {group_col} '{key}' has no baseline "
                    "rows — commit them to put it under the gate")
        if name == INDEX_SPEEDUP_FILE:
            check_index_speedup(cur_header, cur_rows, failures)
        if name == CACHE_SPEEDUP_FILE:
            check_cache_speedup(cur_header, cur_rows, failures)
        if name == PLANNER_FILE:
            check_planner_speedup(cur_header, cur_rows, failures)
        return

    if len(base_rows) != len(cur_rows):
        failures.append(f"{name}: row count changed "
                        f"{len(base_rows)} -> {len(cur_rows)}")
        return
    compare_rows(name, base_header, base_rows, cur_rows, time_tolerance,
                 failures, warnings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench_results/baseline",
                        type=Path)
    parser.add_argument("--current", default="bench_results", type=Path)
    parser.add_argument("--time-tolerance", default=0.25, type=float,
                        help="relative wall-time drift that triggers a "
                             "warning (default 0.25)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="downgrade baselines without a current CSV "
                             "(and an empty comparison) from hard failures "
                             "to warnings — only for deliberately retiring "
                             "a bench")
    args = parser.parse_args()

    if not args.baseline.is_dir():
        print(f"error: baseline directory {args.baseline} not found",
              file=sys.stderr)
        return 1

    failures, warnings = [], []
    compared = 0
    for baseline in sorted(args.baseline.glob("*.csv")):
        current = args.current / baseline.name
        if not current.is_file():
            # A baseline nobody produces anymore must not pass silently:
            # deleting or renaming a bench would otherwise retire its gate
            # without anyone deciding to.
            sink = warnings if args.allow_missing else failures
            sink.append(f"{baseline.name}: missing from {args.current} "
                        "(bench deleted, renamed, or not run; rerun it, or "
                        "pass --allow-missing to retire it deliberately)")
            continue
        compared += 1
        compare_file(baseline, current, args.time_tolerance, failures,
                     warnings)

    if compared == 0:
        sink = warnings if args.allow_missing else failures
        sink.append(f"no baseline CSV in {args.baseline} was matched by a "
                    f"current result in {args.current} — the gate compared "
                    "nothing")

    if args.current.is_dir():
        baseline_names = {b.name for b in args.baseline.glob("*.csv")}
        for extra in sorted(args.current.glob("*.csv")):
            if extra.name not in baseline_names:
                warnings.append(
                    f"{extra.name}: present in {args.current} but has no "
                    f"baseline — new bench? commit its CSV to "
                    f"{args.baseline} to put it under the gate")

    for w in warnings:
        print(f"WARNING: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    print(f"compared {compared} CSV(s) against {args.baseline}: "
          f"{len(failures)} failure(s), {len(warnings)} warning(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
