#!/usr/bin/env python3
"""Compare two tyder bench reports and flag regressions.

Usage:
    scripts/bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]

Both inputs are tyder-bench-v1 JSON files assembled from BENCHJSON lines:
the `obs` mode of scripts/run_all.sh writes them from bench_obs, the
`scenarios` mode from tyder_workload's pack replays. The tool pairs results by
(bench binary, benchmark name), prints a per-benchmark delta table, and exits
non-zero if any paired benchmark's cpu_time_ns regressed by more than the
threshold (default 25%).

Reproduction binaries (bench_fig*/bench_example*) report `match` flags
instead of timings; a result without cpu_time_ns is compared for
correctness-flag regressions only.

Benchmarks present in only one file are reported but never fail the
comparison — new benchmarks appear and old ones retire as the codebase
grows.

A purely relative threshold is meaningless for benchmarks whose whole body
is a couple of machine instructions: at ~1ns per iteration a single cycle
of code/data-placement jitter (guard variable or heap object landing on a
different line in the new binary — instruction-identical loops, verified by
objdump) is already ±30%. Deltas where the absolute change is below
--floor-ns (default 5ns) are therefore reported as "sub-floor" and never
gate, mirroring the combined relative+absolute thresholds of LNT-style
harnesses.

Multi-threaded benchmarks (name contains "/threads:") and any result that
reports items_per_second on both sides are compared by throughput instead
of cpu_time_ns: with N contending threads, aggregate CPU time measures
contention overhead, not progress — a group-commit batch that doubles
commit throughput also burns more total CPU in the leader — and the
scenario replays (BENCH_scenario_*.json) report steps/mutations/reads per
second the same way. A drop in items/sec beyond the threshold is the
regression; the ns floor does not apply (throughput benches are never
instruction-scale).

Scenario reports are newer than most recorded baselines: a baseline file
that predates `run_all.sh scenarios` simply has no scenario_* entries, so
every scenario result shows as "NEW (not compared)" and the gate still
passes. --allow-missing-baseline extends the same tolerance to a wholly
absent baseline FILE (first run on a fresh checkout): everything reports
as new and the exit status is 0.
"""

import argparse
import json
import sys


def load_results(path, missing_ok=False):
    """-> {(bench, name): result-dict}, preserving insertion order.

    With missing_ok, an unreadable file is treated as an empty report (every
    current result becomes NEW) instead of a fatal error.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        if missing_ok:
            print(f"bench_compare: no baseline at {path} ({e.__class__.__name__}); "
                  "everything will report as NEW")
            return {}
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if doc.get("schema") != "tyder-bench-v1":
        sys.exit(f"bench_compare: {path} is not a tyder-bench-v1 report")
    out = {}
    for bench in doc.get("benches", []):
        binary = bench.get("bench", "?")
        for result in bench.get("results", []):
            out[(binary, result.get("name", "?"))] = result
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=25.0,
                        help="regression threshold in percent (default 25)")
    parser.add_argument("--floor-ns", type=float, default=5.0,
                        help="absolute deltas below this never gate "
                             "(default 5ns; see module docstring)")
    parser.add_argument("--allow-missing-baseline", action="store_true",
                        help="treat an absent/unreadable baseline file as an "
                             "empty report (everything NEW, exit 0) instead "
                             "of a fatal error")
    args = parser.parse_args()

    baseline = load_results(args.baseline,
                            missing_ok=args.allow_missing_baseline)
    current = load_results(args.current)

    regressions = []
    improvements = []
    rows = []
    for key, cur in current.items():
        base = baseline.get(key)
        label = f"{key[0]}:{key[1]}"
        if base is None:
            rows.append((label, None, None, "NEW (not compared)"))
            continue
        # Correctness flags from the reproduction binaries and the scenario
        # replays (oracle_clean/ledger_clean/deterministic): any true->false
        # flip is a regression regardless of timing.
        for flag, base_value in base.items():
            if isinstance(base_value, bool) and base_value \
                    and cur.get(flag) is False:
                regressions.append(f"{label}: {flag} flipped true -> false")
        if "items_per_second" in base and "items_per_second" in cur:
            base_tp, cur_tp = base["items_per_second"], cur["items_per_second"]
            if base_tp <= 0:
                rows.append((label, None, None, "zero-baseline"))
                continue
            drop_pct = 100.0 * (base_tp - cur_tp) / base_tp
            status = f"{-drop_pct:+.1f}% items/s"
            if drop_pct > args.threshold:
                status += " REGRESSION"
                regressions.append(
                    f"{label}: {base_tp:.0f} -> {cur_tp:.0f} items/s "
                    f"({-drop_pct:+.1f}% < -{args.threshold:.0f}%)")
            elif drop_pct < -args.threshold:
                status += " improved"
                improvements.append(label)
            rows.append((label, f"{base_tp:.0f}/s", f"{cur_tp:.0f}/s", status))
            continue
        if "cpu_time_ns" not in base or "cpu_time_ns" not in cur:
            rows.append((label, None, None, "no-timing"))
            continue
        base_ns, cur_ns = base["cpu_time_ns"], cur["cpu_time_ns"]
        if base_ns <= 0:
            rows.append((label, base_ns, cur_ns, "zero-baseline"))
            continue
        delta_pct = 100.0 * (cur_ns - base_ns) / base_ns
        status = f"{delta_pct:+.1f}%"
        if abs(cur_ns - base_ns) < args.floor_ns:
            if abs(delta_pct) > args.threshold:
                status += " sub-floor"
        elif delta_pct > args.threshold:
            status += " REGRESSION"
            regressions.append(
                f"{label}: {base_ns:.0f}ns -> {cur_ns:.0f}ns "
                f"({delta_pct:+.1f}% > {args.threshold:.0f}%)")
        elif delta_pct < -args.threshold:
            status += " improved"
            improvements.append(label)
        rows.append((label, base_ns, cur_ns, status))

    for key in baseline:
        if key not in current:
            rows.append((f"{key[0]}:{key[1]}", None, None, "REMOVED"))

    width = max((len(r[0]) for r in rows), default=20)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  delta")
    def fmt(v):
        # Throughput rows carry pre-formatted "N/s" strings; timing rows
        # carry raw nanoseconds (float, or int when the JSON value happened
        # to be integral).
        if isinstance(v, str):
            return v
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            return f"{v:.0f}ns"
        return "-"

    for label, base_ns, cur_ns, status in rows:
        base_s = fmt(base_ns)
        cur_s = fmt(cur_ns)
        print(f"{label:<{width}}  {base_s:>12}  {cur_s:>12}  {status}")

    print(f"\n{len(rows)} compared, {len(improvements)} improved >"
          f"{args.threshold:.0f}%, {len(regressions)} regressed >"
          f"{args.threshold:.0f}%")
    if regressions:
        print("\nregressions:", file=sys.stderr)
        for r in regressions:
            print(f"  {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
