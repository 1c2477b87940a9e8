#!/usr/bin/env python3
"""Regression gate: compare a fresh smart-bench-report/v2 JSON against a
committed baseline from bench/baselines/.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--p99-tol F] [--tput-tol F]
    compare_bench.py --shard-scaling CURRENT.json [--speedup-floor F]

The second form gates the sharded-engine scaling sweep in a
kernel_stress report by itself (no baseline): the determinism gate
(identical event/delivery totals at every shard count) always applies;
the wall-clock gate (4-shard speedup >= --speedup-floor, default 1.6x)
applies only when perf.host_cores >= 4 — a 1-core CI runner cannot
demonstrate parallel speedup, and a wall-clock gate there would only
measure scheduler noise.

Both files must come from the same bench at the same --quick/--seed
settings, so every gated metric is a deterministic function of virtual
time and the seed. Gates (exit 1 on violation):

  * app throughput: per run label, the sum of app.ops counters must not
    drop more than --tput-tol (default 10%) below the baseline.
  * app latency: per run label, the merged-worst app.op_latency_ns p99
    must not rise more than --p99-tol (default 10%) above the baseline.
  * kernel benches (no app metrics): perf.events_processed must stay
    within --tput-tol of the baseline in either direction.

Wall-clock numbers (perf.events_per_sec, wall_ms) vary with the host, so
they are reported as warnings only. Span-attribution share drift > 10
percentage points per stage is also warn-only: it flags a shifted
latency profile that the p99 gate alone might miss.
"""

import argparse
import json
import sys
from pathlib import Path

WARN = []
FAIL = []


def warn(msg):
    WARN.append(msg)
    print(f"compare_bench: WARN: {msg}")


def fail(msg):
    FAIL.append(msg)
    print(f"compare_bench: FAIL: {msg}", file=sys.stderr)


def load(path):
    report = json.loads(Path(path).read_text())
    if report.get("schema") != "smart-bench-report/v2":
        print(f"compare_bench: {path}: not a smart-bench-report/v2 file",
              file=sys.stderr)
        sys.exit(2)
    return report


def app_stats(report):
    """Per run label: (sum of app.ops, worst app.op_latency_ns p99)."""
    stats = {}
    for run in report.get("runs", []):
        ops = 0
        p99 = 0
        seen = False
        for m in run.get("metrics", []):
            if m.get("name") == "app.ops":
                ops += int(m.get("value", 0))
                seen = True
            elif m.get("name") == "app.op_latency_ns":
                hist = m.get("value", {})
                if isinstance(hist, dict) and hist.get("count", 0) > 0:
                    p99 = max(p99, int(hist.get("p99", 0)))
                    seen = True
        if seen:
            stats[run["label"]] = (ops, p99)
    return stats


def span_shares(report):
    """Per (run label, stage, thread): attribution share."""
    shares = {}
    for run in report.get("runs", []):
        spans = run.get("spans")
        if not isinstance(spans, dict):
            continue
        for st in spans.get("stages", []):
            key = (run["label"], st.get("stage"), st.get("thread"))
            shares[key] = float(st.get("share", 0.0))
    return shares


def compare(base, cur, p99_tol, tput_tol):
    if base.get("bench") != cur.get("bench"):
        fail(f"bench mismatch: baseline {base.get('bench')!r} vs "
             f"current {cur.get('bench')!r}")
        return
    for key in ("quick", "seed"):
        if base.get(key) != cur.get(key):
            warn(f"{key} differs (baseline {base.get(key)!r}, current "
                 f"{cur.get(key)!r}); gated metrics are only comparable "
                 f"at identical settings")

    base_app = app_stats(base)
    cur_app = app_stats(cur)
    for label, (b_ops, b_p99) in sorted(base_app.items()):
        if label not in cur_app:
            fail(f"run {label!r} present in baseline but missing from "
                 f"current report")
            continue
        c_ops, c_p99 = cur_app[label]
        if b_ops > 0:
            delta = (c_ops - b_ops) / b_ops
            line = (f"run {label!r}: app.ops {b_ops} -> {c_ops} "
                    f"({delta:+.1%})")
            if c_ops < b_ops * (1.0 - tput_tol):
                fail(line + f", below -{tput_tol:.0%} tolerance")
            else:
                print(f"compare_bench: ok: {line}")
        if b_p99 > 0 and c_p99 > 0:
            delta = (c_p99 - b_p99) / b_p99
            line = (f"run {label!r}: op_latency p99 {b_p99} ns -> "
                    f"{c_p99} ns ({delta:+.1%})")
            if c_p99 > b_p99 * (1.0 + p99_tol):
                fail(line + f", above +{p99_tol:.0%} tolerance")
            else:
                print(f"compare_bench: ok: {line}")
    for label in sorted(set(cur_app) - set(base_app)):
        warn(f"run {label!r} is new (not in baseline); re-seed baselines "
             f"to gate it")

    if not base_app:
        # Kernel benches: gate the deterministic event count instead.
        b_ev = base.get("perf", {}).get("events_processed", 0)
        c_ev = cur.get("perf", {}).get("events_processed", 0)
        if b_ev > 0 and c_ev > 0:
            delta = (c_ev - b_ev) / b_ev
            line = (f"perf.events_processed {b_ev} -> {c_ev} "
                    f"({delta:+.1%})")
            if abs(delta) > tput_tol:
                fail(line + f", outside +/-{tput_tol:.0%} tolerance")
            else:
                print(f"compare_bench: ok: {line}")
        else:
            fail("no app metrics and no perf.events_processed to gate")

    b_eps = base.get("perf", {}).get("events_per_sec", 0)
    c_eps = cur.get("perf", {}).get("events_per_sec", 0)
    if b_eps and c_eps:
        delta = (c_eps - b_eps) / b_eps
        if abs(delta) > 0.25:
            warn(f"perf.events_per_sec moved {delta:+.1%} "
                 f"(wall-clock, host-dependent; not gated)")

    b_shares = span_shares(base)
    c_shares = span_shares(cur)
    for key in sorted(set(b_shares) & set(c_shares)):
        drift = c_shares[key] - b_shares[key]
        if abs(drift) > 0.10:
            label, stage, thread = key
            warn(f"run {label!r}: stage {stage!r} ({thread}) attribution "
                 f"share moved {b_shares[key]:.2f} -> {c_shares[key]:.2f} "
                 f"({drift:+.2f}); latency profile shifted")


def check_shard_scaling(report, speedup_floor):
    """Gate the kernel_stress shard-scaling sweep (single-report mode)."""
    tables = {t.get("name"): t for t in report.get("tables", [])}
    ss = tables.get("kernel_stress_shard_scaling")
    if ss is None:
        fail("report has no kernel_stress_shard_scaling table")
        return
    cols = {name: i for i, name in enumerate(ss["header"])}
    rows = {int(r[cols["shards"]]): r for r in ss["rows"]}

    # Determinism gate: unconditional. Every shard count must replay the
    # single-shard simulation exactly.
    base = rows.get(1)
    if base is None:
        fail("shard_scaling table has no 1-shard row")
        return
    for n, r in sorted(rows.items()):
        for col in ("events", "delivered"):
            b, c = int(base[cols[col]]), int(r[cols[col]])
            if c != b:
                fail(f"{n} shards: {col} {c} != 1-shard {col} {b} "
                     f"(sharding changed the simulation)")
    print("compare_bench: ok: shard_scaling totals identical at "
          f"{sorted(rows)} shards")

    # Speedup gate: only on hosts that can physically demonstrate it.
    cores = int(report.get("perf", {}).get("host_cores", 0))
    row4 = rows.get(4)
    speedup = float(row4[cols["speedup_vs_1"]]) if row4 is not None else 0.0
    if cores < 4:
        warn(f"host has {cores} cores; 4-shard speedup {speedup:.2f}x "
             f"reported but not gated (need >= 4 cores to gate)")
    elif row4 is None:
        fail("shard_scaling table has no 4-shard row")
    elif speedup < speedup_floor:
        fail(f"4-shard speedup {speedup:.2f}x < {speedup_floor:.2f}x "
             f"floor on a {cores}-core host")
    else:
        print(f"compare_bench: ok: 4-shard speedup {speedup:.2f}x "
              f">= {speedup_floor:.2f}x ({cores} cores)")


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current", nargs="?")
    ap.add_argument("--p99-tol", type=float, default=0.10,
                    help="allowed relative p99 latency increase "
                         "(default 0.10)")
    ap.add_argument("--tput-tol", type=float, default=0.10,
                    help="allowed relative throughput decrease "
                         "(default 0.10)")
    ap.add_argument("--shard-scaling", action="store_true",
                    help="single-report mode: gate the shard-scaling "
                         "sweep of a kernel_stress report")
    ap.add_argument("--speedup-floor", type=float, default=1.6,
                    help="minimum 4-shard wall-clock speedup, gated only "
                         "when the host has >= 4 cores (default 1.6)")
    args = ap.parse_args(argv)

    if args.shard_scaling:
        if args.current is not None:
            ap.error("--shard-scaling takes a single report")
        cur = load(args.baseline)
        check_shard_scaling(cur, args.speedup_floor)
        bench = cur.get("bench", "?")
        if FAIL:
            print(f"compare_bench: {bench}: {len(FAIL)} regression(s), "
                  f"{len(WARN)} warning(s)", file=sys.stderr)
            return 1
        print(f"compare_bench: {bench}: OK ({len(WARN)} warning(s))")
        return 0

    if args.current is None:
        ap.error("CURRENT.json is required without --shard-scaling")
    base = load(args.baseline)
    cur = load(args.current)
    compare(base, cur, args.p99_tol, args.tput_tol)

    bench = base.get("bench", "?")
    if FAIL:
        print(f"compare_bench: {bench}: {len(FAIL)} regression(s), "
              f"{len(WARN)} warning(s)", file=sys.stderr)
        return 1
    print(f"compare_bench: {bench}: OK ({len(WARN)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
