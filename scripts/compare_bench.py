#!/usr/bin/env python3
"""Regression gate: compare a fresh smart-bench-report/v3 JSON against a
committed baseline from bench/baselines/.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--p99-tol F] [--tput-tol F]

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
they are reported as warnings only. The provenance block (which build
wrote the report) is not compared. Span-attribution share drift > 10
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
    if report.get("schema") != "smart-bench-report/v3":
        print(f"compare_bench: {path}: not a smart-bench-report/v3 file",
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


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--p99-tol", type=float, default=0.10,
                    help="allowed relative p99 latency increase "
                         "(default 0.10)")
    ap.add_argument("--tput-tol", type=float, default=0.10,
                    help="allowed relative throughput decrease "
                         "(default 0.10)")
    args = ap.parse_args(argv)

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
