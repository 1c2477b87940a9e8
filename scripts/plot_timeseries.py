#!/usr/bin/env python3
"""Plot (or tabulate) the windowed time-series block of a bench report.

Usage:
    plot_timeseries.py REPORT.json [--run LABEL] [--series NAME ...]
                       [--png OUT.png] [--list]

Reads a smart-bench-report/v3 JSON (written with --json) and:
  --list           print every run label and series name, then exit
  --png OUT.png    render throughput / violation-fraction / burn-rate
                   panels with annotation markers (needs matplotlib;
                   exits 0 with a note when it is unavailable)
Without --png it prints a per-window summary table to stdout. For the
time series as long-format CSV, use scripts/report_csv.py.

Stdlib-only except for the optional matplotlib import behind --png.
"""

import argparse
import json
import signal
import sys
from pathlib import Path

from report_csv import labels_text

# Die quietly when stdout is a closed pipe (e.g. `... --list | head`).
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


def fail(msg):
    print(f"plot_timeseries: {msg}", file=sys.stderr)
    sys.exit(1)


def load_runs(path):
    report = json.loads(Path(path).read_text())
    runs = {r["label"]: r["timeseries"] for r in report.get("runs", [])
            if r.get("timeseries")}
    if not runs:
        fail(f"{path}: no run carries a timeseries block "
             "(was the bench run with --json?)")
    return report, runs


def series_key(s):
    return (s["name"], labels_text(s["labels"]))


def padded(ts, s):
    """Series values aligned to the full t_ns axis (None before start)."""
    out = [None] * len(ts["t_ns"])
    for i, v in enumerate(s["points"]):
        out[s["start"] + i] = v
    return out


def select(ts, names):
    sel = [s for s in ts["series"]
           if not names or any(s["name"] == n or
                               s["name"].startswith(n) for n in names)]
    if not sel:
        fail(f"no series match {names!r}")
    return sel


def print_table(ts, sel):
    for s in sel:
        name = f"{s['name']}[{labels_text(s['labels'])}]"
        print(f"-- {name} ({s['kind']}, {len(s['points'])} windows)")
        for i, v in enumerate(s["points"]):
            t_us = ts["t_ns"][s["start"] + i] / 1000.0
            if s["kind"] == "histogram":
                print(f"  {t_us:>12.1f} us  n={v['count']:<8} "
                      f"p50={v['p50']} p99={v['p99']}")
            else:
                print(f"  {t_us:>12.1f} us  {v}")
    if ts["annotations"]:
        print("-- annotations")
        for a in ts["annotations"]:
            print(f"  {a['t_ns'] / 1000.0:>12.1f} us  [{a['kind']}] "
                  f"{a['target']}: {a['detail']}")


def render_png(ts, label, out):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("plot_timeseries: matplotlib unavailable; skipping "
              f"{out} (stdout output still works)")
        return
    t_ms = [t / 1e6 for t in ts["t_ns"]]
    panels = [
        ("completed / window", ["smart.tenant.completed", "app.ops"]),
        ("violation fraction", ["smart.tenant.violation_fraction"]),
        ("burn rate", ["smart.slo.burn_rate"]),
    ]
    fig, axes = plt.subplots(len(panels), 1, sharex=True,
                             figsize=(10, 2.6 * len(panels)))
    for ax, (title, names) in zip(axes, panels):
        drew = False
        for s in ts["series"]:
            if s["name"] not in names or s["kind"] == "histogram":
                continue
            ys = padded(ts, s)
            ax.plot(t_ms, ys, drawstyle="steps-post",
                    label=f"{s['name']}[{labels_text(s['labels'])}]")
            drew = True
        ax.set_ylabel(title)
        if drew:
            ax.legend(fontsize=6, loc="upper right")
        for a in ts["annotations"]:
            ax.axvline(a["t_ns"] / 1e6, color={
                "fault": "red", "membership": "purple", "slo": "orange",
                "degradation": "brown", "cache": "green",
            }.get(a["kind"], "gray"), alpha=0.4, linestyle="--")
    axes[-1].set_xlabel("virtual time (ms)")
    fig.suptitle(f"{label} — windowed time series")
    fig.tight_layout()
    fig.savefig(out, dpi=120)
    print(f"wrote {out}")


def main(argv):
    ap = argparse.ArgumentParser(
        prog="plot_timeseries.py",
        description="Plot/tabulate a report's windowed time series.")
    ap.add_argument("report")
    ap.add_argument("--run", help="run label (default: first with data)")
    ap.add_argument("--series", action="append", default=[],
                    help="series name or prefix filter (repeatable)")
    ap.add_argument("--png", help="render panels here (matplotlib)")
    ap.add_argument("--list", action="store_true",
                    help="list run labels + series names and exit")
    args = ap.parse_args(argv)

    report, runs = load_runs(args.report)
    if args.list:
        for label, ts in runs.items():
            print(f"{label}: {len(ts['t_ns'])} windows, "
                  f"{len(ts['series'])} series, "
                  f"{len(ts['annotations'])} annotations")
            for s in ts["series"]:
                print(f"  {s['name']}[{labels_text(s['labels'])}] "
                      f"({s['kind']})")
        return 0

    label = args.run or next(iter(runs))
    if label not in runs:
        fail(f"run {label!r} not found; have: {', '.join(runs)}")
    ts = runs[label]
    sel = select(ts, args.series)
    if args.png:
        render_png(ts, label, args.png)
    else:
        print_table(ts, sel)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
