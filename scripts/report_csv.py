#!/usr/bin/env python3
"""Derive CSV views from a bench's JSON report.

Usage:
    report_csv.py REPORT.json OUT_DIR

The smart-bench-report/v3 JSON (written with --json) is the one record of
a bench run; this script is its only CSV writer. Into OUT_DIR it writes:

  <table name>.csv                      one per entry of "tables": the
                                        header row, then every row
  <bench>_<label>_timeseries.csv        one per run with a "timeseries"
                                        block, in long format:
      label,t_ns,name,labels,kind,value,count,mean,min,max,p50,p99,p999
    counters and gauges fill "value", histograms the summary columns;
    each annotation is a "!annotation" row with its target in "labels",
    its kind in "kind" and its detail in "value".

Run labels map to file names as in the benches' trace files: every
character outside [A-Za-z0-9.-] becomes "_" ("SMART-HT/t0" ->
"SMART-HT_t0"). Cells holding a comma, quote or newline are quoted.
Stdlib-only.
"""

import csv
import json
import re
import sys
from pathlib import Path

TIMESERIES_HEADER = ["label", "t_ns", "name", "labels", "kind", "value",
                     "count", "mean", "min", "max", "p50", "p99", "p999"]
HIST_FIELDS = ["count", "mean", "min", "max", "p50", "p99", "p999"]
NO_SUMMARY = [""] * len(HIST_FIELDS)


def file_safe(label):
    return re.sub(r"[^A-Za-z0-9.-]", "_", label)


def labels_text(labels):
    return ";".join(f"{k}={v}" for k, v in labels.items())


def timeseries_rows(label, ts):
    for s in ts["series"]:
        lt = labels_text(s["labels"])
        for i, v in enumerate(s["points"]):
            head = [label, ts["t_ns"][s["start"] + i], s["name"], lt,
                    s["kind"]]
            if s["kind"] == "histogram":
                yield head + [""] + [v[f] for f in HIST_FIELDS]
            else:
                yield head + [v] + NO_SUMMARY
    for a in ts["annotations"]:
        yield [label, a["t_ns"], "!annotation", a["target"], a["kind"],
               a["detail"]] + NO_SUMMARY


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def main(argv):
    if len(argv) != 2:
        print("usage: report_csv.py REPORT.json OUT_DIR", file=sys.stderr)
        return 2
    report = json.loads(Path(argv[0]).read_text())
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for t in report.get("tables", []):
        write_csv(out / f"{t['name']}.csv", t["header"], t["rows"])
    for run in report.get("runs", []):
        ts = run.get("timeseries")
        if ts:
            name = f"{report['bench']}_{file_safe(run['label'])}" \
                   "_timeseries.csv"
            write_csv(out / name, TIMESERIES_HEADER,
                      timeseries_rows(run["label"], ts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
