#!/usr/bin/env python3
"""Checks scripts/report_csv.py against the committed baseline reports.

Every table CSV must equal that table's header plus rows, every run's
time-series CSV must carry one data row per point and per annotation,
and a cell holding a comma must survive the round trip.

    python3 scripts/test_report_csv.py
"""

import csv
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCRIPT = HERE / "report_csv.py"
BASELINES = HERE.parent / "bench" / "baselines"
HEADER = ["label", "t_ns", "name", "labels", "kind", "value",
          "count", "mean", "min", "max", "p50", "p99", "p999"]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class ReportCsv(unittest.TestCase):

    def run_script(self, report_path, out):
        subprocess.run([sys.executable, str(SCRIPT), str(report_path),
                        str(out)], check=True, stdout=subprocess.DEVNULL)

    def check_report(self, name):
        path = BASELINES / f"BENCH_{name}.json"
        report = json.loads(path.read_text())
        with tempfile.TemporaryDirectory() as out:
            out = Path(out)
            self.run_script(path, out)
            self.assertTrue(report["tables"])
            for t in report["tables"]:
                got = read_csv(out / f"{t['name']}.csv")
                self.assertEqual(got, [t["header"]] + t["rows"], t["name"])
            runs = [r for r in report["runs"] if r.get("timeseries")]
            self.assertTrue(runs)
            for run in runs:
                ts = run["timeseries"]
                safe = "".join(c if c.isascii() and (c.isalnum() or c in "-.")
                               else "_" for c in run["label"])
                got = read_csv(out / f"{report['bench']}_{safe}"
                               "_timeseries.csv")
                self.assertEqual(got[0], HEADER)
                rows = got[1:]
                want = (sum(len(s["points"]) for s in ts["series"]) +
                        len(ts["annotations"]))
                self.assertEqual(len(rows), want, run["label"])
                self.assertTrue(all(len(r) == len(HEADER) for r in rows))
                self.assertTrue(all(r[0] == run["label"] for r in rows))
            written = {p.name for p in out.iterdir()}
            self.assertEqual(len(written), len(report["tables"]) + len(runs))

    def test_open_loop_baseline(self):
        self.check_report("open_loop")

    def test_fig10_dtx_baseline(self):
        self.check_report("fig10_dtx")

    def test_comma_cell_round_trips(self):
        report = {
            "bench": "synthetic",
            "tables": [{"name": "t", "header": ["k", "v"],
                        "rows": [["a,b", "1"], ['say "hi"', "2"]]}],
            "runs": [],
        }
        with tempfile.TemporaryDirectory() as out:
            out = Path(out)
            path = out / "report.json"
            path.write_text(json.dumps(report))
            self.run_script(path, out / "csv")
            got = read_csv(out / "csv" / "t.csv")
            self.assertEqual(got, [["k", "v"], ["a,b", "1"],
                                   ['say "hi"', "2"]])


if __name__ == "__main__":
    unittest.main()
