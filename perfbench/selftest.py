#!/usr/bin/env python3
"""Self-test of the repo benchmark (short simulated windows).

    python3 perfbench/selftest.py

For every workload it checks that
  * a smoke run passes its output checks, with no failed op except the
    RACE give-ups on hash-write-skew, and prints
    every metric BENCHMARK.json names, finite and with the unit named there
    (end-to-end with --trace 0, per-layer with --trace 1);
  * a second run at the same seed gives identical simulated metrics and
    the same sim_digest;
  * a different seed changes them.
It also checks that a non-numeric seed is rejected. Exit code 0 = pass.
"""

import json
import math
import os
import subprocess
import sys

import run as bench

# Workloads on which some ops fail at the default configuration.
FAILING_WORKLOADS = ("hash-write-skew",)
SIM_PREFIXES = ("sim_", "sim.latency_samples", "rnic.", "verbs.", "smart.",
                "race.", "sherman.", "ford.", "baseline.")


def smoke(binary, workload, seed, trace):
    """Run smartbench in quick mode; return (result, report lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--quick"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                         timeout=bench.RUN_TIMEOUT_S).stdout.splitlines()
    return json.loads(out[-1]), out[:-1]


def simulated(lines):
    """Simulated metrics and the digest from the human-readable report."""
    sim = {}
    for line in lines:
        parts = line.split()
        if line.startswith("sim_digest"):
            sim["sim_digest"] = parts[2]
        elif line.startswith("  ") and parts[0].startswith(SIM_PREFIXES):
            sim[parts[0]] = parts[1]
    return sim


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()
    errors = []

    def check(cond, msg):
        if not cond:
            errors.append(msg)
            print("FAIL: " + msg)

    for w in (x["name"] for x in spec["workloads"]):
        runs = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, lines = smoke(binary, w, seed, trace)
            runs[(seed, trace)] = lines
            tag = "%s seed %d trace %d" % (w, seed, trace)
            check(result["correct"], tag + ": output checks failed")
            # RACE updates that use up the table's CAS retries fail (see
            # README, "RACE give-ups"); no other op may fail.
            may_fail = w in FAILING_WORKLOADS
            check(result["attempted"] > 0 and
                  (result["failed"] < result["attempted"] if may_fail
                   else result["failed"] == 0),
                  tag + ": %d of %d ops failed" % (result["failed"],
                                                   result["attempted"]))
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            check(set(got) == {m["name"] for m in wanted},
                  tag + ": metric names differ from BENCHMARK.json")
            for m in wanted:
                v = got.get(m["name"], {})
                check(isinstance(v.get("value"), (int, float)) and
                      math.isfinite(v["value"]),
                      tag + ": %s missing or not finite" % m["name"])
                check(v.get("unit") == m["unit"],
                      tag + ": %s unit %r, want %r" % (m["name"],
                                                       v.get("unit"),
                                                       m["unit"]))
        same_a = simulated(runs[(1, 0)])
        same_b = simulated(runs[(1, 1)])
        other = simulated(runs[(2, 0)])
        check(len(same_a) > 10 and same_a == same_b,
              w + ": same seed gave different simulated metrics")
        check(same_a["sim_digest"] != other["sim_digest"] and
              same_a["sim_mops"] != other["sim_mops"],
              w + ": a different seed did not change the simulated metrics")
        print("%s: ok (digest %s)" % (w, same_a["sim_digest"]))

    proc = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py"), "--workload",
         "btree-read", "--seed", "12abc", "--seconds", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "a non-numeric seed was not rejected")

    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
