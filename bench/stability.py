"""Stability report: run each workload repeatedly and print, for every
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median), next to the metric's
bound in BENCHMARK.json.

Usage (from the repository root):

    python3 bench/stability.py [--seed0 1]

Every workload in BENCHMARK.json runs RUNS times for run_seconds; run i
uses seed seed0 + i.  The exit code is 1 unless every run reports correct
results with the same share of failed operations, and every spread,
setup_s's included, stays within its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(RUNS):
            res = run_once(workload, args.seed0 + i, bench["run_seconds"])
            results.append(res)
            print("  %s seed %d: %s" % (workload, args.seed0 + i, json.dumps(
                {k: round(v["value"], 4) for k, v in res["metrics"].items()})),
                flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for r in results)
        print("%s: %d runs, correct=%s, failed/attempted=%s"
              % (workload, len(results), correct, sorted(shares)))
        if not correct or len(ratios) != 1:
            steady = False
        print("  %-14s %10s %10s %10s %8s %6s" % ("metric", "median", "q1", "q3",
                                                  "spread", "bound"))
        for name in bounds:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            if spread > bounds[name]:
                steady = False
            print("  %-14s %10.4f %10.4f %10.4f %8.3f %6.2f%s"
                  % (name, med, q1, q3, spread, bounds[name], flag))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
