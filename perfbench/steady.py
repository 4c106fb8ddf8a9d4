#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--reps 10] [--sets 2] [--workload NAME]

Runs SETS sets of REPS runs of every workload (or of NAME alone), each run
with its own seed, alternating the workload order between repetitions.
For each set it prints every end-to-end metric's median, quartiles and
quartile spread (IQR / median) against its bound in BENCHMARK.json, and
marks a spread above a third of the bound. It fails (exit 1) when

  - a spread exceeds its bound (setup_s excepted: one cold set-up per
    run is noisy, and only its median is compared),
  - the share of failed operations differs between any two runs of a
    workload, or
  - a metric's median in a later set, setup_s included, is worse than in
    the first set by more than its bound.

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d failed (exit %d):\n%s"
                 % (workload, seed, out.returncode, out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workload", default=None)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = ([args.workload] if args.workload
             else [w["name"] for w in bench["workloads"]])
    ok = True
    shares = {w: set() for w in names}
    medians = []  # Per set: {(workload, metric): median}.
    for s in range(args.sets):
        values = {w: {} for w in names}
        for rep in range(args.reps):
            order = names if rep % 2 == 0 else list(reversed(names))
            for w in order:
                seed = 1 + s * args.reps + rep
                res = run(bench, w, seed)
                if not res["correct"]:
                    sys.exit("%s seed %d: outputs incorrect" % (w, seed))
                shares[w].add(res["failed"] / res["attempted"])
                for k, v in res["metrics"].items():
                    values[w].setdefault(k, []).append(v["value"])
        medians.append({})
        print("== set %d (seeds %d-%d)" % (s + 1, 1 + s * args.reps,
                                           (s + 1) * args.reps))
        for w in names:
            print("-- %s" % w)
            for m in bench["end_to_end"]:
                vs = values[w][m["name"]]
                q1, med, q3 = statistics.quantiles(vs, n=4)
                medians[s][(w, m["name"])] = med
                spread = (q3 - q1) / med
                flag = ""
                if spread > m["bound"] / 3:
                    flag = "  above bound/3"
                if spread > m["bound"] and m["name"] != "setup_s":
                    flag = "  ABOVE BOUND"
                    ok = False
                print("  %-16s median %12.4f  q1 %12.4f  q3 %12.4f  "
                      "spread %.4f (bound %.2f)%s"
                      % (m["name"], med, q1, q3, spread, m["bound"], flag))
    for w in names:
        print("failed share %s: %s" % (w, sorted(shares[w])))
        if len(shares[w]) != 1:
            ok = False
    for s in range(1, args.sets):
        print("== set %d against set 1 (positive: worse)" % (s + 1))
        for w in names:
            for m in bench["end_to_end"]:
                a, b = medians[0][(w, m["name"])], medians[s][(w, m["name"])]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = ""
                if worse > m["bound"]:
                    flag = "  WORSE THAN BOUND"
                    ok = False
                print("  %-10s %-16s %+.4f (bound %.2f)%s"
                      % (w, m["name"], worse, m["bound"], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
