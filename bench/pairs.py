#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload with alternating runs.

    python3 bench/pairs.py PARENT_DIR CHANGE_DIR --workload nested-standard \\
        --seed 1 --pairs 10 --seconds 10

Each pair runs `python3 perfbench/run.py --trace 0` once in each checkout,
the parent first in odd pairs and the change first in even ones, so slow
stretches on a shared host fall on both sides alike. Each checkout builds
itself (into its own .bench_build/) before its first timed run.

For every end-to-end metric that CHANGE_DIR/BENCHMARK.json declares, the
report lists each pair, the median/min/max per side, the interquartile
range of the parent's runs and the number of pairs the change won (ties
count for neither side), then a one-line verdict:

  gain              the change won at least 9/10 of the pairs and its
                    median beats the parent's by more than the parent's
                    interquartile range;
  worse than bound  the change's median is worse than the parent's by
                    more than the metric's relative `bound`;
  within bound      neither, and the parent's interquartile range is
                    within the bound (or every change run beat every
                    parent run);
  unresolved        neither, and the runs spread wider than the bound.

A run that fails, answers wrongly or fails a query stops the comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("pairs: %s exited %d\n%s" % (checkout, proc.returncode,
                                              proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] > 0:
        sys.exit("pairs: %s: correct=%s, %d of %d queries failed"
                 % (checkout, result["correct"], result["failed"],
                    result["attempted"]))
    return result["metrics"]


def quartile_spread(xs):
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def verdict(parent, change, wins, bound, lower):
    """The metric's verdict by the rule in the module docstring."""
    pm, cm = statistics.median(parent), statistics.median(change)
    spread = quartile_spread(parent)
    gap = pm - cm if lower else cm - pm  # positive: the change is better
    if wins * 10 >= 9 * len(parent) and gap > spread:
        return "gain"
    allowed = bound * abs(pm)
    if -gap > allowed:
        return "worse than bound"
    all_better = (max(change) < min(parent) if lower
                  else min(change) > max(parent))
    if spread > allowed and not all_better:
        return "unresolved"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_DIR")
    ap.add_argument("change", metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        sys.exit("pairs: --pairs must be >= 1 and --seconds > 0")
    for d in (args.parent, args.change):
        if not os.path.isfile(os.path.join(d, "perfbench", "run.py")):
            sys.exit("pairs: %s has no perfbench/run.py" % d)
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args))
        print("pair %d/%d done (%s first)" % (i + 1, args.pairs, order[0]),
              file=sys.stderr, flush=True)

    print("workload %s, seed %d, %d pairs of %g s runs"
          % (args.workload, args.seed, args.pairs, args.seconds))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        print("\n%s (%s, %s is better)" % (name, m["unit"], m["better"]))
        print("  pair  first    parent      change")
        wins = 0
        for i, (p, c) in enumerate(zip(parent, change)):
            first = "parent" if i % 2 == 0 else "change"
            won = c < p if lower else c > p
            wins += won
            print("  %4d  %-6s  %10.4f  %10.4f%s"
                  % (i + 1, first, p, c, "  *" if won else ""))
        for side, xs in (("parent", parent), ("change", change)):
            print("  %s: median %.4f  min %.4f  max %.4f"
                  % (side, statistics.median(xs), min(xs), max(xs)))
        print("  parent interquartile range %.4f" % quartile_spread(parent))
        print("  change better in %d/%d pairs" % (wins, args.pairs))
        print("  verdict: %s (bound %g of the parent's median)"
              % (verdict(parent, change, wins, m["bound"], lower), m["bound"]))


if __name__ == "__main__":
    main()
