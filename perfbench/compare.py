#!/usr/bin/env python3
"""Compares a result set with the previous committed one.

    python3 perfbench/compare.py                 # newest two sets in results/
    python3 perfbench/compare.py OLD.json NEW.json

For every workload and end-to-end metric it prints each side's median and
quartiles and a verdict:

  gain        the new side wins at least 9 of every 10 paired runs (paired
              by seed when both sides ran the same seeds, else in run
              order; ties count for neither) and the medians differ by
              more than the old side's own interquartile distance;
  regression  the new median is worse than the old one by more than the
              metric's bound from BENCHMARK.json;
  unresolved  the old side's own spread is wider than the bound and the
              new runs do not all beat the old ones;
  within      none of the above.

Sets from hosts with a different usable core count, kernel tier or build
type are refused (exit 3): their numbers are not comparable.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
PROVENANCE_KEYS = ("nproc", "kernel_tier_selected", "build_type")


def load(path):
    with open(path) as f:
        return json.load(f)


def host_signature(result_set):
    sigs = {tuple(r["provenance"].get(k) for k in PROVENANCE_KEYS)
            for r in result_set["runs"]}
    return sigs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(old, new):
    """Seed-matched pairs when both sides ran the same seeds, else pairs in
    run order."""
    if set(old) == set(new):
        return [(old[s], new[s]) for s in sorted(old)]
    return list(zip(old.values(), new.values()))


def verdict(old, new, better, bound):
    """old/new: seed -> value, in run order. Returns the verdict string."""
    sign = 1.0 if better == "higher" else -1.0
    paired = pairs(old, new)
    wins = sum(1 for o, n in paired if sign * (n - o) > 0)
    old_vals, new_vals = list(old.values()), list(new.values())
    o1, om, o3 = quartiles(old_vals)
    _, nm, _ = quartiles(new_vals)
    if paired and wins >= 0.9 * len(paired) and abs(nm - om) > (o3 - o1):
        return "gain"
    if om and sign * (nm - om) / abs(om) < -bound:
        return "regression"
    all_better = all(sign * (n - o) > 0 for n in new_vals for o in old_vals)
    if om and (o3 - o1) / abs(om) > bound and not all_better:
        return "unresolved"
    return "within"


def compare(old_set, new_set, bench):
    specs = {m["name"]: m for m in bench["end_to_end"]}
    rows = []
    workloads = sorted({r["workload"] for r in new_set["runs"]})
    for workload in workloads:
        for name, spec in specs.items():
            old = {r["seed"]: r["metrics"][name]["value"] for r in old_set["runs"]
                   if r["workload"] == workload and name in r["metrics"]}
            new = {r["seed"]: r["metrics"][name]["value"] for r in new_set["runs"]
                   if r["workload"] == workload and name in r["metrics"]}
            if not old or not new:
                continue
            rows.append((workload, name, quartiles(list(old.values())),
                         quartiles(list(new.values())),
                         verdict(old, new, spec["better"], spec["bound"])))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args()
    if args.old is None:
        sets = sorted(glob.glob(os.path.join(RESULTS, "*.json")))
        if len(sets) < 2:
            raise SystemExit("need two result sets in %s" % RESULTS)
        args.old, args.new = sets[-2], sets[-1]
    old_set, new_set = load(args.old), load(args.new)
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))

    old_sig, new_sig = host_signature(old_set), host_signature(new_set)
    if old_sig != new_sig or len(old_sig) != 1:
        print("provenance differs (%s): old %s, new %s; refusing to compare"
              % ("/".join(PROVENANCE_KEYS), sorted(old_sig), sorted(new_sig)))
        return 3
    print("old: %s (%s)\nnew: %s (%s)" % (os.path.basename(args.old),
                                          old_set.get("label"),
                                          os.path.basename(args.new),
                                          new_set.get("label")))
    print("%-18s %-24s %30s %30s  %s" % ("workload", "metric", "old q1/median/q3",
                                         "new q1/median/q3", "verdict"))
    regressions = 0
    for workload, name, (o1, om, o3), (n1, nm, n3), v in compare(old_set, new_set, bench):
        regressions += v == "regression"
        print("%-18s %-24s %9.4g/%9.4g/%9.4g %9.4g/%9.4g/%9.4g  %s"
              % (workload, name, o1, om, o3, n1, nm, n3, v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
