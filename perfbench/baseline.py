#!/usr/bin/env python3
"""Records a result set: every workload run once per seed through run.py,
plus optional traced runs, written to one JSON file.

    python3 perfbench/baseline.py --label a --seeds 1-10 \
        --out perfbench/results/0001-a.json [--trace-seed 1]

Prints, per workload and end-to-end metric, the median and the spread
(interquartile distance as a share of the median) against a third of the
metric's bound — the steadiness the benchmark must keep. Compare two sets
with compare.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d trace %d (exit %d)"
                         % (workload, seed, trace, proc.returncode))
    prov = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "provenance": prov, **result}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w for w, _ in metrics.WORKLOADS))
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs, traces = [], []
    for seed in seeds:
        for workload in workloads:
            runs.append(run_once(workload, seed, seconds, 0))
            print("ran %s seed %d" % (workload, seed), file=sys.stderr, flush=True)
    if args.trace_seed is not None:
        for workload in workloads:
            traces.append(run_once(workload, args.trace_seed, seconds, 1))

    out = {"label": args.label, "seconds": seconds, "seeds": seeds,
           "runs": runs, "traces": traces}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")

    worst = 0.0
    print("%-18s %-24s %12s %8s %8s" % ("workload", "metric", "median", "spread", "bound/3"))
    for workload in workloads:
        for name in metrics.metric_names(trace=False):
            values = [r["metrics"][name]["value"] for r in runs
                      if r["workload"] == workload]
            if len(values) < 2:
                continue
            med, sp = spread(values)
            limit = bounds[name] / 3
            mark = "" if name == "setup_s" or sp < limit else "  <-- unsteady"
            if name != "setup_s":
                worst = max(worst, sp / limit)
            print("%-18s %-24s %12.4g %8.3f %8.3f%s"
                  % (workload, name, med, sp, limit, mark))
    print("worst spread / (bound/3): %.2f" % worst)


if __name__ == "__main__":
    main()
