#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark and prints its result.

    python3 perfbench/run.py --workload ingest_monitor --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (and through it the
repository's modules) from source into $CARGO_TARGET_DIR or .bench_build,
runs the benchmark binary, checks its outputs and prints, as the last line of
standard output, one JSON object: {"correct", "attempted", "failed",
"metrics"}. The line before it carries the run's provenance. --trace 1
reports the per-layer metrics instead of the end-to-end ones; it runs the
workload untraced first, with the same seed, to measure tracing overhead,
and counts a traced run whose unrolled operations stray outside
metrics.OVERHEAD_LIMITS of the real ones as a failed check. Exits non-zero
on any failed operation or check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

ROOT = os.path.dirname(HERE)
BINARY = "fdevolve_perfbench"
# A run must end within 180 s; a traced run starts the binary twice.
RUN_BUDGET_S = 175


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        raise RuntimeError("repository sources not found at " + ROOT)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", BINARY, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, BINARY)


def run_binary(binary, workload, seed, seconds, trace, deadline):
    out = build_dir()
    raw_dir = os.path.join(out, "raw")
    tmp_dir = os.path.join(out, "tmp")
    os.makedirs(raw_dir, exist_ok=True)
    os.makedirs(tmp_dir, exist_ok=True)
    raw_path = os.path.join(raw_dir, "%s-%d-%d.json" % (workload, seed, trace))
    if os.path.exists(raw_path):
        os.remove(raw_path)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", raw_path, "--tmp", tmp_dir]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if not os.path.isfile(raw_path):
        raise RuntimeError("benchmark binary exited %d without a result" % proc.returncode)
    with open(raw_path) as f:
        raw = json.load(f)
    if proc.returncode != 0 and int(raw.get("failed", 0)) == 0:
        raw["failed"] = 1
        raw.setdefault("failures", []).append("benchmark binary exit code %d" % proc.returncode)
    return raw


def source_hash():
    """Digest of the sources the benchmark binary is built from (a checkout handed
    to the benchmark need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src")):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(raw, args):
    info = raw.get("info", {})
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "kernel_tier_detected": info.get("kernel_tier_detected"),
        "kernel_tier_selected": info.get("kernel_tier_selected"),
        "build_type": info.get("build_type"),
        "git_commit": git_commit(),
        "source_hash": source_hash(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w for w, _ in metrics.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        deadline = time.monotonic() + RUN_BUDGET_S
        untraced = run_binary(binary, args.workload, args.seed, args.seconds, 0,
                              deadline)
        traced = (run_binary(binary, args.workload, args.seed, args.seconds, 1,
                             deadline)
                  if args.trace else None)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("no result: %s" % e)
        return 2

    e2e, attempted, failed, notes = metrics.summarize(untraced, trace=False)
    result_metrics = e2e
    prov = provenance(untraced, args)
    if traced is not None:
        layers, t_attempted, t_failed, t_notes = metrics.summarize(traced, trace=True)
        traced_e2e, _, _, _ = metrics.summarize(traced, trace=False)
        attempted += t_attempted
        failed += t_failed
        notes += t_notes
        name, unit, _ = metrics.OVERHEAD_METRIC
        attempted += 1
        try:
            ratio, gated = metrics.overhead_ratio(traced, traced_e2e, e2e)
            layers[name] = {"value": ratio, "unit": unit}
            if gated and not metrics.overhead_ok(ratio):
                failed += 1
                notes.append("%s: %.3f is outside %s; the unrolled operations "
                             "do not do what the real ones do"
                             % (name, ratio, metrics.OVERHEAD_LIMITS))
        except metrics.TailTooThin as e:
            failed += 1
            notes.append("%s: %s" % (name, e))
        flagged = metrics.unattributed_flag(layers)
        if flagged:
            log("FLAG trace.unattributed_share = %.3f exceeds %.2f" % (
                layers["trace.unattributed_share"]["value"],
                metrics.UNATTRIBUTED_FLAG))
        prov["unattributed_over_limit"] = flagged
        prov["traced_end_to_end"] = {k: v["value"] for k, v in traced_e2e.items()}
        result_metrics = layers

    for note in notes:
        log("FAILED " + note)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
