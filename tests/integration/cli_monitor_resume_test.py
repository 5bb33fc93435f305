#!/usr/bin/env python3
"""Checkpoint/resume identity for `fdevolve_cli monitor`.

Streams a small generated CSV through the CLI's monitor mode twice per
monitoring mode (exact, and reservoir-sampled with --sample/--seed):

  * uninterrupted, start to end;
  * cut with --stop-after + --snapshot, then continued with --resume.

The resumed run must print exactly the drift lines and final per-FD
summary of the uninterrupted one: the checkpoint carries the relation, the
FDs, the drift log, the interval position and (sampled) the reservoir, so
the two halves together replay the identical check sequence.

Usage: python3 cli_monitor_resume_test.py <fdevolve_cli> exact|sampled
Exits non-zero on the first mismatch (CTest registers one case per mode).
"""

import os
import subprocess
import sys
import tempfile

ROWS = 240
FLAGS = ["--check-interval=10", "--initial=20"]
MODE_FLAGS = {"exact": [], "sampled": ["--sample=16", "--seed=7"]}
FDS = ["a -> b", "a -> c", "b -> c"]


def write_csv(path):
    """a cycles over 12 keys; a -> b breaks at row 100, a -> c at row 170,
    and b -> c breaks once b stops determining a."""
    with open(path, "w") as f:
        f.write("a:int,b:int,c:int\n")
        for i in range(ROWS):
            a = i % 12
            b = a * 3 if i < 100 else a * 3 + (i % 5)
            c = a + 100 if i < 170 else a + 100 + (i % 3)
            f.write("%d,%d,%d\n" % (a, b, c))


def run(cli, args):
    proc = subprocess.run([cli, "monitor"] + args, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit("fdevolve_cli monitor %s failed (%d):\n%s%s" %
                 (" ".join(args), proc.returncode, proc.stdout, proc.stderr))
    return proc.stdout.splitlines()


def drift_lines(lines):
    return [l for l in lines if l.startswith("drift @ ")]


def summary(lines):
    """The "Drift events: N" line and the per-FD lines after it."""
    for i, l in enumerate(lines):
        if l.startswith("Drift events: "):
            out = [l]
            for rest in lines[i + 1:]:
                if not rest.startswith("  FD#"):
                    break
                out.append(rest)
            return out
    sys.exit("no summary in output:\n" + "\n".join(lines))


def expect_equal(what, got, want):
    if got != want:
        sys.exit("%s differ\n--- uninterrupted\n%s\n--- resumed\n%s" %
                 (what, "\n".join(want), "\n".join(got)))


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in MODE_FLAGS:
        sys.exit(__doc__)
    cli, mode = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "stream.csv")
        ckpt = os.path.join(tmp, "stream.fdev")
        write_csv(csv)
        base = [csv] + FDS + FLAGS + MODE_FLAGS[mode]

        full = run(cli, base)
        if not drift_lines(full):
            sys.exit("fixture produced no drift events:\n" + "\n".join(full))

        first = run(cli, base + ["--stop-after=150", "--snapshot=" + ckpt])
        if not any(l.startswith("Stopped at tuple ") for l in first):
            sys.exit("--stop-after did not cut the stream:\n" +
                     "\n".join(first))
        second = run(cli, [csv, "--resume=" + ckpt])

        expect_equal("drift lines", drift_lines(first) + drift_lines(second),
                     drift_lines(full))
        expect_equal("final summaries", summary(second), summary(full))
    print("cli monitor resume (%s): identical" % mode)


if __name__ == "__main__":
    main()
