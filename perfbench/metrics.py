"""Metric definitions and the summarizer that turns the benchmark binary's raw samples
into the reported metrics.

The C++ benchmark binary (perfbench/src) records one value per timed operation; every
statistic is computed here, so the self-tests in perfbench/tests cover all
of them. Names and units must match BENCHMARK.json (a self-test checks).
Every run reports every metric of its kind: an untraced run all the
end-to-end metrics, a traced run all the per-layer ones. An end-to-end
metric names a role — the workload's write, its read — and each workload
says which of its operations plays it (ROLES).
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A tail percentile is reported only with at least this many samples
# strictly beyond it (p99 needs 1000 samples, p90 needs 100).
MIN_TAIL_SAMPLES = 10

INGEST, DURABILITY = "ingest_monitor", "checkpoint_resume"
ALL = (INGEST, DURABILITY)

# Each workload's raw samples behind the end-to-end roles:
#   setup  one sample per set-up repetition;
#   write  ingest_monitor: one feed write over TCP (an order's INSERTs, or
#          its DELETEs or UPDATEs by key); checkpoint_resume: CHECKPOINT;
#   read   ingest_monitor: one COUNT(DISTINCT ...) or EXPLAIN REPAIR over
#          TCP; checkpoint_resume: Resume on a fresh service.
ROLES = {
    INGEST: {"setup": "setup_s.ingest", "write": "write_ms", "read": "read_ms"},
    DURABILITY: {"setup": "setup_s.durability", "write": "checkpoint_ms",
                 "read": "resume_ms"},
}

# Unattributed time above this share of a phase's traced end-to-end time
# is flagged (at least 90% of wall time must sit inside a layer span).
UNATTRIBUTED_FLAG = 0.10

# Root spans of the durability path's traced operations (the unrolled
# checkpoint and resume, which are that run's end-to-end samples): their
# self time is what no layer span accounts for.
DURABILITY_ROOTS = ("durability.checkpoint", "durability.resume")

# Workloads whose traced run replaces timed operations with unrolled ones
# and interleaves them with the real operations ("untraced.<name>"
# samples), by the samples compared. Their overhead ratio outside
# OVERHEAD_LIMITS means the unrolled path does not do what the real one
# does; run.py counts it as a failed check.
INTERLEAVED = {DURABILITY: ("checkpoint_ms", "resume_ms")}
OVERHEAD_LIMITS = (0.8, 1.25)


class TailTooThin(ValueError):
    """A percentile was asked of fewer samples than its tail needs."""


def percentile(values, p):
    """Linear-interpolated percentile p in [0, 1].

    Refuses (TailTooThin) a tail percentile (p > 0.5) with fewer than
    MIN_TAIL_SAMPLES samples beyond it, and any percentile of no samples.
    """
    n = len(values)
    if n == 0:
        raise TailTooThin("no samples")
    if p > 0.5:
        beyond = math.floor(n * (1.0 - p) + 1e-9)
        if beyond < MIN_TAIL_SAMPLES:
            raise TailTooThin(
                "p%g of %d samples has %d beyond it, needs %d"
                % (p * 100, n, beyond, MIN_TAIL_SAMPLES))
    ordered = sorted(values)
    pos = p * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _samples(raw, name):
    return raw.get("samples", {}).get(name) or raw.get("spans_us", {}).get(name) or []


def _pct(name, p):
    return lambda raw: percentile(_samples(raw, name), p)


def _scalar(name):
    def get(raw):
        if name not in raw.get("scalars", {}):
            raise TailTooThin("scalar %s missing" % name)
        return raw["scalars"][name]
    return get


def _role(role, p):
    return lambda raw: percentile(_samples(raw, ROLES[raw["workload"]][role]), p)


def _ratio(num, den):
    def get(raw):
        scalars = raw.get("scalars", {})
        return scalars.get(num, 0.0) / max(scalars.get(den, 0.0), 1.0)
    return get


def _difference(a, b):
    return lambda raw: a(raw) - b(raw)


def _unattributed(raw):
    """Share of the traced end-to-end time that no layer span accounts for.

    ingest_monitor: the in-process loop's served writes (Service::ExecuteLine
    under the three-session mix) against the layer spans of the same
    statements replayed single-session; lock wait, journal and push stay
    unattributed. checkpoint_resume: the unrolled operations' root spans
    against their child spans.
    """
    if raw["workload"] == INGEST:
        scalars = raw.get("scalars", {})
        total = scalars.get("trace.served_us", 0.0)
        attributed = scalars.get("trace.attributed_us", 0.0)
    else:
        roots = raw.get("roots_us", {})
        total = sum(roots.get(r, {}).get("total", 0.0) for r in DURABILITY_ROOTS)
        attributed = total - sum(roots.get(r, {}).get("self", 0.0)
                                 for r in DURABILITY_ROOTS)
    if total <= 0:
        raise TailTooThin("no traced end-to-end time")
    return (total - attributed) / total


# (name, unit, better, bound, extractor). Untraced runs report these.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, _role("setup", 0.50)),
    ("write_ms_p50", "ms", "lower", 0.25, _role("write", 0.50)),
    ("read_ms_p50", "ms", "lower", 0.25, _role("read", 0.50)),
    ("snapshot_bytes_per_row", "B/row", "lower", 0.1,
     _pct("snapshot_bytes_per_row", 0.50)),
]

# (name, unit, better, extractor). Traced runs report these.
PER_LAYER = [
    ("server.service_us_p50", "us", "lower", _pct("server.service_us", 0.50)),
    ("server.service_us_p99", "us", "lower", _pct("server.service_us", 0.99)),
    ("server.wire_us_p50", "us", "lower",
     _difference(_pct("server.probe_rtt_us", 0.50),
                 _pct("server.probe_service_us", 0.50))),
    ("server.overhead_us_p50", "us", "lower",
     _difference(_pct("server.service_insert_us", 0.50),
                 _pct("replay.insert_layers_us", 0.50))),
    ("sql.parse_us_p50", "us", "lower", _pct("sql.parse", 0.50)),
    ("sql.insert_us_p50", "us", "lower", _pct("sql.insert", 0.50)),
    ("sql.mutate_us_p50", "us", "lower", _pct("sql.mutate", 0.50)),
    ("sql.mutate_us_p99", "us", "lower", _pct("sql.mutate", 0.99)),
    ("sql.mutate_rows_scanned_per_match", "ratio", "lower",
     _ratio("sql.rows_scanned", "sql.rows_matched")),
    ("sql.count_us_p50", "us", "lower", _pct("sql.count", 0.50)),
    ("relation.compact_ms_p50", "ms", "lower", _pct("relation.compact_ms", 0.50)),
    ("relation.bytes_per_live_row", "B/row", "lower",
     _scalar("relation.bytes_per_live_row")),
    ("relation.first_write_after_resume_ms_p50", "ms", "lower",
     _pct("relation.first_write_after_resume_ms", 0.50)),
    ("query.group_by_ms_p50", "ms", "lower", _pct("query.group_by_ms", 0.50)),
    ("fd.monitor_poll_us_p50", "us", "lower", _pct("fd.poll", 0.50)),
    ("fd.monitor_poll_us_p99", "us", "lower", _pct("fd.poll", 0.99)),
    ("fd.sampled_poll_us_p50", "us", "lower", _pct("fd.sampled_poll", 0.50)),
    ("fd.sampled_poll_us_p99", "us", "lower", _pct("fd.sampled_poll", 0.99)),
    ("fd.checks_run", "count", "lower", _scalar("fd.checks_run")),
    ("fd.monitor_restore_ms_p50", "ms", "lower",
     _pct("fd.monitor_restore_ms", 0.50)),
    ("storage.serialize_ms_p50", "ms", "lower",
     _pct("storage.serialize_ms", 0.50)),
    ("storage.write_ms_p50", "ms", "lower", _pct("storage.write_ms", 0.50)),
    ("storage.deserialize_ms_p50", "ms", "lower",
     _pct("storage.deserialize_ms", 0.50)),
    ("storage.snapshot_bytes", "B", "lower", _pct("storage.snapshot_bytes", 0.50)),
    ("trace.unattributed_share", "ratio", "lower", _unattributed),
]

# Computed by run.py from a traced and an untraced run of the same seed.
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio", "lower")

WORKLOADS = [
    (INGEST,
     "data-feed path over TCP: server, sql, relation appends/tombstones and "
     "the incremental fd monitor do the work"),
    (DURABILITY,
     "durability path: storage serialization and I/O, monitor restore and "
     "GroupBy re-materialization do the work"),
]


def metric_names(trace):
    """The metrics every run of the kind reports, in declaration order."""
    if trace:
        return [m[0] for m in PER_LAYER] + [OVERHEAD_METRIC[0]]
    return [m[0] for m in END_TO_END]


def summarize(raw, trace):
    """Turns a raw binary result into (metrics, attempted, failed, notes).

    Every metric the summarizer cannot compute (a thin tail, a missing
    sample list) counts as one failed operation on top of the binary's own
    failures, so a result is never silently incomplete.
    """
    attempted = int(raw.get("attempted", 0))
    failed = int(raw.get("failed", 0))
    notes = list(raw.get("failures", []))
    metrics = {}
    for entry in PER_LAYER if trace else END_TO_END:
        name, unit, extract = entry[0], entry[1], entry[-1]
        attempted += 1
        try:
            value = float(extract(raw))
            if not math.isfinite(value):
                raise TailTooThin("not finite")
        except (TailTooThin, ZeroDivisionError) as e:
            failed += 1
            notes.append("%s: %s" % (name, e))
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics, attempted, failed, notes


def unattributed_flag(metrics):
    """True when more than 10% of the traced time is outside every span."""
    share = metrics.get("trace.unattributed_share")
    return share is not None and share["value"] > UNATTRIBUTED_FLAG


def overhead_ok(ratio):
    return OVERHEAD_LIMITS[0] <= ratio <= OVERHEAD_LIMITS[1]


def overhead_ratio(traced_raw, traced, untraced):
    """Tracing overhead as (ratio, gated).

    For an INTERLEAVED workload: the median, over its compared samples, of
    the traced run's unrolled p50 over its interleaved real p50; gated.
    Otherwise the measured operations run before any span is recorded, and
    the ratio is the median traced/untraced ratio over the end-to-end
    latency metrics of the two runs, which shows only the host's drift
    between them; not gated.
    """
    names = INTERLEAVED.get(traced_raw["workload"])
    if names:
        ratios = [percentile(_samples(traced_raw, n), 0.5)
                  / percentile(_samples(traced_raw, "untraced." + n), 0.5)
                  for n in names]
        return statistics.median(ratios), True
    ratios = []
    for name, unit, _, _, _ in END_TO_END:
        if unit not in ("us", "ms") or name not in traced or name not in untraced:
            continue
        base = untraced[name]["value"]
        if base > 0:
            ratios.append(traced[name]["value"] / base)
    if not ratios:
        raise TailTooThin("no comparable latency metrics")
    return statistics.median(ratios), False
