"""Self-tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import compare  # noqa: E402
import metrics  # noqa: E402

ROOT = os.path.dirname(BENCH_DIR)
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SAMPLE_NAMES = [
    "write_ms", "read_ms", "checkpoint_ms", "resume_ms",
    "snapshot_bytes_per_row",
    "server.service_us", "server.service_insert_us", "replay.insert_layers_us",
    "server.probe_rtt_us", "server.probe_service_us",
    "sql.parse", "sql.insert", "sql.mutate", "sql.count",
    "relation.compact_ms", "relation.first_write_after_resume_ms",
    "query.group_by_ms", "fd.poll", "fd.sampled_poll", "fd.monitor_restore_ms",
    "storage.serialize_ms", "storage.write_ms", "storage.deserialize_ms",
    "storage.snapshot_bytes",
]
SETUP_SAMPLES = [roles["setup"] for roles in metrics.ROLES.values()]
SCALAR_NAMES = [
    "sql.rows_scanned", "sql.rows_matched",
    "relation.bytes_per_live_row", "fd.checks_run",
]


def complete_raw(workload, n=1000, attempted=7, failed=0):
    raw = {"workload": workload, "attempted": attempted, "failed": failed,
           "failures": [],
           "samples": {name: [float(i + 1) for i in range(n)]
                       for name in SAMPLE_NAMES},
           "scalars": dict({name: 3.0 for name in SCALAR_NAMES},
                           **{"trace.served_us": 100.0,
                              "trace.attributed_us": 95.0}),
           "roots_us": {root: {"total": 100.0, "self": 5.0}
                        for root in metrics.DURABILITY_ROOTS}}
    for name in SETUP_SAMPLES:
        raw["samples"][name] = [1.0, 2.0, 3.0]
    return raw


class PercentileTest(unittest.TestCase):
    def test_interpolates(self):
        self.assertEqual(metrics.percentile([5, 1, 3, 2, 4], 0.5), 3)
        self.assertAlmostEqual(metrics.percentile([0.0, 10.0], 0.5), 5.0)

    def test_refuses_thin_p99_tail(self):
        with self.assertRaises(metrics.TailTooThin):
            metrics.percentile(list(range(999)), 0.99)
        self.assertEqual(metrics.percentile(list(range(1000)), 0.99), 989.01)

    def test_refuses_thin_p90_tail(self):
        with self.assertRaises(metrics.TailTooThin):
            metrics.percentile(list(range(99)), 0.90)
        metrics.percentile(list(range(100)), 0.90)

    def test_refuses_no_samples(self):
        with self.assertRaises(metrics.TailTooThin):
            metrics.percentile([], 0.5)


class NamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_names_are_well_formed_and_unique(self):
        names = [m[0] for m in metrics.END_TO_END + metrics.PER_LAYER]
        names.append(metrics.OVERHEAD_METRIC[0])
        for name in names:
            self.assertRegex(name, metrics.NAME_RE)
            self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
        self.assertEqual(len(names), len(set(names)))
        for w, why in metrics.WORKLOADS:
            self.assertRegex(w, metrics.NAME_RE)
            self.assertLessEqual(len(why), 200)

    def test_every_workload_plays_every_role(self):
        self.assertEqual(sorted(metrics.ROLES), sorted(w for w, _ in metrics.WORKLOADS))
        for roles in metrics.ROLES.values():
            self.assertEqual(sorted(roles), ["read", "setup", "write"])
        self.assertIn("setup_s", metrics.metric_names(trace=False))
        self.assertIn(metrics.OVERHEAD_METRIC[0], metrics.metric_names(trace=True))

    def test_end_to_end_matches_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"], m["bound"])
                    for m in self.bench["end_to_end"]]
        self.assertEqual(declared, [m[:4] for m in metrics.END_TO_END])
        for _, unit, better, bound in declared:
            self.assertRegex(unit, UNIT_RE)
            self.assertIn(better, ("lower", "higher"))
            self.assertLessEqual(bound, 0.25)
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s",
                                  "better": "lower",
                                  "bound": max(m["bound"] for m in
                                               self.bench["end_to_end"])}])

    def test_per_layer_matches_benchmark_json(self):
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.bench["per_layer"]]
        expected = [m[:3] for m in metrics.PER_LAYER] + [metrics.OVERHEAD_METRIC]
        self.assertEqual(declared, expected)
        for _, unit, _ in declared:
            self.assertRegex(unit, UNIT_RE)

    def test_benchmark_json_shape(self):
        self.assertEqual(sorted(self.bench), sorted(
            ["command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"]))
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         [w for w, _ in metrics.WORKLOADS])
        whys = dict(metrics.WORKLOADS)
        for w in self.bench["workloads"]:
            self.assertEqual(w["why"], whys[w["name"]])
        self.assertIsInstance(self.bench["run_seconds"], int)
        self.assertTrue(1 <= self.bench["run_seconds"] <= 60)

    def test_every_workload_reports_every_metric(self):
        for workload, _ in metrics.WORKLOADS:
            for trace in (False, True):
                got, _, failed, _ = metrics.summarize(complete_raw(workload), trace)
                self.assertEqual(failed, 0)
                expected = metrics.metric_names(trace)
                if trace:
                    expected.remove(metrics.OVERHEAD_METRIC[0])  # run.py adds it
                self.assertEqual(sorted(got), sorted(expected))

    def test_roles_read_the_workloads_own_samples(self):
        raw = complete_raw(metrics.DURABILITY)
        raw["samples"]["checkpoint_ms"] = [7.0] * 200
        raw["samples"]["resume_ms"] = [9.0] * 200
        got, _, _, _ = metrics.summarize(raw, trace=False)
        self.assertEqual(got["write_ms_p50"]["value"], 7.0)
        self.assertEqual(got["read_ms_p50"]["value"], 9.0)
        raw["workload"] = metrics.INGEST
        got, _, _, _ = metrics.summarize(raw, trace=False)
        self.assertEqual(got["write_ms_p50"]["value"], 500.5)
        self.assertEqual(got["setup_s"]["value"], 2.0)


class FailureCountingTest(unittest.TestCase):
    def test_binary_counts_pass_through(self):
        _, attempted, failed, _ = metrics.summarize(
            complete_raw(metrics.INGEST, attempted=7, failed=2), trace=False)
        self.assertEqual(attempted, 7 + len(metrics.metric_names(False)))
        self.assertEqual(failed, 2)

    def test_each_missing_metric_is_one_failure(self):
        raw = complete_raw(metrics.INGEST, attempted=7, failed=0)
        raw["samples"]["write_ms"] = []
        got, attempted, failed, notes = metrics.summarize(raw, trace=False)
        self.assertEqual(attempted, 7 + len(metrics.metric_names(False)))
        self.assertEqual(failed, 1)
        self.assertNotIn("write_ms_p50", got)
        self.assertIn("read_ms_p50", got)
        self.assertEqual(len(notes), 1)
        del raw["samples"]["snapshot_bytes_per_row"]
        _, _, failed, _ = metrics.summarize(raw, trace=False)
        self.assertEqual(failed, 2)

    def test_a_thin_per_layer_tail_is_one_failure(self):
        raw = complete_raw(metrics.INGEST)
        raw["samples"]["sql.mutate"] = raw["samples"]["sql.mutate"][:999]
        got, _, failed, _ = metrics.summarize(raw, trace=True)
        self.assertEqual(failed, 1)  # sql.mutate_us_p99; p50 still computable
        self.assertNotIn("sql.mutate_us_p99", got)
        self.assertIn("sql.mutate_us_p50", got)

    def test_a_workload_missing_another_workloads_metric_fails(self):
        raw = complete_raw(metrics.DURABILITY)
        del raw["samples"]["server.probe_rtt_us"]
        got, _, failed, _ = metrics.summarize(raw, trace=True)
        self.assertEqual(failed, 1)
        self.assertNotIn("server.wire_us_p50", got)

    def test_unattributed_flag_on_root_self_time(self):
        raw = complete_raw(metrics.DURABILITY)
        got, _, _, _ = metrics.summarize(raw, trace=True)
        self.assertFalse(metrics.unattributed_flag(got))
        raw["roots_us"]["durability.resume"] = {"total": 100.0, "self": 60.0}
        got, _, _, _ = metrics.summarize(raw, trace=True)
        self.assertAlmostEqual(got["trace.unattributed_share"]["value"], 0.325)
        self.assertTrue(metrics.unattributed_flag(got))

    def test_unattributed_share_is_over_served_time(self):
        raw = complete_raw(metrics.INGEST)
        got, _, _, _ = metrics.summarize(raw, trace=True)
        self.assertAlmostEqual(got["trace.unattributed_share"]["value"], 0.05)
        self.assertFalse(metrics.unattributed_flag(got))
        # Lock wait: the served time grows, the replayed layer time does not.
        raw["scalars"]["trace.served_us"] = 1000.0
        got, _, _, _ = metrics.summarize(raw, trace=True)
        self.assertAlmostEqual(got["trace.unattributed_share"]["value"], 0.905)
        self.assertTrue(metrics.unattributed_flag(got))

    def test_missing_served_time_is_a_failure(self):
        raw = complete_raw(metrics.INGEST)
        del raw["scalars"]["trace.served_us"]
        got, _, failed, _ = metrics.summarize(raw, trace=True)
        self.assertEqual(failed, 1)
        self.assertNotIn("trace.unattributed_share", got)


class OverheadTest(unittest.TestCase):
    def test_interleaved_ratio_is_gated(self):
        raw = complete_raw(metrics.DURABILITY)
        raw["samples"]["untraced.checkpoint_ms"] = [v / 2 for v in
                                                    raw["samples"]["checkpoint_ms"]]
        raw["samples"]["untraced.resume_ms"] = raw["samples"]["resume_ms"]
        ratio, gated = metrics.overhead_ratio(raw, {}, {})
        self.assertTrue(gated)
        self.assertAlmostEqual(ratio, 1.5)
        self.assertFalse(metrics.overhead_ok(ratio))
        del raw["samples"]["untraced.resume_ms"]
        with self.assertRaises(metrics.TailTooThin):
            metrics.overhead_ratio(raw, {}, {})

    def test_ratio_is_median_over_latencies(self):
        untraced = {"setup_s": {"value": 100.0},
                    "write_ms_p50": {"value": 100.0},
                    "read_ms_p50": {"value": 100.0},
                    "snapshot_bytes_per_row": {"value": 1.0}}
        traced = {"setup_s": {"value": 200.0},
                  "write_ms_p50": {"value": 90.0},
                  "read_ms_p50": {"value": 130.0},
                  "snapshot_bytes_per_row": {"value": 50.0}}
        ratio, gated = metrics.overhead_ratio(complete_raw(metrics.INGEST),
                                              traced, untraced)
        self.assertAlmostEqual(ratio, 1.1)
        self.assertFalse(gated)

    def test_limits(self):
        self.assertTrue(metrics.overhead_ok(1.0))
        self.assertTrue(metrics.overhead_ok(0.8))
        self.assertTrue(metrics.overhead_ok(1.25))
        self.assertFalse(metrics.overhead_ok(0.65))
        self.assertFalse(metrics.overhead_ok(1.3))


class VerdictTest(unittest.TestCase):
    def test_gain_needs_nine_in_ten_wins_beyond_old_spread(self):
        old = {s: 100.0 + s % 3 for s in range(10)}
        new = {s: 80.0 + s % 3 for s in range(10)}
        self.assertEqual(compare.verdict(old, new, "lower", 0.1), "gain")
        new[0] = 200.0
        new[1] = 200.0
        self.assertNotEqual(compare.verdict(old, new, "lower", 0.1), "gain")

    def test_pairs_in_run_order_when_seeds_differ(self):
        old = {s: 100.0 + s % 3 for s in range(10)}
        new = {s + 10: 80.0 + s % 3 for s in range(10)}
        self.assertEqual(compare.verdict(old, new, "lower", 0.1), "gain")

    def test_regression_beyond_bound(self):
        old = {s: 100.0 + s for s in range(10)}
        new = {s: 130.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(old, new, "lower", 0.2), "regression")
        self.assertEqual(compare.verdict(old, new, "higher", 0.2), "gain")

    def test_unresolved_when_old_spread_exceeds_bound(self):
        old = {s: v for s, v in enumerate([50, 60, 100, 140, 150])}
        new = {s: v for s, v in enumerate([55, 70, 105, 130, 150])}
        self.assertEqual(compare.verdict(old, new, "lower", 0.2), "unresolved")


if __name__ == "__main__":
    unittest.main()
