#include "fd/sampled_monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fd/schema_monitor.h"
#include "relation/relation.h"

namespace fdevolve::fd {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

Schema XySchema() {
  return Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
}

Relation XyRelation() { return Relation("t", XySchema()); }

Fd XtoY() { return Fd(AttrSet::Of({0}), AttrSet::Of({1})); }

std::vector<Value> Row(int64_t x, int64_t y) { return {Value(x), Value(y)}; }

TEST(SampledMonitorTest, FullCoverageMatchesExactMonitorBitIdentically) {
  // Capacity above everything ever appended: Algorithm R never evicts,
  // the sample IS the relation, and the sampled monitor must agree with
  // the exact one measure for measure, event for event.
  SchemaMonitor exact(XyRelation(), {XtoY()}, /*check_interval=*/3);
  SampledSchemaMonitor sampled(XyRelation(), {XtoY()}, /*check_interval=*/3,
                               /*capacity=*/1000, /*seed=*/42);
  for (int i = 0; i < 30; ++i) {
    // x repeats every 5, y breaks the FD at i=17 and repairs nothing.
    const int64_t x = i % 5;
    const int64_t y = (i == 17) ? 99 : x * 10;
    exact.Insert(Row(x, y));
    sampled.Insert(Row(x, y));
  }
  exact.CheckNow();
  sampled.CheckNow();

  ASSERT_EQ(exact.fds().size(), sampled.fds().size());
  for (size_t i = 0; i < exact.fds().size(); ++i) {
    EXPECT_EQ(exact.fds()[i].measures.distinct_x,
              sampled.fds()[i].measures.distinct_x);
    EXPECT_EQ(exact.fds()[i].measures.distinct_xy,
              sampled.fds()[i].measures.distinct_xy);
    EXPECT_EQ(exact.fds()[i].measures.confidence,
              sampled.fds()[i].measures.confidence);  // exact doubles
    EXPECT_EQ(exact.fds()[i].violated, sampled.fds()[i].violated);
  }
  ASSERT_EQ(exact.drift_log().size(), sampled.drift_log().size());
  for (size_t e = 0; e < exact.drift_log().size(); ++e) {
    const DriftEvent& a = exact.drift_log()[e];
    const DriftEvent& b = sampled.drift_log()[e];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tuple_count, b.tuple_count);
    EXPECT_EQ(a.measures.confidence, b.measures.confidence);
    EXPECT_FALSE(b.approx);  // full coverage serializes like an exact event
  }
}

TEST(SampledMonitorTest, NeverRaisesFalseAlarmOnExactStream) {
  // X -> Y holds for the whole stream; whatever 5-row subset the
  // reservoir lands on, no witness pair exists, so no drift fires.
  SampledSchemaMonitor mon(XyRelation(), {XtoY()}, /*check_interval=*/1,
                           /*capacity=*/5, /*seed=*/7);
  for (int i = 0; i < 400; ++i) mon.Insert(Row(i % 20, (i % 20) * 3));
  EXPECT_TRUE(mon.drift_log().empty());
  EXPECT_FALSE(mon.fds()[0].violated);
  EXPECT_TRUE(mon.fds()[0].measures.exact);
}

TEST(SampledMonitorTest, WitnessedViolationFlagsApproxDriftWithIntervals) {
  // An exact prefix far beyond the capacity, then a flood of rows sharing
  // x=1 with fresh y's: any two sampled suffix rows witness the
  // violation, and because coverage is partial by the time one does, the
  // drift event must carry approx=true and the estimated measures.
  SampledSchemaMonitor mon(XyRelation(), {XtoY()}, /*check_interval=*/1,
                           /*capacity=*/5, /*seed=*/11);
  for (int i = 0; i < 50; ++i) mon.Insert(Row(100 + i, i * 2));  // exact
  for (int i = 0; i < 100; ++i) mon.Insert(Row(1, i));  // violating flood
  ASSERT_FALSE(mon.drift_log().empty());
  const DriftEvent& ev = mon.drift_log()[0];
  EXPECT_EQ(ev.kind, DriftKind::kViolated);
  EXPECT_TRUE(ev.approx);
  EXPECT_FALSE(ev.measures.exact);
  EXPECT_GT(ev.measures.confidence, 0.0);
  EXPECT_LT(ev.measures.confidence, 1.0);
  EXPECT_TRUE(mon.fds()[0].violated);
  EXPECT_FALSE(mon.fds()[0].measures.exact);
}

TEST(SampledMonitorTest, DeleteOfWitnessRecoversAtFullCoverage) {
  Relation rel = XyRelation();
  SampledSchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                           /*capacity=*/100, /*seed=*/3);
  rel.AppendRow(Row(1, 10));
  mon.Poll();
  rel.AppendRow(Row(1, 20));  // witness pair
  mon.Poll();
  ASSERT_EQ(mon.drift_log().size(), 1u);
  EXPECT_EQ(mon.drift_log()[0].kind, DriftKind::kViolated);
  rel.DeleteRow(1);  // remove the second y — FD exact again
  mon.Poll();
  ASSERT_EQ(mon.drift_log().size(), 2u);
  EXPECT_EQ(mon.drift_log()[1].kind, DriftKind::kRecovered);
  EXPECT_FALSE(mon.fds()[0].violated);
}

TEST(SampledMonitorTest, AddFdOnViolatedSampleRegistersViolated) {
  Relation initial = XyRelation();
  initial.AppendRow(Row(1, 10));
  initial.AppendRow(Row(1, 20));
  SampledSchemaMonitor mon(std::move(initial), {}, /*check_interval=*/1,
                           /*capacity=*/10, /*seed=*/5);
  const size_t idx = mon.AddFd(XtoY());
  EXPECT_FALSE(mon.fds()[idx].was_exact_at_registration);
  EXPECT_TRUE(mon.fds()[idx].violated);
  // Already-violated at registration: no drift event (same contract as
  // the exact monitor — the log records transitions, not states).
  EXPECT_TRUE(mon.drift_log().empty());
}

TEST(SampledMonitorTest, CheckpointResumeReplaysIdenticalEstimateSequence) {
  SampledSchemaMonitor a(XyRelation(), {XtoY()}, /*check_interval=*/4,
                         /*capacity=*/6, /*seed=*/99);
  for (int i = 0; i < 50; ++i) a.Insert(Row(i % 7, i % 13));

  MonitorCheckpoint ckpt = a.Checkpoint();
  SampledSchemaMonitor b(std::move(ckpt));

  // The measures after every insert — the estimate sequence, bitwise.
  for (int i = 50; i < 120; ++i) {
    a.Insert(Row(i % 7, i % 13));
    b.Insert(Row(i % 7, i % 13));
    EXPECT_TRUE(a.fds()[0].measures == b.fds()[0].measures)
        << "resumed monitor diverged from the uninterrupted one at row " << i;
  }
  a.CheckNow();
  b.CheckNow();
  EXPECT_TRUE(a.fds()[0].measures == b.fds()[0].measures);
  EXPECT_EQ(a.checks_run(), b.checks_run());
  ASSERT_EQ(a.drift_log().size(), b.drift_log().size());
}

TEST(SampledMonitorTest, ExternalStateRestoreCrossChecksMeasures) {
  Relation rel = XyRelation();
  SampledSchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                           /*capacity=*/8, /*seed=*/21);
  for (int i = 0; i < 30; ++i) {
    rel.AppendRow(Row(i % 4, i % 9));
    mon.Poll();
  }
  MonitorState state = mon.State();

  // Clean restore reproduces the estimates, and the next check on the
  // same rows recomputes them bit for bit.
  SampledSchemaMonitor restored(&rel, state);
  ASSERT_EQ(restored.fds().size(), mon.fds().size());
  EXPECT_TRUE(restored.fds()[0].measures == mon.fds()[0].measures);
  restored.CheckNow();
  mon.CheckNow();
  EXPECT_TRUE(restored.fds()[0].measures == mon.fds()[0].measures);

  // Tampered carried measures fail the re-estimation cross-check.
  MonitorState tampered = mon.State();
  ASSERT_FALSE(tampered.fds.empty());
  tampered.fds[0].measures.distinct_x += 5;
  EXPECT_THROW(SampledSchemaMonitor(&rel, tampered), std::invalid_argument);
}

TEST(SampledMonitorTest, InsertBatchChecksAtMostOncePerBatch) {
  SampledSchemaMonitor mon(XyRelation(), {XtoY()}, /*check_interval=*/5,
                           /*capacity=*/100, /*seed=*/2);
  std::vector<std::vector<Value>> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(Row(i, i));
  mon.InsertBatch(batch);  // 12 inserts, interval 5 -> exactly one check
  EXPECT_EQ(mon.checks_run(), 1u);
  mon.InsertBatch({Row(100, 100), Row(101, 101), Row(102, 102)});
  EXPECT_EQ(mon.checks_run(), 2u);  // 2 carried + 3 = 5 -> check
}

TEST(SampledMonitorTest, CompactionOnCheckBoundaryKeepsEstimatesCoherent) {
  Relation rel = XyRelation();
  SampledSchemaMonitor mon(&rel, {XtoY()}, /*check_interval=*/1,
                           /*capacity=*/10, /*seed=*/13);
  for (int i = 0; i < 80; ++i) {
    rel.AppendRow(Row(i % 6, (i % 6) * 2));
    mon.Poll();
  }
  for (size_t t = 0; t < 40; ++t) rel.DeleteRow(t);
  mon.Poll();
  rel.Compact();  // exactly at a poll boundary
  mon.Poll();
  // Each unseen row adds at most one key, so no Good–Turing estimate
  // exceeds the live row count.
  EXPECT_LE(mon.fds()[0].measures.distinct_xy, rel.live_count());
  EXPECT_TRUE(mon.fds()[0].measures.exact);
  EXPECT_FALSE(mon.fds()[0].violated);  // stream stayed exact throughout
  EXPECT_TRUE(mon.drift_log().empty());
}

}  // namespace
}  // namespace fdevolve::fd
