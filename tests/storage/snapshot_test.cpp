#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "fd/measures.h"
#include "fd/sampled_monitor.h"
#include "query/distinct.h"
#include "relation/relation.h"
#include "util/binary_io.h"

namespace fdevolve::storage {
namespace {

using relation::AttrSet;
using relation::Column;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

Relation Mixed() {
  Schema schema({{"id", DataType::kInt64},
                 {"city", DataType::kString},
                 {"score", DataType::kDouble}});
  return RelationBuilder("mixed", schema)
      .Row({int64_t{1}, "milan", 0.1 + 0.2})
      .Row({int64_t{2}, "rome", -0.0})
      .Row({int64_t{1}, "milan", Value::Null()})
      .Row({int64_t{3}, Value::Null(), 1e-7})
      .Build();
}

/// Bit-level equality of the encoded layer: schema, dictionaries (order
/// included), codes, null counts, watermark.
void ExpectEncodedIdentical(const Relation& a, const Relation& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.attr_count(), b.attr_count());
  ASSERT_EQ(a.tuple_count(), b.tuple_count());
  EXPECT_EQ(a.version(), b.version());
  for (int i = 0; i < a.attr_count(); ++i) {
    EXPECT_EQ(a.schema().attr(i).name, b.schema().attr(i).name);
    EXPECT_EQ(a.schema().attr(i).type, b.schema().attr(i).type);
    const Column& ca = a.column(i);
    const Column& cb = b.column(i);
    ASSERT_EQ(ca.dict_size(), cb.dict_size());
    EXPECT_EQ(ca.null_count(), cb.null_count());
    for (size_t c = 0; c < ca.dict_size(); ++c) {
      const Value& va = ca.DictValue(static_cast<uint32_t>(c));
      const Value& vb = cb.DictValue(static_cast<uint32_t>(c));
      if (va.is_double()) {
        // Exact bits — NaN payloads and -0.0 must survive.
        const double da = va.as_double();
        const double db = vb.as_double();
        uint64_t ba, bb;
        std::memcpy(&ba, &da, 8);
        std::memcpy(&bb, &db, 8);
        EXPECT_EQ(ba, bb);
      } else {
        EXPECT_EQ(va, vb);
      }
    }
    EXPECT_EQ(ca.codes(), cb.codes());
  }
}

TEST(SnapshotTest, RelationRoundTripIsEncodedIdentical) {
  Relation rel = Mixed();
  std::string bytes = SerializeRelation(rel);
  auto loaded = DeserializeRelation(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, EmptyRelationRoundTrips) {
  Schema schema({{"a", DataType::kInt64}, {"s", DataType::kString}});
  Relation rel("empty", schema);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->tuple_count(), 0u);
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, AwkwardStringsRoundTrip) {
  // Exactly the strings the CSV dialect cannot represent: the snapshot
  // format must carry them losslessly.
  Schema schema({{"s", DataType::kString}});
  Relation rel = RelationBuilder("awkward", schema)
                     .Row({Value("a,b")})
                     .Row({Value("two\nlines")})
                     .Row({Value("cr\r")})
                     .Row({Value("\\N")})
                     .Row({Value("")})
                     .Row({Value(std::string("nul\0byte", 8))})
                     .Build();
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, NanDictionaryEntriesRoundTrip) {
  // NaN never equals itself, so each NaN append mints a fresh dictionary
  // code; the loaded column must reproduce that structure bit for bit.
  Schema schema({{"d", DataType::kDouble}});
  const double nan = std::nan("");
  Relation rel = RelationBuilder("nans", schema)
                     .Row({Value(nan)})
                     .Row({Value(nan)})
                     .Row({Value(1.5)})
                     .Build();
  ASSERT_EQ(rel.column(0).dict_size(), 3u);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, ZeroAttributeRelationKeepsTupleCount) {
  // AppendRow({}) on an empty schema counts tuples with no columns; the
  // snapshot must carry that count even though no column encodes it.
  Relation rel("degenerate", Schema(std::vector<relation::Attribute>{}));
  rel.AppendRow({});
  rel.AppendRow({});
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->attr_count(), 0);
  EXPECT_EQ(loaded.relation->tuple_count(), 2u);
}

TEST(SnapshotTest, LoadedRelationProducesIdenticalQueryState) {
  // The reason encoded-identity matters: group ids, counts, and measure
  // doubles computed on the loaded relation must equal the originals.
  Relation rel = Mixed();
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;

  query::DistinctEvaluator ea(rel);
  query::DistinctEvaluator eb(*loaded.relation);
  const AttrSet sets[] = {AttrSet::Of({0}), AttrSet::Of({0, 1}),
                          AttrSet::Of({0, 1, 2}), AttrSet()};
  for (const auto& s : sets) {
    EXPECT_EQ(ea.Count(s), eb.Count(s));
    const auto& ga = ea.GroupFor(s);
    const auto& gb = eb.GroupFor(s);
    EXPECT_EQ(ga.group_count, gb.group_count);
    EXPECT_EQ(ga.ids, gb.ids);
  }
  fd::Fd f(AttrSet::Of({0}), AttrSet::Of({1}));
  fd::FdMeasures ma = fd::ComputeMeasures(ea, f);
  fd::FdMeasures mb = fd::ComputeMeasures(eb, f);
  EXPECT_EQ(ma.confidence, mb.confidence);
  EXPECT_EQ(ma.goodness, mb.goodness);
  EXPECT_EQ(ma.exact, mb.exact);
}

TEST(SnapshotTest, DatabaseRoundTripsTablesAndFds) {
  sql::Database db;
  db.AddRelation(Mixed());
  Schema s2({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
  db.AddRelation(RelationBuilder("pairs", s2)
                     .Row({int64_t{1}, int64_t{2}})
                     .Build());
  db.DeclareFd("mixed", "id -> city", "label1");
  db.DeclareFd("pairs", "x -> y");

  sql::Database back;
  std::string err;
  ASSERT_TRUE(DeserializeDatabase(SerializeDatabase(db), &back, &err)) << err;
  ASSERT_EQ(back.TableNames(), db.TableNames());
  ExpectEncodedIdentical(db.Get("mixed"), back.Get("mixed"));
  ExpectEncodedIdentical(db.Get("pairs"), back.Get("pairs"));
  auto fds = back.Fds();
  ASSERT_EQ(fds.size(), 2u);
  EXPECT_EQ(fds[0].table, "mixed");
  EXPECT_EQ(fds[0].fd, db.Fds()[0].fd);
  EXPECT_EQ(fds[0].fd.label(), "label1");
  EXPECT_EQ(fds[1].table, "pairs");
  EXPECT_EQ(fds[1].fd, db.Fds()[1].fd);
}

TEST(SnapshotTest, FileRoundTrip) {
  Relation rel = Mixed();
  const std::string path = testing::TempDir() + "/fdevolve_snapshot_test.fdsnap";
  std::string err;
  ASSERT_TRUE(SaveRelationSnapshot(rel, path, &err)) << err;
  auto loaded = LoadRelationSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ExpectEncodedIdentical(rel, *loaded.relation);
}

TEST(SnapshotTest, MissingFileFailsCleanly) {
  auto r = LoadRelationSnapshot("/nonexistent/dir/x.fdsnap");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("cannot open"), std::string::npos) << r.error;
}

TEST(SnapshotTest, KindMismatchIsDetected) {
  Relation rel = Mixed();
  std::string bytes = SerializeRelation(rel);
  sql::Database db;
  std::string err;
  EXPECT_FALSE(DeserializeDatabase(bytes, &db, &err));
  EXPECT_NE(err.find("kind mismatch"), std::string::npos) << err;
  EXPECT_FALSE(DeserializeCheckpoint(bytes).ok());
}

TEST(SnapshotTest, UnsupportedVersionIsRejected) {
  std::string bytes = SerializeRelation(Mixed());
  bytes[4] = 99;  // version field, little-endian low byte
  // Re-seal so only the version differs, not the checksum.
  const uint64_t sum =
      util::Checksum64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  auto r = DeserializeRelation(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
}

TEST(SnapshotTest, TruncationAtEveryLengthFailsCleanly) {
  // Every proper prefix of a valid snapshot must produce an error — never
  // a crash, never a silently loaded relation. (Run under ASan in CI.)
  std::string bytes = SerializeRelation(Mixed());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DeserializeRelation(std::string_view(bytes.data(), cut));
    EXPECT_FALSE(r.ok()) << "prefix of length " << cut << " loaded";
    EXPECT_FALSE(r.error.empty());
  }
}

TEST(SnapshotTest, EveryByteBitFlipFailsCleanly) {
  // Flip every bit of every byte: the checksum (or, for trailer flips,
  // the re-verification) must reject each mutation with a clean error.
  std::string bytes = SerializeRelation(Mixed());
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
      auto r = DeserializeRelation(bytes);
      EXPECT_FALSE(r.ok()) << "flip at byte " << i << " bit " << bit;
      bytes[i] = static_cast<char>(bytes[i] ^ (1 << bit));
    }
  }
  // Restored: loads again.
  EXPECT_TRUE(DeserializeRelation(bytes).ok());
}

TEST(SnapshotTest, CorruptCheckpointPayloadIsRejectedBeforeResume) {
  // A structurally valid checkpoint whose measures disagree with its
  // relation must be refused by the restore constructor.
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({int64_t{1}, int64_t{10}})
                     .Row({int64_t{2}, int64_t{20}})
                     .Build();
  fd::SchemaMonitor mon(std::move(rel),
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))}, 1);
  fd::MonitorCheckpoint ckpt = mon.Checkpoint();
  ckpt.fds[0].measures.distinct_x += 1;  // lie about the counters
  auto loaded = DeserializeCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_THROW(fd::SchemaMonitor(std::move(*loaded.checkpoint)),
               std::invalid_argument);
}

TEST(SnapshotTest, CheckpointCarriesStreamBatchHint) {
  Schema schema({{"a", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema).Row({int64_t{1}}).Build();
  fd::SchemaMonitor mon(std::move(rel), {}, 10);
  fd::MonitorCheckpoint ckpt = mon.Checkpoint();
  EXPECT_EQ(ckpt.stream_batch_hint, 0u);  // monitor itself does not know it
  ckpt.stream_batch_hint = 3;             // the streaming driver fills it in
  auto loaded = DeserializeCheckpoint(SerializeCheckpoint(ckpt));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.checkpoint->stream_batch_hint, 3u);
}

TEST(SnapshotTest, NonSnapshotInputSetsStructuredFlag) {
  auto csvish = DeserializeRelation("a:int64\n1\n2\n3\n4\n5\n6\n7\n8\n");
  EXPECT_FALSE(csvish.ok());
  EXPECT_TRUE(csvish.not_a_snapshot);
  auto tiny = DeserializeRelation("x");
  EXPECT_FALSE(tiny.ok());
  EXPECT_TRUE(tiny.not_a_snapshot);
  // A real snapshot with a corrupt byte IS a snapshot — just a bad one.
  std::string bytes = SerializeRelation(Mixed());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
  auto corrupt = DeserializeRelation(bytes);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_FALSE(corrupt.not_a_snapshot);
}

TEST(SnapshotTest, TombstonedRelationRoundTrips) {
  Relation rel = Mixed();
  rel.DeleteRow(1);
  rel.DeleteRow(3);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  // Physical layout identical (tombstones do not move bytes)...
  ExpectEncodedIdentical(rel, *loaded.relation);
  // ...and the tombstone state replays exactly.
  EXPECT_EQ(loaded.relation->live_count(), rel.live_count());
  EXPECT_EQ(loaded.relation->deletion_log(), rel.deletion_log());
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    EXPECT_EQ(loaded.relation->is_live(t), rel.is_live(t)) << t;
  }
  // The loaded relation compacts to the same bytes the original does.
  Relation a = rel.CompactedCopy();
  Relation b = loaded.relation->CompactedCopy();
  ExpectEncodedIdentical(a, b);
}

TEST(SnapshotTest, ZeroAttributeTombstonesRoundTrip) {
  Relation rel("degenerate", Schema(std::vector<relation::Attribute>{}));
  rel.AppendRow({});
  rel.AppendRow({});
  rel.AppendRow({});
  rel.DeleteRow(1);
  auto loaded = DeserializeRelation(SerializeRelation(rel));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->tuple_count(), 3u);
  EXPECT_EQ(loaded.relation->live_count(), 2u);
  EXPECT_FALSE(loaded.relation->is_live(1));
}

TEST(SnapshotTest, CorruptDeletionLogIsRejected) {
  Relation rel = Mixed();
  rel.DeleteRow(0);
  std::string bytes = SerializeRelation(rel);
  // The log's single entry (row id 0) sits just before the v3
  // lifetime-counter section (3 u64) and the checksum trailer. Point it
  // past the watermark and re-seal: DeleteRow must refuse it.
  const size_t id_at = bytes.size() - 8 - 24 - 4;
  bytes[id_at] = 9;
  const uint64_t sum = util::Checksum64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  auto r = DeserializeRelation(bytes);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("corrupt"), std::string::npos) << r.error;
}

TEST(SnapshotTest, WritesCurrentFormatVersion) {
  std::string bytes = SerializeRelation(Mixed());
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(static_cast<uint32_t>(static_cast<unsigned char>(bytes[4])),
            kFormatVersion);
}

TEST(SnapshotTest, V1RelationFixtureStillLoads) {
  // A pre-tombstone v1 file, byte-built the way the v1 writer laid it
  // out: no deletion-log section, no drift kinds. Guards the promise that
  // bumping the format does not orphan existing snapshots.
  util::BinaryWriter w;
  w.Bytes("FDEV", 4);
  w.U32(1);  // format version 1
  w.U32(1);  // kind: relation
  w.Str("legacy");
  w.U32(1);  // one attribute
  w.Str("a");
  w.U8(0);  // int64
  w.U64(3);  // tuple count
  w.U64(0);  // null count
  w.U64(2);  // dict size
  w.I64(10);
  w.I64(20);
  w.U32Array({0u, 1u, 0u});
  w.U64(w.Checksum());

  auto loaded = DeserializeRelation(w.buffer());
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(loaded.relation->name(), "legacy");
  EXPECT_EQ(loaded.relation->tuple_count(), 3u);
  EXPECT_EQ(loaded.relation->live_count(), 3u);  // v1 = all live
  EXPECT_FALSE(loaded.relation->has_tombstones());
  EXPECT_EQ(loaded.relation->Get(1, 0), Value(int64_t{20}));
  // The loaded relation re-serializes as v2 (same logical content, now
  // with an empty deletion-log section).
  auto again = DeserializeRelation(SerializeRelation(*loaded.relation));
  ASSERT_TRUE(again.ok()) << again.error;
  ExpectEncodedIdentical(*loaded.relation, *again.relation);
}

TEST(SnapshotTest, DriftKindSurvivesCheckpointRoundTrip) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation shared = RelationBuilder("t", schema)
                        .Row({int64_t{1}, int64_t{10}})
                        .Build();
  fd::SchemaMonitor mon(&shared,
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))}, 1);
  shared.AppendRow({int64_t{1}, int64_t{11}});
  mon.Poll();  // violated
  shared.DeleteRow(1);
  mon.Poll();  // recovered
  ASSERT_EQ(mon.drift_log().size(), 2u);
  ASSERT_EQ(mon.drift_log()[1].kind, fd::DriftKind::kRecovered);

  fd::MonitorState state = mon.State();
  sql::Database db;
  relation::Relation copy = shared;
  db.AddRelation(std::move(copy));
  std::string bytes = SerializeServerState(db, {{"t", state}});
  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(bytes, &back, &monitors, &err)) << err;
  ASSERT_EQ(monitors.size(), 1u);
  ASSERT_EQ(monitors[0].state.drift_log.size(), 2u);
  EXPECT_EQ(monitors[0].state.drift_log[0].kind, fd::DriftKind::kViolated);
  EXPECT_EQ(monitors[0].state.drift_log[1].kind, fd::DriftKind::kRecovered);
  // The restored table carries the tombstone.
  EXPECT_EQ(back.Get("t").live_count(), 1u);
}

TEST(SnapshotTest, CheckpointRoundTripRestoresMonitorState) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({int64_t{1}, int64_t{10}})
                     .Row({int64_t{2}, int64_t{20}})
                     .Build();
  fd::SchemaMonitor mon(std::move(rel),
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
                        /*check_interval=*/2);
  // Drive it into a drift so the checkpoint carries non-trivial state.
  mon.Insert({int64_t{1}, int64_t{11}});  // violates a -> b
  mon.Insert({int64_t{5}, int64_t{50}});
  ASSERT_EQ(mon.drift_log().size(), 1u);

  auto loaded =
      DeserializeCheckpoint(SerializeCheckpoint(mon.Checkpoint()));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  fd::SchemaMonitor back(std::move(*loaded.checkpoint));
  EXPECT_EQ(back.rel().tuple_count(), mon.rel().tuple_count());
  EXPECT_EQ(back.checks_run(), mon.checks_run());
  ASSERT_EQ(back.fds().size(), 1u);
  EXPECT_EQ(back.fds()[0].violated, mon.fds()[0].violated);
  EXPECT_EQ(back.fds()[0].first_violation_at, mon.fds()[0].first_violation_at);
  EXPECT_EQ(back.fds()[0].measures.confidence, mon.fds()[0].measures.confidence);
  ASSERT_EQ(back.drift_log().size(), 1u);
  EXPECT_EQ(back.drift_log()[0].tuple_count, mon.drift_log()[0].tuple_count);
}

/// Emplaces a sampled monitor with non-trivial state: partial coverage
/// (reservoir smaller than the stream) and a witnessed violation. The
/// monitor is neither copyable nor movable, hence the optional out-param.
void EmplaceSampledFixture(std::optional<fd::SampledSchemaMonitor>& mon) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  mon.emplace(Relation("t", schema),
              std::vector<fd::Fd>{fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
              /*check_interval=*/2, /*capacity=*/4, /*seed=*/17);
  // Exact prefix well past the capacity, so the violating flood below is
  // first witnessed at partial coverage (an approx drift event).
  for (int64_t i = 0; i < 20; ++i) mon->Insert({100 + i, i * 2});
  for (int64_t i = 0; i < 40; ++i) mon->Insert({int64_t{1}, i});
}

TEST(SnapshotTest, SampledCheckpointRoundTripIsByteStable) {
  std::optional<fd::SampledSchemaMonitor> mon_opt;
  EmplaceSampledFixture(mon_opt);
  fd::SampledSchemaMonitor& mon = *mon_opt;
  const std::string bytes = SerializeCheckpoint(mon.Checkpoint());
  auto loaded = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_EQ(SerializeCheckpoint(*loaded.checkpoint), bytes);

  fd::SampledSchemaMonitor back(std::move(*loaded.checkpoint));
  EXPECT_EQ(back.checks_run(), mon.checks_run());
  EXPECT_EQ(back.sample_capacity(), mon.sample_capacity());
  EXPECT_EQ(back.sample_seed(), mon.sample_seed());
  ASSERT_EQ(back.estimates().size(), mon.estimates().size());
  EXPECT_EQ(back.estimates()[0].confidence_lo,
            mon.estimates()[0].confidence_lo);
  EXPECT_EQ(back.estimates()[0].confidence_hi,
            mon.estimates()[0].confidence_hi);
  EXPECT_EQ(back.fds()[0].violated, mon.fds()[0].violated);
}

TEST(SnapshotTest, CheckpointKindSelectsReservoir) {
  std::optional<fd::SampledSchemaMonitor> mon_opt;
  EmplaceSampledFixture(mon_opt);
  const std::string sampled_bytes = SerializeCheckpoint(mon_opt->Checkpoint());
  fd::SchemaMonitor exact(Relation("t", Schema({{"a", DataType::kInt64}})),
                          {}, 1);
  const std::string exact_bytes = SerializeCheckpoint(exact.Checkpoint());
  // Kind 3 loads without a reservoir…
  EXPECT_EQ(exact_bytes[8], 3);
  auto e = DeserializeCheckpoint(exact_bytes);
  ASSERT_TRUE(e.ok()) << e.error;
  EXPECT_FALSE(e.checkpoint->reservoir.has_value());
  // …kind 5 loads with one…
  EXPECT_EQ(sampled_bytes[8], 5);
  auto s = DeserializeCheckpoint(sampled_bytes);
  ASSERT_TRUE(s.ok()) << s.error;
  ASSERT_TRUE(s.checkpoint->reservoir.has_value());
  EXPECT_EQ(s.checkpoint->reservoir->seed, 17u);
  // …and a server state (kind 4) is not a checkpoint.
  sql::Database db;
  db.AddRelation(Relation("t", Schema({{"a", DataType::kInt64}})));
  auto server = DeserializeCheckpoint(SerializeServerState(db, {}));
  EXPECT_FALSE(server.ok());
  EXPECT_NE(server.error.find("kind mismatch"), std::string::npos)
      << server.error;
}

TEST(SnapshotTest, SampledCheckpointTruncationFailsCleanly) {
  std::optional<fd::SampledSchemaMonitor> mon_opt;
  EmplaceSampledFixture(mon_opt);
  const std::string bytes = SerializeCheckpoint(mon_opt->Checkpoint());
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = DeserializeCheckpoint(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix";
  }
}

TEST(SnapshotTest, ApproxDriftEventSurvivesSampledCheckpoint) {
  std::optional<fd::SampledSchemaMonitor> mon_opt;
  EmplaceSampledFixture(mon_opt);
  fd::SampledSchemaMonitor& mon = *mon_opt;
  ASSERT_FALSE(mon.drift_log().empty());
  const fd::DriftEvent& ev = mon.drift_log()[0];
  ASSERT_TRUE(ev.approx);  // partial coverage, witnessed violation

  auto loaded = DeserializeCheckpoint(SerializeCheckpoint(mon.Checkpoint()));
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  const fd::DriftEvent& back = loaded.checkpoint->drift_log[0];
  EXPECT_TRUE(back.approx);
  EXPECT_EQ(back.confidence_lo, ev.confidence_lo);
  EXPECT_EQ(back.confidence_hi, ev.confidence_hi);
  EXPECT_EQ(back.goodness_lo, ev.goodness_lo);
  EXPECT_EQ(back.goodness_hi, ev.goodness_hi);
}

TEST(SnapshotTest, ServerStateCarriesSampledSection) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Relation shared = RelationBuilder("t", schema)
                        .Row({int64_t{1}, int64_t{10}})
                        .Build();
  fd::SampledSchemaMonitor mon(&shared,
                               {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))},
                               /*check_interval=*/1, /*capacity=*/8,
                               /*seed=*/5);
  shared.AppendRow({int64_t{2}, int64_t{20}});
  mon.Poll();

  sql::Database db;
  relation::Relation copy = shared;
  db.AddRelation(std::move(copy));
  const std::string bytes =
      SerializeServerState(db, {}, {{"t", mon.State()}});

  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::vector<ServerSampledMonitorState> sampled;
  std::string err;
  ASSERT_TRUE(
      DeserializeServerState(bytes, &back, &monitors, &err, &sampled))
      << err;
  EXPECT_TRUE(monitors.empty());
  ASSERT_EQ(sampled.size(), 1u);
  EXPECT_EQ(sampled[0].table, "t");
  EXPECT_EQ(sampled[0].state.reservoir->seen, mon.State().reservoir->seen);
  EXPECT_EQ(sampled[0].state.reservoir->rng_state,
            mon.State().reservoir->rng_state);

  // A caller that cannot receive the section must get a clean error, not
  // silently dropped monitors.
  sql::Database ignored;
  std::vector<ServerMonitorState> m2;
  EXPECT_FALSE(DeserializeServerState(bytes, &ignored, &m2, &err, nullptr));
  EXPECT_NE(err.find("sampled"), std::string::npos) << err;
}

/// A one-table catalog whose table has a monitor state in both the exact
/// and the sampled section — legal, unlike two states in one section.
Relation DuplicateFixture() {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, int64_t{10}})
      .Row({int64_t{2}, int64_t{20}})
      .Build();
}

TEST(SnapshotTest, DuplicateExactMonitorStatesAreRejected) {
  sql::Database db;
  db.AddRelation(DuplicateFixture());
  fd::SchemaMonitor mon(&db.GetMutable("t"),
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))}, 1);
  const fd::MonitorState s = mon.State();
  const std::string bytes = SerializeServerState(db, {{"t", s}, {"t", s}});

  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  EXPECT_FALSE(DeserializeServerState(bytes, &back, &monitors, &err));
  EXPECT_NE(err.find("duplicate monitor state for table 't'"),
            std::string::npos)
      << err;
}

TEST(SnapshotTest, DuplicateSampledMonitorStatesAreRejected) {
  sql::Database db;
  db.AddRelation(DuplicateFixture());
  fd::SchemaMonitor mon(&db.GetMutable("t"),
                        {fd::Fd(AttrSet::Of({0}), AttrSet::Of({1}))}, 1,
                        /*capacity=*/4, /*seed=*/3);
  const fd::MonitorState s = mon.State();
  const std::string bytes = SerializeServerState(db, {{"t", s}, {"t", s}});

  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  EXPECT_FALSE(DeserializeServerState(bytes, &back, &monitors, &err));
  EXPECT_NE(err.find("duplicate sampled monitor state for table 't'"),
            std::string::npos)
      << err;
}

// --- Pinned bytes. Each fixture below is deterministic; its FDEV v3 blob
// --- was recorded (length and FNV-1a trailer) from the writer that
// --- predates the single monitor class, so any change to the bytes of
// --- kinds 3, 4 or 5 fails here.

Schema PinSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kString},
                 {"c", DataType::kDouble}});
}

/// a -> b holds for i < 12, then breaks; b -> c breaks at i == 20.
std::vector<Value> PinRow(int64_t i) {
  const int64_t a = i % 5;
  std::string b = "k" + std::to_string(i < 12 ? a : a + i % 3);
  const double c = i < 20 ? 0.5 * static_cast<double>(a)
                          : 0.25 * static_cast<double>(i);
  return {a, b, c};
}

const fd::Fd kPinAb(AttrSet::Of({0}), AttrSet::Of({1}));
const fd::Fd kPinBc(AttrSet::Of({1}), AttrSet::Of({2}));

/// Checks a blob against its pinned length and trailer, and that the
/// stored trailer is the FNV-1a of everything before it.
void ExpectPinned(const std::string& bytes, size_t length, uint64_t trailer) {
  ASSERT_EQ(bytes.size(), length);
  util::BinaryReader r(std::string_view(bytes).substr(bytes.size() - 8));
  EXPECT_EQ(r.U64(), trailer);
  EXPECT_EQ(util::Checksum64(bytes.data(), bytes.size() - 8), trailer);
}

TEST(SnapshotTest, PinnedExactCheckpointBytes) {
  fd::SchemaMonitor mon(Relation("pin", PinSchema()), {kPinAb, kPinBc},
                        /*check_interval=*/2, /*threads=*/1);
  for (int64_t i = 0; i < 31; ++i) mon.Insert(PinRow(i));
  fd::MonitorCheckpoint ckpt = mon.Checkpoint();
  ckpt.stream_batch_hint = 3;
  const std::string bytes = SerializeCheckpoint(ckpt);
  EXPECT_EQ(bytes[8], 3);  // kind
  ExpectPinned(bytes, 1159, 0x74f5e50d173bda59ULL);

  auto loaded = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  EXPECT_FALSE(loaded.checkpoint->reservoir.has_value());
  fd::SchemaMonitor back(std::move(*loaded.checkpoint), /*threads=*/1);
  fd::MonitorCheckpoint again = back.Checkpoint();
  again.stream_batch_hint = 3;
  EXPECT_EQ(SerializeCheckpoint(again), bytes);
}

TEST(SnapshotTest, PinnedSampledCheckpointBytes) {
  fd::SchemaMonitor mon(Relation("pin", PinSchema()), {kPinAb, kPinBc},
                        /*check_interval=*/2, /*capacity=*/6, /*seed=*/17);
  for (int64_t i = 0; i < 31; ++i) mon.Insert(PinRow(i));
  bool approx = false;
  for (const auto& ev : mon.drift_log()) approx |= ev.approx;
  ASSERT_TRUE(approx) << "fixture must reach partial coverage";
  fd::MonitorCheckpoint ckpt = mon.Checkpoint();
  ckpt.stream_batch_hint = 2;
  const std::string bytes = SerializeCheckpoint(ckpt);
  EXPECT_EQ(bytes[8], 5);  // kind
  ExpectPinned(bytes, 1421, 0x1db10507f5211515ULL);

  auto loaded = DeserializeCheckpoint(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_TRUE(loaded.checkpoint->reservoir.has_value());
  fd::SchemaMonitor back(std::move(*loaded.checkpoint));
  fd::MonitorCheckpoint again = back.Checkpoint();
  again.stream_batch_hint = 2;
  EXPECT_EQ(SerializeCheckpoint(again), bytes);
}

TEST(SnapshotTest, PinnedServerStateBytes) {
  sql::Database db;
  db.AddRelation(Relation("pin", PinSchema()));
  db.DeclareFd("pin", kPinAb);
  db.DeclareFd("pin", kPinBc);
  relation::Relation* rel = &db.GetMutable("pin");
  fd::SchemaMonitor exact(rel, {kPinAb}, /*check_interval=*/3,
                          /*threads=*/1);
  fd::SchemaMonitor sampled(rel, {kPinBc}, /*check_interval=*/2,
                            /*capacity=*/8, /*seed=*/5);
  for (int64_t i = 0; i < 31; ++i) {
    rel->AppendRow(PinRow(i));
    if (i % 4 == 3) rel->DeleteRow(static_cast<size_t>(i - 2));
    exact.Poll();
    sampled.Poll();
  }
  const std::string bytes = SerializeServerState(
      db, {{"pin", exact.State()}, {"pin", sampled.State()}});
  EXPECT_EQ(bytes[8], 4);  // kind
  ExpectPinned(bytes, 1605, 0xea66f7808b041e2aULL);

  sql::Database back;
  std::vector<ServerMonitorState> monitors;
  std::string err;
  ASSERT_TRUE(DeserializeServerState(bytes, &back, &monitors, &err)) << err;
  ASSERT_EQ(monitors.size(), 2u);
  EXPECT_FALSE(monitors[0].state.reservoir.has_value());
  EXPECT_TRUE(monitors[1].state.reservoir.has_value());
  fd::SchemaMonitor exact_back(&back.GetMutable("pin"), monitors[0].state,
                               /*threads=*/1);
  fd::SchemaMonitor sampled_back(&back.GetMutable("pin"), monitors[1].state);
  EXPECT_EQ(SerializeServerState(back, {{"pin", exact_back.State()},
                                        {"pin", sampled_back.State()}}),
            bytes);
}

}  // namespace
}  // namespace fdevolve::storage
