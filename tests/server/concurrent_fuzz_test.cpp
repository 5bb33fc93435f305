// Concurrent-session differential suite: N client threads interleave
// INSERTs, DELETEs, UPDATEs, SELECTs, and drift subscriptions against one
// Service; the committed state must be indistinguishable from a serial
// replay.
//
// The contract under test is the server's MVCC-lite design (see
// server/service.h): per-table commit order — which the journal records —
// fully determines the relation bytes, the dictionary codes, the monitor
// counters, and the drift log, because group ids are append-stable
// first-appearance ids. So after any concurrent run, replaying each
// table's journal serially into a fresh Service must reproduce the
// server-state snapshot bit for bit. Run under TSan in CI (suite name is
// matched by the ServerConcurrency regex there); reproducible via
// --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/protocol.h"
#include "server/service.h"
#include "support/fuzz_seed.h"
#include "util/rng.h"

namespace fdevolve::server {
namespace {

constexpr int kThreads = 8;
constexpr int kStatementsPerThread = 60;
constexpr int kTables = 3;

std::string TableName(int i) { return "t" + std::to_string(i); }

/// One random INSERT: 1-3 rows over a small domain so FDs drift quickly
/// and dictionary codes keep colliding across threads.
std::string RandomInsert(util::Rng& rng, int table) {
  int rows = 1 + static_cast<int>(rng.Below(3));
  std::string stmt = "INSERT INTO " + TableName(table) + " VALUES ";
  for (int r = 0; r < rows; ++r) {
    if (r > 0) stmt += ", ";
    stmt += "(" + std::to_string(rng.Below(5)) + ", " +
            std::to_string(rng.Below(5)) + ", '" +
            std::string(1, static_cast<char>('a' + rng.Below(4))) + "')";
  }
  return stmt;
}

class ServerConcurrency : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }

  /// Deterministic DDL: every table gets the same schema and a monitored
  /// FD with a per-table check interval.
  void SetUpTables(Service& svc) {
    auto s = svc.OpenSession(nullptr);
    for (int t = 0; t < kTables; ++t) {
      auto create = svc.ExecuteLine(
          s, "CREATE TABLE " + TableName(t) +
                 " (a INT64, b INT64, c STRING)");
      ASSERT_EQ(create.reply.rfind("OK", 0), 0u) << create.reply;
      auto declare = svc.ExecuteLine(
          s, "DECLARE FD a -> b ON " + TableName(t) + " EVERY " +
                 std::to_string(1 + t));
      ASSERT_EQ(declare.reply.rfind("OK", 0), 0u) << declare.reply;
    }
    svc.CloseSession(s);
  }
};

TEST_P(ServerConcurrency, ConcurrentSessionsMatchSerialReplayBitIdentically) {
  Service svc;
  SetUpTables(svc);

  // Listeners subscribed before the storm: each must observe every drift
  // event its table logs (pushes happen under the table's write lock, so
  // a pre-subscribed session cannot miss one).
  struct Listener {
    std::mutex mutex;
    std::vector<std::string> lines;
    Service::SessionId id = 0;
  };
  std::vector<Listener> listeners(kTables);
  for (int t = 0; t < kTables; ++t) {
    Listener* l = &listeners[t];
    l->id = svc.OpenSession([l](const std::string& line) {
      std::lock_guard<std::mutex> lock(l->mutex);
      l->lines.push_back(line);
      return true;
    });
    auto sub = svc.ExecuteLine(l->id, "SUBSCRIBE DRIFT ON " + TableName(t));
    ASSERT_EQ(sub.reply.rfind("OK", 0), 0u) << sub.reply;
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    uint64_t thread_seed = seed() ^ (0x9e3779b97f4a7c15ULL * (i + 1));
    threads.emplace_back([&svc, &failures, thread_seed] {
      util::Rng rng(thread_seed);
      auto session = svc.OpenSession(nullptr);
      for (int n = 0; n < kStatementsPerThread; ++n) {
        int table = static_cast<int>(rng.Below(kTables));
        std::string stmt;
        if (rng.Chance(0.2)) {
          stmt = rng.Chance(0.5)
                     ? "SELECT COUNT(*) FROM " + TableName(table)
                     : "SELECT COUNT(DISTINCT a, b) FROM " + TableName(table);
        } else {
          stmt = RandomInsert(rng, table);
        }
        auto reply = ParseReply(svc.ExecuteLine(session, stmt).reply);
        if (!reply || reply->kind != ParsedReply::Kind::kOk) ++failures;
      }
      svc.CloseSession(session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Serial replay of the per-table commit-order journals.
  Service replay;
  auto r = replay.OpenSession(nullptr);
  for (int t = 0; t < kTables; ++t) {
    for (const auto& line : svc.Journal(TableName(t))) {
      auto reply = ParseReply(replay.ExecuteLine(r, line).reply);
      ASSERT_TRUE(reply && reply->kind == ParsedReply::Kind::kOk) << line;
    }
  }
  EXPECT_EQ(svc.SerializeState(), replay.SerializeState())
      << "concurrent state differs from serial replay";

  // Every listener saw exactly its table's logged drift events, in log
  // order (the log and the push happen in the same critical section).
  for (int t = 0; t < kTables; ++t) {
    auto log = svc.DriftLog(TableName(t));
    std::lock_guard<std::mutex> lock(listeners[t].mutex);
    ASSERT_EQ(listeners[t].lines.size(), log.size()) << TableName(t);
    for (size_t e = 0; e < log.size(); ++e) {
      EXPECT_NE(
          listeners[t].lines[e].find("tuples=" +
                                     std::to_string(log[e].tuple_count)),
          std::string::npos)
          << listeners[t].lines[e];
    }
  }
}

/// One random mutation: DELETE or UPDATE over the same small domain the
/// inserts draw from, so statements actually hit live rows and the
/// deterministic compaction policy keeps firing mid-storm.
std::string RandomMutation(util::Rng& rng, int table) {
  const std::string a = std::to_string(rng.Below(5));
  const std::string b = std::to_string(rng.Below(5));
  if (rng.Chance(0.5)) {
    return "DELETE FROM " + TableName(table) + " WHERE a = " + a;
  }
  return "UPDATE " + TableName(table) + " SET b = " + b + " WHERE a = " + a;
}

TEST_P(ServerConcurrency, ConcurrentMutationsMatchSerialReplayBitIdentically) {
  Service svc;
  SetUpTables(svc);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    uint64_t thread_seed = seed() ^ (0xbf58476d1ce4e5b9ULL * (i + 1));
    threads.emplace_back([&svc, &failures, thread_seed] {
      util::Rng rng(thread_seed);
      auto session = svc.OpenSession(nullptr);
      for (int n = 0; n < kStatementsPerThread; ++n) {
        int table = static_cast<int>(rng.Below(kTables));
        std::string stmt;
        if (rng.Chance(0.35)) {
          stmt = RandomMutation(rng, table);
        } else if (rng.Chance(0.15)) {
          stmt = "SELECT COUNT(DISTINCT a, b) FROM " + TableName(table);
        } else {
          stmt = RandomInsert(rng, table);
        }
        auto reply = ParseReply(svc.ExecuteLine(session, stmt).reply);
        if (!reply || reply->kind != ParsedReply::Kind::kOk) ++failures;
      }
      svc.CloseSession(session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Serial replay: per-table commit order (now containing DELETE/UPDATE
  // and the compactions MaybeCompact fired at those boundaries) still
  // fully determines the snapshot bytes.
  Service replay;
  auto r = replay.OpenSession(nullptr);
  for (int t = 0; t < kTables; ++t) {
    for (const auto& line : svc.Journal(TableName(t))) {
      auto reply = ParseReply(replay.ExecuteLine(r, line).reply);
      ASSERT_TRUE(reply && reply->kind == ParsedReply::Kind::kOk) << line;
    }
  }
  EXPECT_EQ(svc.SerializeState(), replay.SerializeState())
      << "concurrent mutated state differs from serial replay";

  // Recovered events carry their kind through the replayed drift log too.
  for (int t = 0; t < kTables; ++t) {
    auto a = svc.DriftLog(TableName(t));
    auto b = replay.DriftLog(TableName(t));
    ASSERT_EQ(a.size(), b.size()) << TableName(t);
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].kind, b[e].kind) << TableName(t) << " event " << e;
      EXPECT_EQ(a[e].tuple_count, b[e].tuple_count);
    }
  }
}

TEST_P(ServerConcurrency, CheckpointDuringConcurrentWritesIsAConsistentCut) {
  const std::string path = testing::TempDir() +
                           "/fdevolve_concurrent_ckpt_" +
                           std::to_string(GetParam()) + ".fdev";
  Service::Options opts;
  opts.checkpoint_path = path;
  Service svc(opts);
  SetUpTables(svc);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    uint64_t thread_seed = seed() ^ (0xa0761d6478bd642fULL * (i + 1));
    threads.emplace_back([&svc, &failures, thread_seed, i] {
      util::Rng rng(thread_seed);
      auto session = svc.OpenSession(nullptr);
      for (int n = 0; n < kStatementsPerThread / 2; ++n) {
        // One thread interleaves checkpoints with everyone else's writes.
        std::string stmt = (i == 0 && n % 10 == 5)
                               ? "CHECKPOINT"
                               : RandomInsert(rng,
                                              static_cast<int>(
                                                  rng.Below(kTables)));
        auto reply = ParseReply(svc.ExecuteLine(session, stmt).reply);
        if (!reply || reply->kind != ParsedReply::Kind::kOk) ++failures;
      }
      svc.CloseSession(session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The mid-storm checkpoint file is a loadable, consistent snapshot:
  // Resume must accept it (watermark pairing validated) even though more
  // writes landed after it was taken.
  Service resumed(opts);
  std::string error;
  ASSERT_TRUE(resumed.Resume(&error)) << error;
  EXPECT_EQ(resumed.TableNames(), svc.TableNames());
}

TEST_P(ServerConcurrency, SampledMonitorsMatchSerialReplayAndResume) {
  // The sampled extension of the MVCC-lite contract: reservoir draws
  // happen under the same per-table write lock as the commit, so commit
  // order (the journal) fully determines the reservoir contents, every
  // estimate, and the kind-5 checkpoint section — concurrently, serially
  // replayed, or resumed from a checkpoint taken mid-storm.
  const std::string path = testing::TempDir() +
                           "/fdevolve_sampled_concurrent_" +
                           std::to_string(GetParam()) + ".fdev";
  Service::Options opts;
  opts.checkpoint_path = path;
  Service svc(opts);
  {
    // Like SetUpTables, plus a sampled FD per table right after the exact
    // one (tiny reservoirs so eviction — the RNG-consuming path —
    // definitely happens mid-storm). Declared per table in journal order:
    // the database's FD registry preserves global declaration order, and
    // a per-table serial replay can only reproduce it when declarations
    // do not interleave across tables.
    auto s = svc.OpenSession(nullptr);
    for (int t = 0; t < kTables; ++t) {
      auto create = svc.ExecuteLine(
          s, "CREATE TABLE " + TableName(t) +
                 " (a INT64, b INT64, c STRING)");
      ASSERT_EQ(create.reply.rfind("OK", 0), 0u) << create.reply;
      auto exact = svc.ExecuteLine(
          s, "DECLARE FD a -> b ON " + TableName(t) + " EVERY " +
                 std::to_string(1 + t));
      ASSERT_EQ(exact.reply.rfind("OK", 0), 0u) << exact.reply;
      auto declare = svc.ExecuteLine(
          s, "DECLARE FD b -> c ON " + TableName(t) + " EVERY " +
                 std::to_string(1 + t) + " SAMPLE 16 SEED " +
                 std::to_string(7 + t));
      ASSERT_EQ(declare.reply.rfind("OK", 0), 0u) << declare.reply;
    }
    svc.CloseSession(s);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    uint64_t thread_seed = seed() ^ (0xd6e8feb86659fd93ULL * (i + 1));
    threads.emplace_back([&svc, &failures, thread_seed, i] {
      util::Rng rng(thread_seed);
      auto session = svc.OpenSession(nullptr);
      for (int n = 0; n < kStatementsPerThread / 2; ++n) {
        std::string stmt;
        if (i == 0 && n % 10 == 5) {
          stmt = "CHECKPOINT";  // mid-storm cut with reservoirs in flight
        } else if (rng.Chance(0.3)) {
          stmt = RandomMutation(rng, static_cast<int>(rng.Below(kTables)));
        } else {
          stmt = RandomInsert(rng, static_cast<int>(rng.Below(kTables)));
        }
        auto reply = ParseReply(svc.ExecuteLine(session, stmt).reply);
        if (!reply || reply->kind != ParsedReply::Kind::kOk) ++failures;
      }
      svc.CloseSession(session);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // The mid-storm checkpoint is loadable with its sampled section intact.
  {
    Service midway(opts);
    std::string error;
    ASSERT_TRUE(midway.Resume(&error)) << error;
    EXPECT_EQ(midway.TableNames(), svc.TableNames());
  }

  // Serial journal replay reproduces the concurrent snapshot — including
  // the sampled monitors, since their DECLARE lines (SAMPLE/SEED and all)
  // are journaled and draws follow commit order.
  Service replay;
  auto r = replay.OpenSession(nullptr);
  for (int t = 0; t < kTables; ++t) {
    for (const auto& line : svc.Journal(TableName(t))) {
      auto reply = ParseReply(replay.ExecuteLine(r, line).reply);
      ASSERT_TRUE(reply && reply->kind == ParsedReply::Kind::kOk) << line;
    }
  }
  EXPECT_EQ(svc.SerializeState(), replay.SerializeState())
      << "sampled concurrent state differs from serial replay";
  for (int t = 0; t < kTables; ++t) {
    auto a = svc.SampledDriftLog(TableName(t));
    auto b = replay.SampledDriftLog(TableName(t));
    ASSERT_EQ(a.size(), b.size()) << TableName(t);
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].kind, b[e].kind);
      EXPECT_EQ(a[e].approx, b[e].approx);
    }
  }

  // Checkpoint/resume replays the identical remaining estimate sequence:
  // a service resumed from the post-storm checkpoint, fed the same
  // suffix as the live one, produces bitwise-equal state — the per-FD
  // measures and drift logs of every monitor included.
  {
    std::string error;
    ASSERT_TRUE(svc.SaveCheckpoint(&error)) << error;
    Service resumed(opts);
    ASSERT_TRUE(resumed.Resume(&error)) << error;
    EXPECT_EQ(resumed.SerializeState(), svc.SerializeState());

    util::Rng suffix_rng(seed() + 999);
    auto live_s = svc.OpenSession(nullptr);
    auto res_s = resumed.OpenSession(nullptr);
    for (int n = 0; n < 40; ++n) {
      const int table = static_cast<int>(suffix_rng.Below(kTables));
      const std::string stmt = suffix_rng.Chance(0.25)
                                   ? RandomMutation(suffix_rng, table)
                                   : RandomInsert(suffix_rng, table);
      auto la = ParseReply(svc.ExecuteLine(live_s, stmt).reply);
      auto lb = ParseReply(resumed.ExecuteLine(res_s, stmt).reply);
      ASSERT_TRUE(la && la->kind == ParsedReply::Kind::kOk) << stmt;
      ASSERT_TRUE(lb && lb->kind == ParsedReply::Kind::kOk) << stmt;
    }
    svc.CloseSession(live_s);
    resumed.CloseSession(res_s);
    EXPECT_EQ(resumed.SerializeState(), svc.SerializeState())
        << "resumed service diverged on the identical suffix";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServerConcurrency, ::testing::Range(0, 4));

}  // namespace
}  // namespace fdevolve::server
