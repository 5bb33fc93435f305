// Data-feed path. A closed loop over loopback TCP: two writers send
// order-feed operations (one of them subscribed to drift), one reader
// sends COUNT(DISTINCT ...) queries and an occasional EXPLAIN REPAIR,
// one read per kWriteOpsPerRead writer operations. Every request waits
// for its reply before the next is sent. Also the served write path's
// layer probes, which every workload's traced run makes on its own state.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "feed.h"
#include "fd/sampled_monitor.h"
#include "fd/schema_monitor.h"
#include "phases.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace server = fdevolve::server;
namespace sql = fdevolve::sql;
namespace fd = fdevolve::fd;
namespace relation = fdevolve::relation;
namespace storage = fdevolve::storage;

namespace {

constexpr int kWriters = 2;
constexpr const char* kTables[] = {"lineitem", "orders"};
/// Mirrors the service's compaction floor (server::Service::MaybeCompact).
constexpr size_t kCompactMinRows = 64;
/// Hard stop for a loop that cannot collect its minimum samples.
constexpr double kMaxLoopSeconds = 100.0;
/// Untimed start of each loop: sessions connect, caches and locks warm up.
constexpr double kWarmupSeconds = 1.0;
/// Minimum operations per class of the traced in-process loop: its
/// per-layer p99s need 1000 samples.
constexpr size_t kLayerSamples = 1000;
/// Unrolled checkpoint/resume cycles the traced run makes of the served
/// state after its loop, for the durability path's layer medians.
constexpr size_t kUnrolledCycles = 10;
/// The reader sends read i once the writers have completed
/// (i + 1) * kWriteOpsPerRead operations between them. Paced by the
/// writers, the reads (and the lock waits they cause) are a fixed share of
/// the mix instead of following the reader's own speed.
constexpr uint64_t kWriteOpsPerRead = 4;

bool IsOk(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

uint64_t OkValue(const std::string& reply) {
  return std::stoull(reply.substr(3));
}

/// Every kExplainEvery-th read is an EXPLAIN REPAIR, on the two tables in
/// turn; of the other reads, two in three count on lineitem and one in
/// three on orders. The schedule fixes each kind's share of the reads, so
/// read_ms_p50 falls inside the lineitem COUNTs (at about their p29), not
/// in the gap between two kinds, where a small change in either kind's
/// tail would move it far.
constexpr uint64_t kExplainEvery = 20;

std::string ReadSql(uint64_t i, fdevolve::util::Rng& rng) {
  if (i % kExplainEvery == kExplainEvery - 1) {
    return i % (2 * kExplainEvery) == 2 * kExplainEvery - 1
               ? "EXPLAIN REPAIR o_custkey -> o_orderstatus ON orders"
               : "EXPLAIN REPAIR l_partkey -> l_suppkey ON lineitem";
  }
  if (i % 3 != 2) {
    return "SELECT COUNT(DISTINCT l_partkey) FROM lineitem WHERE l_shipmode = "
           "'MODE_" + std::to_string(rng.Below(7)) + "'";
  }
  return "SELECT COUNT(DISTINCT o_custkey) FROM orders WHERE o_orderpriority "
         "= 'PRIO_" + std::to_string(rng.Below(5)) + "'";
}

/// Shared stop rule of one closed loop: warm up untimed, then measure for
/// the phase's seconds and until every operation class holds its minimum
/// sample count. Only the supervising thread writes `measure_start`. Also
/// paces the reader by the writers' progress.
struct LoopControl {
  Clock::time_point start = Clock::now();
  Clock::time_point measure_start = start;
  double seconds = 0;
  size_t min_samples = 0;
  std::atomic<bool> recording{false};
  std::atomic<size_t> inserts{0}, mutates{0}, reads{0};
  std::atomic<bool> stop{false};

  bool Done() const {
    if (MillisSince(start) / 1000.0 >= kMaxLoopSeconds) return true;
    return recording && MillisSince(measure_start) / 1000.0 >= seconds &&
           inserts >= min_samples && mutates >= min_samples &&
           reads >= min_samples;
  }

  void WriterOpDone() {
    {
      std::lock_guard<std::mutex> lock(pace_mutex_);
      ++writer_ops_;
    }
    pace_.notify_one();
  }

  /// Blocks until read `i` is due; false once the loop stops.
  bool WaitForRead(uint64_t i) {
    std::unique_lock<std::mutex> lock(pace_mutex_);
    pace_.wait(lock, [&] {
      return stop || writer_ops_ >= (i + 1) * kWriteOpsPerRead;
    });
    return !stop;
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(pace_mutex_);
      stop = true;
    }
    pace_.notify_all();
  }

 private:
  std::mutex pace_mutex_;
  std::condition_variable pace_;
  uint64_t writer_ops_ = 0;
};

/// Running row-count tally from the writers' replies.
struct Tally {
  std::atomic<int64_t> lineitem{0}, orders{0};
  void Apply(const FeedStatement& s, uint64_t value) {
    if (s.sql.rfind("UPDATE", 0) == 0) return;
    const int64_t delta = s.kind == FeedStatement::Kind::kInsert
                              ? static_cast<int64_t>(value)
                              : -static_cast<int64_t>(value);
    (s.table == "lineitem" ? lineitem : orders) += delta;
  }
};

/// Executes one feed operation (an order's INSERTs, DELETEs or UPDATEs)
/// through `send`, checks every reply and records the latency under the
/// operation's class: per operation — what a feeder waits for to land or
/// retire an order — or, with `per_statement`, per statement.
template <typename Send>
void Issue(const Context& ctx, const std::vector<FeedStatement>& op,
           Send&& send, bool per_statement, std::vector<double>* insert_us,
           std::vector<double>* mutate_us, LoopControl* loop, Tally* tally) {
  const bool insert = op.front().kind == FeedStatement::Kind::kInsert;
  std::vector<double>* out = insert ? insert_us : mutate_us;
  const bool recording = loop->recording;
  double op_us = 0;
  for (const FeedStatement& s : op) {
    const auto t0 = Clock::now();
    const std::string reply = send(s.sql);
    const double us = MicrosSince(t0);
    op_us += us;
    const bool ok = IsOk(reply);
    const uint64_t value = ok ? OkValue(reply) : 0;
    ctx.checks->Expect(ok && value == static_cast<uint64_t>(s.expect),
                       "ingest: '" + s.sql.substr(0, 60) + "' -> " + reply +
                           " (expected OK " + std::to_string(s.expect) + ")");
    if (ok) tally->Apply(s, value);
    if (recording && per_statement) out->push_back(us);
  }
  loop->WriterOpDone();
  if (!recording) return;
  if (!per_statement) out->push_back(op_us);
  ++(insert ? loop->inserts : loop->mutates);
}

void Supervise(LoopControl* loop) {
  while (!loop->Done()) {
    if (!loop->recording && MillisSince(loop->start) / 1000.0 >= kWarmupSeconds) {
      loop->measure_start = Clock::now();
      loop->recording = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  loop->Stop();
}

/// The measured closed loop over TCP; returns the drift pushes the
/// subscribed writer received.
uint64_t TcpLoop(const Context& ctx, const PhaseSize& size, uint16_t port,
                 std::vector<OrderFeed>* feeds, Tally* tally) {
  LoopControl loop;
  loop.seconds = size.seconds;
  loop.min_samples = size.min_samples;
  std::vector<double> insert_us[kWriters], mutate_us[kWriters], read_us;
  std::atomic<uint64_t> pushes{0};

  auto writer = [&](int w) {
    server::Client client;
    std::string err;
    if (!ctx.checks->Expect(client.Connect(port, &err), "connect: " + err)) {
      loop.Stop();
      return;
    }
    if (w == 0) {
      for (const char* t : kTables) {
        auto r = client.Request(std::string("SUBSCRIBE DRIFT ON ") + t);
        ctx.checks->Expect(r.ok, "subscribe: " + r.error);
      }
    }
    auto send = [&](const std::string& sql) {
      server::Client::Reply r = client.Request(sql);
      pushes += r.drift.size();
      return r.ok ? "OK " + std::to_string(r.value) : "ERR " + r.error;
    };
    while (!loop.stop) {
      Issue(ctx, (*feeds)[static_cast<size_t>(w)].Next(), send, false,
            &insert_us[w], &mutate_us[w], &loop, tally);
    }
    if (w == 0) {
      // Drain pushes still in flight until the socket stays quiet.
      while (client.PollDrift(300)) ++pushes;
    }
  };
  auto reader = [&] {
    server::Client client;
    std::string err;
    if (!ctx.checks->Expect(client.Connect(port, &err), "connect: " + err)) {
      loop.Stop();
      return;
    }
    fdevolve::util::Rng rng(ctx.seed ^ 0x5eadULL);
    for (uint64_t i = 0; loop.WaitForRead(i); ++i) {
      const std::string sql = ReadSql(i, rng);
      const auto t0 = Clock::now();
      server::Client::Reply r = client.Request(sql);
      const double us = MicrosSince(t0);
      const bool explain = sql.rfind("EXPLAIN", 0) == 0;
      ctx.checks->Expect(r.ok && (!explain || !r.plan.empty()),
                         "read '" + sql + "': " + r.error);
      if (!loop.recording) continue;
      read_us.push_back(us);
      ++loop.reads;
    }
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  threads.emplace_back(reader);
  Supervise(&loop);
  for (auto& t : threads) t.join();

  // Every feed write (an order landed, retired or updated) is one write.
  std::vector<double> write_ms, read_ms;
  for (int w = 0; w < kWriters; ++w) {
    for (const auto* op_us : {&insert_us[w], &mutate_us[w]}) {
      for (double us : *op_us) write_ms.push_back(us / 1000.0);
    }
  }
  for (double us : read_us) read_ms.push_back(us / 1000.0);
  ctx.rec->Merge("write_ms", write_ms);
  ctx.rec->Merge("read_ms", read_ms);
  return pushes;
}

/// The same operation mix in-process, timing Service::ExecuteLine alone
/// (no socket, no client): the server layer's own latency. Every write
/// the loop sends, warm-up included, is one served operation; their
/// summed time is the total that the traced replay's layer spans are held
/// against (trace.unattributed_share). Returns the reads it sent.
std::vector<std::string> InProcessLoop(const Context& ctx, double seconds,
                                       server::Service* service,
                                       std::vector<OrderFeed>* feeds,
                                       Tally* tally) {
  LoopControl loop;
  loop.seconds = seconds;
  loop.min_samples = kLayerSamples;
  std::vector<std::string> reads;
  std::vector<double> insert_us[kWriters], mutate_us[kWriters], read_us;
  double served_us[kWriters] = {};
  auto writer = [&](int w) {
    const auto sid = service->OpenSession(nullptr);
    auto send = [&](const std::string& sql) {
      const auto t0 = Clock::now();
      std::string reply = service->ExecuteLine(sid, sql).reply;
      served_us[w] += MicrosSince(t0);
      return reply;
    };
    while (!loop.stop) {
      Issue(ctx, (*feeds)[static_cast<size_t>(w)].Next(), send, true,
            &insert_us[w], &mutate_us[w], &loop, tally);
    }
    service->CloseSession(sid);
  };
  auto reader = [&] {
    const auto sid = service->OpenSession(nullptr);
    fdevolve::util::Rng rng(ctx.seed ^ 0x1eadULL);
    for (uint64_t i = 0; loop.WaitForRead(i); ++i) {
      const std::string sql = ReadSql(i, rng);
      const auto t0 = Clock::now();
      const std::string reply = service->ExecuteLine(sid, sql).reply;
      const double us = MicrosSince(t0);
      ctx.checks->Expect(IsOk(reply) || reply.rfind("PLAN", 0) == 0,
                         "read '" + sql + "': " + reply);
      reads.push_back(sql);
      if (!loop.recording) continue;
      read_us.push_back(us);
      ++loop.reads;
    }
    service->CloseSession(sid);
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) threads.emplace_back(writer, w);
  threads.emplace_back(reader);
  Supervise(&loop);
  for (auto& t : threads) t.join();
  double served = 0;
  for (int w = 0; w < kWriters; ++w) {
    ctx.rec->Merge("server.service_insert_us", insert_us[w]);
    ctx.rec->Merge("server.service_us", insert_us[w]);
    ctx.rec->Merge("server.service_us", mutate_us[w]);
    served += served_us[w];
  }
  ctx.rec->Merge("server.service_us", read_us);
  ctx.rec->Set("trace.served_us", served);
  return reads;
}

/// Uncontended round trips: one session sends new orders over TCP, then
/// the same number in-process. The difference of the two medians is what
/// the socket and client add to a statement (server.wire_us_p50).
void WireProbe(const Context& ctx, uint16_t port, server::Service* service,
               OrderFeed* feed, Tally* tally) {
  constexpr int kOrders = 300;
  LoopControl loop;
  loop.recording = true;
  std::vector<double> rtt_us, service_us, unused;
  server::Client client;
  std::string err;
  if (!ctx.checks->Expect(client.Connect(port, &err), "connect: " + err)) {
    return;
  }
  auto tcp = [&](const std::string& sql) {
    server::Client::Reply r = client.Request(sql);
    return r.ok ? "OK " + std::to_string(r.value) : "ERR " + r.error;
  };
  for (int i = 0; i < kOrders; ++i) {
    Issue(ctx, feed->Insert(), tcp, true, &rtt_us, &unused, &loop, tally);
  }
  const auto sid = service->OpenSession(nullptr);
  auto local = [&](const std::string& sql) {
    return service->ExecuteLine(sid, sql).reply;
  };
  for (int i = 0; i < kOrders; ++i) {
    Issue(ctx, feed->Insert(), local, true, &service_us, &unused, &loop, tally);
  }
  service->CloseSession(sid);
  ctx.rec->Merge("server.probe_rtt_us", rtt_us);
  ctx.rec->Merge("server.probe_service_us", service_us);
}

/// Single-session replay of the served journals through the layers'
/// public functions, one span per layer call — the Service's write path
/// (parse, execute, compaction policy, monitor polls) unrolled into the
/// benchmark so each layer's share is visible. Spans cover the
/// statements after `traced_from[table]`; the layer time of the in-process
/// loop's statements, `inproc[table]` = [first, end), is summed into
/// trace.attributed_us. Returns the replayed catalog.
using JournalRange = std::pair<size_t, size_t>;
std::unique_ptr<sql::Database> ReplayWithSpans(
    const Context& ctx, const server::Service& served,
    const std::map<std::string, size_t>& traced_from,
    const std::map<std::string, JournalRange>& inproc,
    const std::vector<std::string>& reads) {
  auto db = std::make_unique<sql::Database>();
  std::map<std::string, std::unique_ptr<fd::SchemaMonitor>> exact;
  std::map<std::string, std::unique_ptr<fd::SampledSchemaMonitor>> sampled;
  Tracer* tracer = ctx.tracer;
  Tracer off(false);
  double scanned = 0, matched = 0, attributed_us = 0;

  for (const char* table : kTables) {
    const std::vector<std::string> journal = served.Journal(table);
    for (size_t i = 0; i < journal.size(); ++i) {
      const bool traced = i >= traced_from.at(table);
      Tracer* tr = traced ? tracer : &off;
      double layers_us = 0;
      const auto t_parse = Clock::now();
      sql::Statement stmt;
      {
        Tracer::Span s(tr, "sql.parse");
        stmt = sql::ParseStatement(journal[i]);
      }
      layers_us += MicrosSince(t_parse);
      relation::Relation* rel =
          db->Has(table) ? &db->GetMutable(table) : nullptr;
      auto poll = [&] {
        const auto t0 = Clock::now();
        if (exact.count(table)) {
          Tracer::Span s(tr, "fd.poll");
          exact[table]->Poll();
        }
        if (sampled.count(table)) {
          Tracer::Span s(tr, "fd.sampled_poll");
          sampled[table]->Poll();
        }
        layers_us += MicrosSince(t0);
      };
      if (const auto* ins = std::get_if<sql::InsertStatement>(&stmt)) {
        const auto t0 = Clock::now();
        {
          Tracer::Span s(tr, "sql.insert");
          sql::Execute(*ins, *db);
        }
        layers_us += MicrosSince(t0);
        poll();
        if (traced) ctx.rec->Add("replay.insert_layers_us", layers_us);
      } else if (std::holds_alternative<sql::DeleteStatement>(stmt) ||
                 std::holds_alternative<sql::UpdateStatement>(stmt)) {
        const size_t physical = rel->tuple_count();
        uint64_t n = 0;
        const auto t0 = Clock::now();
        {
          Tracer::Span s(tr, "sql.mutate");
          n = sql::Execute(stmt, *db);
        }
        if (traced) {
          scanned += static_cast<double>(physical);
          matched += static_cast<double>(n);
        }
        if (rel->tuple_count() >= kCompactMinRows &&
            rel->dead_count() * 2 >= rel->tuple_count()) {
          Tracer::Span s(tr, "relation.compact");
          rel->Compact();
        }
        layers_us += MicrosSince(t0);
        poll();
      } else if (const auto* create =
                     std::get_if<sql::CreateTableStatement>(&stmt)) {
        sql::Execute(*create, *db);
      } else if (const auto* d = std::get_if<sql::DeclareFdStatement>(&stmt)) {
        const relation::Schema& schema = rel->schema();
        fd::Fd f(schema.Resolve(d->lhs), schema.Resolve(d->rhs));
        db->DeclareFd(table, f);
        if (d->sample_size != 0) {
          auto& m = sampled[table];
          if (!m) {
            m = std::make_unique<fd::SampledSchemaMonitor>(
                rel, std::vector<fd::Fd>{}, d->check_interval, d->sample_size,
                d->sample_seed);
          }
          m->AddFd(f);
        } else {
          auto& m = exact[table];
          if (!m) {
            m = std::make_unique<fd::SchemaMonitor>(
                rel, std::vector<fd::Fd>{}, d->check_interval, /*threads=*/1);
          }
          m->AddFd(f);
        }
      } else {
        ctx.checks->Expect(false, "replay: unexpected journal entry " +
                                      journal[i].substr(0, 40));
      }
      const JournalRange& range = inproc.at(table);
      if (i >= range.first && i < range.second) attributed_us += layers_us;
    }
  }
  ctx.rec->Set("trace.attributed_us", attributed_us);
  ctx.rec->Set("sql.rows_scanned", scanned);
  ctx.rec->Set("sql.rows_matched", matched);
  double checks_run = 0;
  for (const auto& [t, m] : exact) checks_run += static_cast<double>(m->checks_run());
  ctx.rec->Set("fd.checks_run", checks_run);

  // The reader's COUNT queries against the replayed catalog.
  size_t counted = 0;
  for (const std::string& text : reads) {
    if (counted == 400) break;
    if (text.rfind("SELECT", 0) != 0) continue;
    const sql::CountQuery q = sql::Parse(text);
    Tracer::Span s(tracer, "sql.count");
    sql::Execute(q, static_cast<const sql::Database&>(*db));
    ++counted;
  }
  return db;
}

}  // namespace

std::map<std::string, size_t> JournalSizes(const server::Service& svc) {
  std::map<std::string, size_t> sizes;
  for (const char* t : kTables) sizes[t] = svc.Journal(t).size();
  return sizes;
}

void TraceServedLayers(const Context& ctx, double seconds, server::Server* srv,
                       std::vector<OrderFeed>* feeds,
                       const std::map<std::string, size_t>& traced_from) {
  server::Service& svc = srv->service();
  Tally tally;  // unused: every reply is checked against its prediction
  std::map<std::string, JournalRange> inproc;
  for (const auto& [t, n] : JournalSizes(svc)) inproc[t].first = n;
  const std::vector<std::string> reads =
      InProcessLoop(ctx, seconds / 4, &svc, feeds, &tally);
  for (const auto& [t, n] : JournalSizes(svc)) inproc[t].second = n;
  WireProbe(ctx, srv->port(), &svc, &(*feeds)[1], &tally);

  // The traced replay's relations equal the served ones, byte for byte.
  const std::string served_state = svc.SerializeState();
  const auto replayed = ReplayWithSpans(ctx, svc, traced_from, inproc, reads);
  sql::Database served_db;
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> sampled;
  std::string err;
  if (!ctx.checks->Expect(storage::DeserializeServerState(served_state,
                                                          &served_db, &monitors,
                                                          &err, &sampled),
                          "served state: " + err)) {
    return;
  }
  for (const char* t : kTables) {
    ctx.checks->Expect(storage::SerializeRelation(replayed->Get(t)) ==
                           storage::SerializeRelation(served_db.Get(t)),
                       std::string("traced replay: ") + t + " differs");
  }
  // Compaction cost of the served lineitem table as the run left it.
  for (int i = 0; i < 5; ++i) {
    relation::Relation copy = served_db.Get("lineitem");
    const auto t0 = Clock::now();
    copy.Compact();
    ctx.rec->Add("relation.compact_ms", MillisSince(t0));
  }
}

void RunIngest(const Context& ctx, const PhaseSize& size) {
  const auto tpch = MakeTpchAt(size.divisor, ctx.seed);
  const std::vector<std::string> preload = PreloadSql(tpch, ctx.seed);
  const int64_t preload_lines =
      static_cast<int64_t>(tpch.Get("lineitem").tuple_count());
  const int64_t preload_orders =
      static_cast<int64_t>(tpch.Get("orders").tuple_count());
  std::vector<OrderFeed> feeds;
  for (int w = 0; w < kWriters; ++w) {
    feeds.emplace_back(tpch, ctx.seed, w, kWriters, /*plant=*/w == 0);
  }

  // Set-up: empty server to ready-to-serve (tables loaded, FDs declared,
  // monitors materialized), repeated; the last server is the one used.
  std::unique_ptr<server::Server> srv;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();
    const auto t0 = Clock::now();
    server::Server::Options opts;
    opts.port = 0;
    srv = std::make_unique<server::Server>(opts);
    std::string err;
    if (!ctx.checks->Expect(srv->Start(&err), "server start: " + err)) return;
    server::Service& svc = srv->service();
    const auto sid = svc.OpenSession(nullptr);
    bool ok = true;
    for (const std::string& s : preload) {
      const std::string reply = svc.ExecuteLine(sid, s).reply;
      ok = ctx.checks->Expect(IsOk(reply), "preload: " + reply) && ok;
    }
    svc.CloseSession(sid);
    if (!ok) return;
    ctx.rec->Add("setup_s.ingest", MillisSince(t0) / 1000.0);
  }
  server::Service& svc = srv->service();
  // What a CHECKPOINT of the loaded server writes (SerializeState is its
  // content), per row. Taken before the loop: the loop's deletes leave
  // tombstones whose number follows the host's speed.
  ctx.rec->Add("snapshot_bytes_per_row",
               static_cast<double>(svc.SerializeState().size()) /
                   static_cast<double>(preload_lines + preload_orders));

  const std::map<std::string, size_t> traced_from = JournalSizes(svc);
  size_t drift_before = 0;
  for (const char* t : kTables) {
    drift_before += svc.DriftLog(t).size() + svc.SampledDriftLog(t).size();
  }

  Tally tally;
  const uint64_t drift_pushes = TcpLoop(ctx, size, srv->port(), &feeds, &tally);

  // Every drift event after set-up reached the subscribed writer.
  size_t drift_after = 0;
  for (const char* t : kTables) {
    drift_after += svc.DriftLog(t).size() + svc.SampledDriftLog(t).size();
  }
  ctx.checks->Expect(drift_pushes == drift_after - drift_before,
                     "drift pushes " + std::to_string(drift_pushes) +
                         " != drift events " +
                         std::to_string(drift_after - drift_before));

  // Final COUNT(*) equals the tally from the replies.
  const int64_t lines_live = preload_lines + tally.lineitem.load();
  const int64_t orders_live = preload_orders + tally.orders.load();
  const auto sid = svc.OpenSession(nullptr);
  const std::string lines =
      svc.ExecuteLine(sid, "SELECT COUNT(*) FROM lineitem").reply;
  const std::string orders =
      svc.ExecuteLine(sid, "SELECT COUNT(*) FROM orders").reply;
  svc.CloseSession(sid);
  ctx.checks->Expect(lines == "OK " + std::to_string(lines_live),
                     "lineitem COUNT(*) " + lines + " != tally");
  ctx.checks->Expect(orders == "OK " + std::to_string(orders_live),
                     "orders COUNT(*) " + orders + " != tally");

  // Serial replay of the journals reproduces the served state byte for
  // byte.
  const std::string served_state = svc.SerializeState();
  {
    server::Service::Options opts;
    opts.record_journal = false;
    server::Service replay(opts);
    const auto rid = replay.OpenSession(nullptr);
    bool ok = true;
    for (const char* t : kTables) {
      for (const std::string& s : svc.Journal(t)) {
        const std::string reply = replay.ExecuteLine(rid, s).reply;
        if (!IsOk(reply)) ok = false;
      }
    }
    ctx.checks->Expect(ok, "journal replay: a statement failed");
    ctx.checks->Expect(replay.SerializeState() == served_state,
                       "journal replay state differs from the served state");
  }

  if (!ctx.trace) return;
  TraceServedLayers(ctx, size.seconds, srv.get(), &feeds, traced_from);
  // A feed of its own: its orders land only on the dropped resumed copies.
  OrderFeed probe_feed(tpch, ctx.seed, 1, kWriters, /*plant=*/false);
  const std::string path =
      ctx.tmp_dir + "/ingest-" + std::to_string(ctx.seed) + ".fdsnap";
  TraceDurabilityLayers(ctx, svc, path, kUnrolledCycles, &probe_feed);
  std::remove(path.c_str());
}

}  // namespace perfbench
