// Durability path, in-process through the server's Service: a churn batch
// via ExecuteLine, CHECKPOINT, then Resume on a fresh Service — what
// bringing up a restarted (or standby) server from each checkpoint costs.
// The original service keeps serving; the resumed one is checked and
// dropped. The traced run alternates cycles: odd cycles time the two
// operations unrolled into their public steps, one span each, as that
// run's end-to-end samples; even cycles time the real operations as
// "untraced.*" samples. Interleaved in one process, the two compare
// without the host's drift between runs (trace.overhead_ratio).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "fd/sampled_monitor.h"
#include "fd/schema_monitor.h"
#include "feed.h"
#include "phases.h"
#include "query/group_ids.h"
#include "server/service.h"
#include "storage/snapshot.h"

namespace perfbench {

namespace fd = fdevolve::fd;
namespace query = fdevolve::query;
namespace server = fdevolve::server;
namespace sql = fdevolve::sql;
namespace storage = fdevolve::storage;

namespace {

constexpr double kMaxLoopSeconds = 100.0;
constexpr int kChurnOps = 10;
/// Untimed first cycles: file creation and allocator warm-up.
constexpr size_t kWarmupCycles = 2;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::string bytes(static_cast<size_t>(std::max<std::streamoff>(in.tellg(), 0)),
                    '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

bool IsOk(const std::string& reply) { return reply.rfind("OK", 0) == 0; }

/// Service::SaveCheckpoint unrolled: serialize the service state (the
/// bytes SaveCheckpoint writes), then write the file. Returns false when
/// the file cannot be written.
bool TracedCheckpoint(const Context& ctx, const server::Service& svc,
                      const std::string& path, bool timed) {
  Tracer* tr = ctx.tracer;
  const auto t0 = Clock::now();
  Tracer::Span root(tr, "durability.checkpoint");
  std::string bytes;
  {
    Tracer::Span s(tr, "storage.serialize");
    bytes = svc.SerializeState();
  }
  const double serialize_ms = MillisSince(t0);
  bool ok = false;
  {
    Tracer::Span s(tr, "storage.write");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    ok = out.good();
  }
  if (timed) {
    const double total_ms = MillisSince(t0);
    ctx.rec->Add("checkpoint_ms", total_ms);
    ctx.rec->Add("storage.serialize_ms", serialize_ms);
    ctx.rec->Add("storage.write_ms", total_ms - serialize_ms);
  }
  return ok;
}

/// What Service::Resume builds: the restored catalog and its monitors.
struct Restored {
  std::unique_ptr<sql::Database> db = std::make_unique<sql::Database>();
  std::vector<std::pair<std::string, std::unique_ptr<fd::SchemaMonitor>>>
      monitors;
  std::vector<
      std::pair<std::string, std::unique_ptr<fd::SampledSchemaMonitor>>>
      sampled;

  /// The restored state in Service::SerializeState's form.
  std::string Serialize() const {
    std::vector<storage::ServerMonitorState> exact_states;
    std::vector<storage::ServerSampledMonitorState> sampled_states;
    for (const auto& [table, m] : monitors) {
      exact_states.push_back({table, m->State()});
    }
    for (const auto& [table, m] : sampled) {
      sampled_states.push_back({table, m->State()});
    }
    return storage::SerializeServerState(*db, exact_states, sampled_states);
  }
};

/// Service::Resume unrolled into its public calls — read, deserialize,
/// rebuild the monitors over the restored relations — one span each. The
/// result outlives the root span, as a resumed service's state does.
std::unique_ptr<Restored> TracedResume(const Context& ctx,
                                       const std::string& path, bool timed) {
  Tracer* tr = ctx.tracer;
  auto out = std::make_unique<Restored>();
  const auto t_root = Clock::now();
  Tracer::Span root(tr, "durability.resume");
  std::string bytes;
  {
    Tracer::Span s(tr, "storage.read");
    bytes = ReadFile(path);
  }
  std::vector<storage::ServerMonitorState> monitors;
  std::vector<storage::ServerSampledMonitorState> sampled;
  std::string err;
  bool ok = false;
  auto t0 = Clock::now();
  {
    Tracer::Span s(tr, "storage.deserialize");
    ok = storage::DeserializeServerState(bytes, out->db.get(), &monitors,
                                         &err, &sampled);
  }
  if (timed) ctx.rec->Add("storage.deserialize_ms", MillisSince(t0));
  if (!ctx.checks->Expect(ok, "traced resume: " + err)) return out;
  t0 = Clock::now();
  {
    Tracer::Span s(tr, "fd.monitor_restore");
    for (const auto& m : monitors) {
      out->monitors.emplace_back(
          m.table, std::make_unique<fd::SchemaMonitor>(
                       &out->db->GetMutable(m.table), m.state, /*threads=*/1));
    }
    for (const auto& m : sampled) {
      out->sampled.emplace_back(
          m.table, std::make_unique<fd::SampledSchemaMonitor>(
                       &out->db->GetMutable(m.table), m.state));
    }
  }
  if (timed) {
    ctx.rec->Add("fd.monitor_restore_ms", MillisSince(t0));
    ctx.rec->Add("resume_ms", MillisSince(t_root));
  }
  return out;
}

/// GroupBy over each declared FD's antecedent and antecedent+consequent:
/// the groupings a restored monitor re-materializes.
void GroupByProbe(const Context& ctx, const sql::Database& db) {
  for (const auto& declared : db.Fds()) {
    const auto& rel = db.Get(declared.table);
    for (const auto& attrs :
         {declared.fd.lhs(), declared.fd.lhs().Union(declared.fd.rhs())}) {
      const auto t0 = Clock::now();
      const query::Grouping g = query::GroupBy(rel, attrs);
      ctx.rec->Add("query.group_by_ms", MillisSince(t0));
      ctx.checks->Expect(g.ids.size() == rel.tuple_count(),
                         "group-by probe: wrong id count");
    }
  }
}

}  // namespace

void TraceDurabilityLayers(const Context& ctx, const server::Service& svc,
                           const std::string& path, size_t unrolled_cycles,
                           OrderFeed* probe_feed) {
  for (size_t cycle = 0; cycle < unrolled_cycles; ++cycle) {
    if (!ctx.checks->Expect(TracedCheckpoint(ctx, svc, path, true),
                            "traced checkpoint: cannot write the file")) {
      return;
    }
    ctx.rec->Add("storage.snapshot_bytes",
                 static_cast<double>(std::filesystem::file_size(path)));
    const auto restored = TracedResume(ctx, path, true);
    if (cycle % 4 == 0) {
      ctx.checks->Expect(restored->Serialize() == ReadFile(path),
                         "resumed state differs from the checkpoint");
    }
  }

  const auto restored = TracedResume(ctx, path, false);
  const sql::Database& db = *restored->db;
  double bytes = 0, live = 0;
  for (const auto& name : db.TableNames()) {
    bytes += static_cast<double>(db.Get(name).EstimatedBytes());
    live += static_cast<double>(db.Get(name).live_count());
  }
  ctx.rec->Set("relation.bytes_per_live_row", bytes / live);
  GroupByProbe(ctx, db);
  // The first write after a resume rebuilds the dictionary indexes the
  // snapshot load deferred; time one order's INSERTs.
  server::Service::Options opts;
  opts.checkpoint_path = path;
  opts.record_journal = false;
  for (int i = 0; i < 5; ++i) {
    server::Service fresh(opts);
    std::string err;
    if (!ctx.checks->Expect(fresh.Resume(&err), "Resume: " + err)) break;
    const auto fid = fresh.OpenSession(nullptr);
    const auto w0 = Clock::now();
    bool ok = true;
    for (const FeedStatement& s : probe_feed->Insert()) {
      ok = IsOk(fresh.ExecuteLine(fid, s.sql).reply) && ok;
    }
    ctx.rec->Add("relation.first_write_after_resume_ms", MillisSince(w0));
    ctx.checks->Expect(ok, "first write after resume failed");
  }
}

void RunDurability(const Context& ctx, const PhaseSize& size) {
  const auto tpch = MakeTpchAt(size.divisor, ctx.seed);
  const std::vector<std::string> preload = PreloadSql(tpch, ctx.seed);
  // Two writers' disjoint key spaces: the churn continues writer 0's, and
  // the traced run's served-path probes use both.
  std::vector<OrderFeed> feeds;
  for (int w = 0; w < 2; ++w) {
    feeds.emplace_back(tpch, ctx.seed, w, 2, /*plant=*/false);
  }
  OrderFeed& churn = feeds[0];
  int64_t live_rows = static_cast<int64_t>(tpch.Get("lineitem").tuple_count() +
                                           tpch.Get("orders").tuple_count());

  server::Server::Options server_opts;
  server_opts.port = 0;
  server::Service::Options& opts = server_opts.service;
  opts.checkpoint_path = ctx.tmp_dir + "/checkpoint-" +
                         std::to_string(ctx.seed) + "-" +
                         std::to_string(size.divisor) + ".fdsnap";
  // The traced run replays the journal through the layers.
  opts.record_journal = ctx.trace;

  std::unique_ptr<server::Server> srv;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();
    const auto t0 = Clock::now();
    srv = std::make_unique<server::Server>(server_opts);
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
    ctx.rec->Add("setup_s.durability", MillisSince(t0) / 1000.0);
  }
  server::Service* svc = &srv->service();
  const std::map<std::string, size_t> traced_from = JournalSizes(*svc);

  // A traced run needs min_samples cycles of each kind.
  const size_t cycles = size.min_samples * (ctx.trace ? 2 : 1) + kWarmupCycles;
  const auto start = Clock::now();
  size_t cycle = 0;
  for (;; ++cycle) {
    const double elapsed = MillisSince(start) / 1000.0;
    if (elapsed >= kMaxLoopSeconds ||
        (elapsed >= size.seconds && cycle >= cycles)) {
      break;
    }
    const bool timed = cycle >= kWarmupCycles;
    const bool unrolled = ctx.trace && cycle % 2 == 1;
    auto add = [&](const std::string& name, double value) {
      if (timed) ctx.rec->Add(name, value);
    };
    // End-to-end samples of the real operations in a traced run.
    const std::string real = ctx.trace ? "untraced." : "";
    const auto sid = svc->OpenSession(nullptr);
    for (int op = 0; op < kChurnOps; ++op) {
      for (const FeedStatement& s : churn.Next()) {
        const std::string reply = svc->ExecuteLine(sid, s.sql).reply;
        const bool ok = ctx.checks->Expect(
            reply == "OK " + std::to_string(s.expect),
            "churn: " + s.sql.substr(0, 60) + " -> " + reply);
        if (ok && s.sql.rfind("UPDATE", 0) != 0) {
          live_rows += s.kind == FeedStatement::Kind::kInsert ? s.expect
                                                              : -s.expect;
        }
      }
    }

    bool saved = false;
    std::string what = "traced checkpoint: cannot write the file";
    if (unrolled) {
      saved = TracedCheckpoint(ctx, *svc, opts.checkpoint_path, timed);
    } else {
      const auto t0 = Clock::now();
      const std::string reply = svc->ExecuteLine(sid, "CHECKPOINT").reply;
      add(real + "checkpoint_ms", MillisSince(t0));
      saved = IsOk(reply);
      what = "CHECKPOINT: " + reply;
    }
    svc->CloseSession(sid);
    if (!ctx.checks->Expect(saved, what)) break;

    const double bytes =
        static_cast<double>(std::filesystem::file_size(opts.checkpoint_path));
    add("snapshot_bytes_per_row", bytes / static_cast<double>(live_rows));
    add("storage.snapshot_bytes", bytes);

    // The resumed state is the checkpointed state, byte for byte, every
    // 4th cycle (every other cycle of each kind in a traced run). The
    // resumed state is dropped at the end of the cycle.
    const bool check = cycle % 4 == 0 || (ctx.trace && cycle % 4 == 1);
    const std::string differs = "cycle " + std::to_string(cycle) +
                                ": resumed state differs from the checkpoint";
    if (unrolled) {
      const auto restored = TracedResume(ctx, opts.checkpoint_path, timed);
      if (check) {
        ctx.checks->Expect(restored->Serialize() ==
                               ReadFile(opts.checkpoint_path),
                           differs);
      }
      continue;
    }
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<server::Service>(opts);
    std::string err;
    const bool resumed = fresh->Resume(&err);
    add(real + "resume_ms", MillisSince(t0));
    if (!ctx.checks->Expect(resumed, "Resume: " + err)) break;
    if (check) {
      ctx.checks->Expect(
          fresh->SerializeState() == ReadFile(opts.checkpoint_path), differs);
    } else {
      ctx.checks->Passed(1);
    }
  }

  if (ctx.trace) {
    // Probes on the last checkpoint, after the timed cycles, then on the
    // served write path.
    OrderFeed probe_feed(tpch, ctx.seed, 1, 2, /*plant=*/false);
    TraceDurabilityLayers(ctx, *svc, opts.checkpoint_path, 0, &probe_feed);
    TraceServedLayers(ctx, size.seconds, srv.get(), &feeds, traced_from);
  }
  srv.reset();  // its shutdown writes a last checkpoint
  std::remove(opts.checkpoint_path.c_str());
}

}  // namespace perfbench
