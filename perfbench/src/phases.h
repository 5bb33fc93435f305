// The user paths the benchmark times, one per workload, and the layer
// probes every workload's traced run makes on its own state.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "feed.h"
#include "record.h"
#include "server/server.h"

namespace perfbench {

/// Repetitions of each phase's set-up; the runner reports their median.
inline constexpr int kSetupReps = 3;

struct PhaseSize {
  size_t divisor = 100;   ///< TPC-H cardinalities = paper 1 GB / divisor
  double seconds = 0.0;   ///< minimum measuring time
  size_t min_samples = 0; ///< minimum samples per timed operation class
};

/// Data-feed path: three TCP sessions against an in-process server.
void RunIngest(const Context& ctx, const PhaseSize& size);

/// Durability path: churn, CHECKPOINT, Resume on a fresh service.
void RunDurability(const Context& ctx, const PhaseSize& size);

/// Journal length of each table the feed writes.
std::map<std::string, size_t> JournalSizes(
    const fdevolve::server::Service& svc);

/// Layer probes of the served write path (server, sql, relation, fd):
/// the feed mix in-process for `seconds` / 4 and at least 1000
/// operations per class, uncontended TCP and in-process round trips on
/// (*feeds)[1], then a single-session replay of the journals with one
/// span per layer call, covering the statements after `traced_from`.
/// Checks that the replayed relations equal the served ones. Needs the
/// service's journal from its first statement.
void TraceServedLayers(const Context& ctx, double seconds,
                       fdevolve::server::Server* srv,
                       std::vector<OrderFeed>* feeds,
                       const std::map<std::string, size_t>& traced_from);

/// Layer probes of the durability path (storage, fd restore, query,
/// relation): `unrolled_cycles` checkpoints and resumes of `svc`'s state
/// unrolled into their public steps, one span each, at `path`; then, on
/// the state resumed from `path`, the relations' bytes per live row, the
/// monitored FDs' GroupBys and the first write after five fresh resumes
/// (orders from `probe_feed`, which must not write to `svc`).
void TraceDurabilityLayers(const Context& ctx,
                           const fdevolve::server::Service& svc,
                           const std::string& path, size_t unrolled_cycles,
                           OrderFeed* probe_feed);

}  // namespace perfbench
