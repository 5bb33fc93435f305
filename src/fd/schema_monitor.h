// Continuous FD validation over an evolving instance (§1's "periodic or
// continuous checks of FD validity").
//
// The monitor watches a relation that receives inserts; every
// `check_interval` mutations (inserts and deletes both count) it
// re-validates the declared FDs and records which of them drifted from
// exact to violated — or, under deletions, recovered from violated back to
// exact. The designer then asks for repair suggestions on the drifted set.
//
// One check loop, two measure sources, fixed at construction:
//
//   * **exact** (the default) — the monitor owns one query::DistinctEvaluator
//     for its whole lifetime and materializes the |π_X| / |π_XY| groupings
//     of every monitored FD once, at registration. Each check then
//     advances those groupings over just the rows appended since the
//     previous check — O(Δ) per check instead of the O(n) a from-scratch
//     evaluator pays — and reads the violation state straight off the
//     maintained group counts: an exact X→Y breaks exactly when a new
//     tuple lands in an existing X-group under a new XY-key, which is the
//     one event that moves |π_XY| without |π_X|. Deletions fold in at the
//     same cost class (per-group live refcounts); removing the last witness
//     of a violating XY-pair is the violated→exact transition the recovery
//     event reports. A compaction resets the evaluator; the monitor
//     detects it (Relation::compactions()) and re-materializes every
//     monitored grouping so subsequent checks stay O(Δ).
//
//   * **sampled** (`capacity`/`seed` constructors) — measures are
//     *estimated* from a deterministic reservoir sample
//     (query::ReservoirSampler) under a fixed memory budget, with an error
//     interval per estimate (fd/sampled_estimate.h). A sampled monitor
//     flags "violated" only on *certain* evidence — a sampled witness pair
//     (two sampled rows agreeing on X, differing on Y) — so it never raises
//     a false drift alarm, only possibly a late one; recovery is reported
//     when no sampled witness remains. The estimate sequence is a pure
//     function of (seed, statement order): the sampler consumes a fixed
//     number of draws per offered row, and checkpoints carry its full
//     state. When the reservoir covers every row ever offered, estimation
//     collapses to the exact arithmetic and the monitor is bit-identical to
//     an exact one fed the same stream, checkpoint bytes included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fd/repair_search.h"
#include "fd/sampled_estimate.h"
#include "query/distinct.h"
#include "query/reservoir.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// State of one declared FD at the latest check.
struct MonitoredFd {
  Fd fd;
  FdMeasures measures;
  bool was_exact_at_registration = false;
  bool violated = false;
  /// Tuple count at which the FD first became violated (0 if never).
  size_t first_violation_at = 0;
};

/// Direction of a drift transition.
enum class DriftKind : uint8_t {
  kViolated = 0,   ///< exact → violated (an insert broke the FD)
  kRecovered = 1,  ///< violated → exact (deletes removed every witness)
};

/// Event emitted when a monitored FD crosses the exact/violated boundary
/// in either direction. Under an append-only workload only kViolated is
/// reachable; kRecovered requires deletions.
struct DriftEvent {
  size_t fd_index = 0;
  /// Live tuples at the transition (== tuple_count() when no tombstones).
  size_t tuple_count = 0;
  FdMeasures measures;
  DriftKind kind = DriftKind::kViolated;

  /// True when the event came from a sampled monitor estimating from a
  /// strict subset of the live rows; the interval fields below then
  /// bracket the true confidence/goodness (see fd/sampled_estimate.h).
  /// Exact monitors — and sampled monitors whose reservoir covered every
  /// live row — leave all five fields at their defaults, so an exact
  /// event serializes identically whichever measure source emitted it
  /// (the sample_rate=1.0 bit-identity gate depends on this).
  bool approx = false;
  double confidence_lo = 1.0;
  double confidence_hi = 1.0;
  double goodness_lo = 0.0;
  double goodness_hi = 0.0;
};

/// Complete resumable state of a SchemaMonitor — everything a monitoring
/// process needs to stop and pick up mid-stream without replaying it.
///
/// The long-lived evaluator's groupings are deliberately *not* part of the
/// checkpoint: every grouping is a bit-identical function of the relation
/// (ids are dense first-appearance ids, append-stable under Advance), so
/// the restore constructor re-materializes them from the relation and
/// recovers the exact evaluator state the checkpointed monitor had. The
/// per-FD measures are carried anyway; when the checkpoint holds no
/// unchecked inserts (inserts_since_check == 0, so the stored measures
/// date from exactly the current watermark) they are cross-checked against
/// the re-materialized counters, turning a checkpoint/relation mismatch
/// (corruption, wrong file pairing) into a load-time error instead of a
/// silently wrong monitor.
struct MonitorCheckpoint {
  relation::Relation rel;            ///< owned relation at the watermark
  std::vector<MonitoredFd> fds;      ///< registered FDs + drift state
  std::vector<DriftEvent> drift_log;
  size_t check_interval = 1;
  size_t inserts_since_check = 0;
  size_t checks_run = 0;

  /// Streaming batch size of the driver that wrote the checkpoint (0 =
  /// unknown). Not monitor state — InsertBatch cadence depends on how the
  /// caller batches, so a resuming driver needs the original batch to
  /// reproduce the exact check sequence. Checkpoint() leaves it 0; the
  /// driver (e.g. the CLI) fills it in before serializing.
  size_t stream_batch_hint = 0;

  /// Sampler state of a sampled monitor (slots + raw generator state, so
  /// a resumed monitor replays the identical remaining estimate
  /// sequence); absent for an exact monitor. Persisted as FDEV kind 5
  /// when present, kind 3 otherwise.
  std::optional<query::ReservoirState> reservoir;
};

/// A MonitorCheckpoint minus the relation — the resumable state of a
/// monitor that does *not* own its relation (external mode, see the
/// shared-relation SchemaMonitor constructors). The server persists the
/// shared catalog once and one MonitorState per monitor next to it,
/// instead of embedding a copy of the relation in every checkpoint.
struct MonitorState {
  std::vector<MonitoredFd> fds;
  std::vector<DriftEvent> drift_log;
  size_t check_interval = 1;
  size_t inserts_since_check = 0;
  size_t checks_run = 0;
  /// rel().version() at capture time. Restore refuses a relation whose
  /// watermark differs — the state would be paired with rows it never
  /// observed (or rows it observed would be missing).
  size_t watermark = 0;
  /// Sampler state of a sampled monitor; absent for an exact one.
  std::optional<query::ReservoirState> reservoir;
};

/// Periodic validation loop.
///
/// Two ownership modes:
///   * **owning** — the monitor owns the relation and is fed through
///     Insert()/InsertBatch() (the CLI's streaming loop);
///   * **external** — the monitor observes a relation owned by someone
///     else (the server's shared catalog: the SQL engine appends, many
///     monitors watch). The caller mutates through its own path and calls
///     Poll() afterwards; the monitor folds the mutations in and runs a
///     check when the interval elapses. The relation must outlive the
///     monitor and be quiescent during every monitor call (the server
///     holds the table's write lock for both the mutation and the Poll).
///
/// Both modes take either measure source (see the file comment); cadence,
/// counters and interval arithmetic are the same for both.
///
/// Not copyable or movable: the evaluator and the sampler hold a
/// reference to the relation.
class SchemaMonitor {
 public:
  /// Exact, owning. `check_interval`: re-validate after this many
  /// inserts (>=1). `threads`: execution width for the evaluator's
  /// refinement passes (0 = hardware_concurrency, 1 = exact sequential
  /// path); results are identical for every value.
  SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                size_t check_interval = 1, int threads = 0);

  /// Exact, external: monitors `*shared` without owning it (see class
  /// comment). Measures are computed at the relation's current watermark.
  SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                size_t check_interval = 1, int threads = 0);

  /// Sampled, owning. `capacity` is the reservoir slot budget (>= 1);
  /// `seed` drives every sampling decision.
  SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                size_t check_interval, size_t capacity, uint64_t seed);

  /// Sampled, external.
  SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                size_t check_interval, size_t capacity, uint64_t seed);

  /// External-mode restore: rebinds a captured MonitorState to `*shared`,
  /// recovering the exact monitor the state was taken from — sampled iff
  /// the state carries a reservoir. Exact groupings are re-materialized
  /// from the relation (every grouping is a bit-identical function of it:
  /// ids are dense first-appearance ids, append-stable under Advance);
  /// the sampler is restored verbatim. Throws std::invalid_argument if the
  /// relation's watermark (or, sampled, compaction count) differs from the
  /// state's, if an FD references attributes outside the schema, or if
  /// the carried measures disagree with recomputation while comparable
  /// (inserts_since_check == 0 — the stored measures then date from
  /// exactly the current watermark, so a mismatch means a corrupt or
  /// mismatched state).
  SchemaMonitor(relation::Relation* shared, MonitorState state,
                int threads = 0);

  /// Owning-mode restore from a checkpoint (same rules): restores the
  /// relation, registered FDs, drift log, interval position and sampler
  /// verbatim. The resumed monitor emits the exact check sequence the
  /// checkpointed one would have — measures, drift events, and counters
  /// are bit-identical from here on.
  explicit SchemaMonitor(MonitorCheckpoint checkpoint, int threads = 0);

  SchemaMonitor(const SchemaMonitor&) = delete;
  SchemaMonitor& operator=(const SchemaMonitor&) = delete;

  /// Snapshot of the complete resumable state (copies the relation).
  MonitorCheckpoint Checkpoint() const;

  /// Snapshot of the relation-free resumable state (external mode's
  /// checkpoint; pair it with the relation persisted elsewhere).
  MonitorState State() const;

  const relation::Relation& rel() const { return *rel_; }
  const std::vector<MonitoredFd>& fds() const { return monitored_; }
  const std::vector<DriftEvent>& drift_log() const { return drift_log_; }

  /// Latest per-FD measures with their intervals (parallel to fds();
  /// refreshed at every check and at registration). Exact monitors report
  /// degenerate intervals and approx == false.
  const std::vector<SampledMeasures>& estimates() const { return estimates_; }

  /// Optional callback invoked on each new drift event.
  void OnDrift(std::function<void(const DriftEvent&)> cb) {
    on_drift_ = std::move(cb);
  }

  /// Invoked once per monitored FD per check with the fresh estimate —
  /// the estimate *sequence* the determinism and resume suites assert on.
  void OnEstimate(
      std::function<void(size_t fd_index, const SampledMeasures&)> cb) {
    on_estimate_ = std::move(cb);
  }

  /// Ingests one tuple; runs a check when the interval elapses.
  void Insert(const std::vector<relation::Value>& row);

  /// Ingests a batch of tuples (all-or-nothing validation, see
  /// relation::Relation::AppendRows); runs at most one check per batch,
  /// when the accumulated insert count crosses the interval.
  void InsertBatch(const std::vector<std::vector<relation::Value>>& rows);

  /// External-mode observation: folds mutations (appends AND deletes)
  /// applied to the relation since the monitor last looked into the
  /// mutation counter, and runs at most one check when the accumulated
  /// count crosses the interval — the same cadence InsertBatch gives a
  /// batch of that size. Counts through Relation::appends_ever() /
  /// deletes_ever(), so a compaction (which shrinks version()) cannot make
  /// the interval arithmetic underflow. A sampled monitor also folds the
  /// physical delta into its reservoir on every call, so Poll must be
  /// called at the same statement boundaries on a replay as on the
  /// original run (the server calls it after every mutation statement)
  /// for the sampler's draw sequence to reproduce.
  void Poll();

  /// Registers an additional FD on the live monitor (the server's DECLARE
  /// FD path) and measures it at the current watermark. Throws
  /// std::invalid_argument if the FD references attributes outside the
  /// schema. Returns its index in fds().
  size_t AddFd(Fd fd);

  /// Forces a validation pass; returns indices of currently violated FDs
  /// (sampled: FDs with a sampled witness, i.e. certainly violated).
  /// Exact cost is O(mutations since the previous check) — the pass
  /// advances the maintained groupings, folds pending deletions, and reads
  /// the live-group counters. Emits a kViolated event per exact→violated
  /// transition and a kRecovered event per violated→exact transition.
  std::vector<size_t> CheckNow();

  /// Suggests repairs for every currently violated FD. When the relation
  /// carries tombstones the search runs on a CompactedCopy() — the repair
  /// search scans physical rows and is tombstone-unaware by design.
  std::vector<RepairResult> SuggestRepairs(const RepairOptions& opts = {});

  /// Designer accepts a repair: the declared FD is replaced by the repaired
  /// one and its drift state resets. Exact monitors materialize the
  /// repaired FD's groupings so subsequent checks stay O(Δ). Throws
  /// std::out_of_range on bad index.
  ///
  /// The superseded FD's groupings stay in the evaluator cache and keep
  /// being maintained — they cannot be evicted, because the repaired FD's
  /// grouping chains are typically derived from them (the repaired
  /// antecedent is a superset of the old one). Per-check cost is therefore
  /// O(Δ × tracked groupings), growing by a couple of chains per accepted
  /// repair; the designer loop accepts a handful of repairs over a
  /// monitor's lifetime, so this stays small in practice.
  void AcceptRepair(size_t fd_index, const Repair& repair);

  /// Number of validation passes run so far (instrumentation).
  size_t checks_run() const { return checks_run_; }

  size_t check_interval() const { return check_interval_; }

  /// Resolved execution width of the underlying evaluator.
  int threads() const { return eval_.threads(); }

  /// True when measures are estimated from a reservoir sample.
  bool sampled() const { return sampler_ != nullptr; }
  /// Reservoir slot budget and seed (0 for an exact monitor).
  size_t sample_capacity() const { return sampler_ ? sampler_->capacity() : 0; }
  uint64_t sample_seed() const { return sampler_ ? sampler_->seed() : 0; }

 private:
  /// Shared initialization of every public constructor: binds the relation
  /// (`owned` when non-null, else `shared`) and the cadence counters.
  SchemaMonitor(std::unique_ptr<relation::Relation> owned,
                relation::Relation* shared, size_t check_interval,
                int threads);

  /// The sampler's state, absent for an exact monitor.
  std::optional<query::ReservoirState> ReservoirState() const;

  /// Shared registration path of the fresh constructors.
  void RegisterFds(std::vector<Fd> fds);

  /// Shared validation/re-registration path of the restore constructors:
  /// adopts the monitored FDs + drift log (and the sampler, when
  /// `reservoir` is present), and cross-checks carried measures when
  /// comparable.
  void Restore(std::vector<MonitoredFd> fds, std::vector<DriftEvent> drift_log,
               const std::optional<query::ReservoirState>& reservoir);

  // --- The mode-dependent steps; everything else is written once.

  /// Measures one FD: exact counts off the evaluator (wrapped with
  /// degenerate intervals), or an estimate from `sample`.
  SampledMeasures Measure(const Fd& fd, const std::vector<uint32_t>& sample);
  /// Live reservoir members to estimate from (empty when exact).
  std::vector<uint32_t> LiveSample() const;
  /// Folds what happened to the relation into the measure source: exact
  /// re-materializes the monitored groupings after an observed compaction
  /// (the evaluator dropped its caches); sampled syncs the reservoir.
  void Observe();
  /// Exact: materializes the FD's antecedent and full-attribute groupings
  /// so Advance() maintains them from here on. Sampled: nothing.
  void Register(const Fd& fd);

  /// Adds `delta` mutations toward the next check and runs it when due.
  void Count(size_t delta);

  /// Appends a drift event to the log and fires the callback.
  void PushEvent(size_t fd_index, DriftKind kind, const SampledMeasures& est);

  std::unique_ptr<relation::Relation> owned_;  ///< null in external mode
  relation::Relation* rel_;                    ///< owned_ or the shared one
  query::DistinctEvaluator eval_;  ///< exact source; advanced, never rebuilt
  std::unique_ptr<query::ReservoirSampler> sampler_;  ///< null = exact
  std::vector<MonitoredFd> monitored_;
  std::vector<SampledMeasures> estimates_;
  std::vector<DriftEvent> drift_log_;
  std::function<void(const DriftEvent&)> on_drift_;
  std::function<void(size_t, const SampledMeasures&)> on_estimate_;
  size_t check_interval_;
  size_t inserts_since_check_ = 0;  ///< mutations accumulated toward a check
  size_t checks_run_ = 0;
  /// appends_ever() + deletes_ever() last observed — the cadence counter
  /// (monotone across compactions, unlike version()).
  size_t observed_mutations_ = 0;
  size_t observed_compactions_ = 0;  ///< compactions() last observed
};

}  // namespace fdevolve::fd
