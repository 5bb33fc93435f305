#include "fd/schema_monitor.h"

#include <stdexcept>
#include <utility>

namespace fdevolve::fd {
namespace {

/// Field-exact equality, doubles compared bitwise-as-values: the restore
/// path recomputes measures through the same integer counts (or the same
/// estimation arithmetic), so an honest checkpoint matches exactly.
bool SameMeasures(const FdMeasures& a, const FdMeasures& b) {
  return a.distinct_x == b.distinct_x && a.distinct_xy == b.distinct_xy &&
         a.distinct_y == b.distinct_y && a.confidence == b.confidence &&
         a.goodness == b.goodness && a.exact == b.exact;
}

}  // namespace

SchemaMonitor::SchemaMonitor(std::unique_ptr<relation::Relation> owned,
                             relation::Relation* shared, size_t check_interval,
                             int threads)
    : owned_(std::move(owned)),
      rel_(owned_ ? owned_.get() : shared),
      eval_(*rel_, threads),
      check_interval_(check_interval == 0 ? 1 : check_interval),
      observed_mutations_(rel_->appends_ever() + rel_->deletes_ever()),
      observed_compactions_(rel_->compactions()) {}

SchemaMonitor::SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                             size_t check_interval, int threads)
    : SchemaMonitor(std::make_unique<relation::Relation>(std::move(initial)),
                    nullptr, check_interval, threads) {
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                             size_t check_interval, int threads)
    : SchemaMonitor(nullptr, shared, check_interval, threads) {
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                             size_t check_interval, size_t capacity,
                             uint64_t seed)
    : SchemaMonitor(std::make_unique<relation::Relation>(std::move(initial)),
                    nullptr, check_interval, /*threads=*/1) {
  sampler_ = std::make_unique<query::ReservoirSampler>(rel_, capacity, seed);
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                             size_t check_interval, size_t capacity,
                             uint64_t seed)
    : SchemaMonitor(nullptr, shared, check_interval, /*threads=*/1) {
  sampler_ = std::make_unique<query::ReservoirSampler>(rel_, capacity, seed);
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, MonitorState state,
                             int threads)
    : SchemaMonitor(nullptr, shared, state.check_interval, threads) {
  if (state.watermark != rel_->version()) {
    throw std::invalid_argument(
        "SchemaMonitor: monitor state was captured at watermark " +
        std::to_string(state.watermark) + " but the relation is at " +
        std::to_string(rel_->version()) +
        " (state paired with the wrong relation snapshot)");
  }
  inserts_since_check_ = state.inserts_since_check;
  checks_run_ = state.checks_run;
  Restore(std::move(state.fds), std::move(state.drift_log), state.reservoir);
}

SchemaMonitor::SchemaMonitor(MonitorCheckpoint checkpoint, int threads)
    : SchemaMonitor(
          std::make_unique<relation::Relation>(std::move(checkpoint.rel)),
          nullptr, checkpoint.check_interval, threads) {
  inserts_since_check_ = checkpoint.inserts_since_check;
  checks_run_ = checkpoint.checks_run;
  Restore(std::move(checkpoint.fds), std::move(checkpoint.drift_log),
          checkpoint.reservoir);
}

void SchemaMonitor::RegisterFds(std::vector<Fd> fds) {
  monitored_.reserve(fds.size());
  estimates_.reserve(fds.size());
  for (auto& f : fds) {
    AddFd(std::move(f));
  }
}

size_t SchemaMonitor::AddFd(Fd fd) {
  const relation::AttrSet all = rel_->schema().AllAttrs();
  if (!fd.AllAttrs().SubsetOf(all)) {
    throw std::invalid_argument(
        "SchemaMonitor: FD references attributes outside the relation "
        "schema");
  }
  Observe();
  MonitoredFd m;
  m.fd = std::move(fd);
  Register(m.fd);
  SampledMeasures est = Measure(m.fd, LiveSample());
  m.measures = est.measures;
  m.was_exact_at_registration = !est.witnessed_violation;
  m.violated = est.witnessed_violation;
  if (m.violated) m.first_violation_at = rel_->tuple_count();
  monitored_.push_back(std::move(m));
  estimates_.push_back(std::move(est));
  return monitored_.size() - 1;
}

void SchemaMonitor::Restore(
    std::vector<MonitoredFd> fds, std::vector<DriftEvent> drift_log,
    const std::optional<query::ReservoirState>& reservoir) {
  // The sampler's restore constructor validates the reservoir state
  // against the relation (watermark, compaction count, slot bounds).
  if (reservoir) {
    sampler_ = std::make_unique<query::ReservoirSampler>(rel_, *reservoir);
  }
  monitored_ = std::move(fds);
  drift_log_ = std::move(drift_log);
  estimates_.reserve(monitored_.size());
  const relation::AttrSet all = rel_->schema().AllAttrs();
  const std::vector<uint32_t> sample = LiveSample();
  for (auto& m : monitored_) {
    if (!m.fd.AllAttrs().SubsetOf(all)) {
      throw std::invalid_argument(
          "SchemaMonitor: checkpointed FD references attributes outside the "
          "relation schema");
    }
    // Re-materializing from the relation recovers the exact groupings the
    // checkpointed evaluator held (ids are append-stable first-appearance
    // ids — see the bit-identity invariant in query/distinct.h), and
    // re-estimating from the restored reservoir is a pure function of
    // (relation, reservoir slots).
    Register(m.fd);
    SampledMeasures est = Measure(m.fd, sample);
    // Cross-check the carried measures only when the checkpoint holds no
    // unchecked inserts: with inserts_since_check == 0 the stored measures
    // were computed at exactly the current watermark, so a recomputation
    // must match bit for bit and a mismatch means a corrupt or mismatched
    // checkpoint. With pending inserts the stored measures are legitimately
    // stale (they date from the last check) and refresh at the next one.
    if (inserts_since_check_ == 0 && !SameMeasures(est.measures, m.measures)) {
      throw std::invalid_argument(
          "SchemaMonitor: checkpointed measures for " +
          m.fd.ToString(rel_->schema()) +
          " disagree with the relation (corrupt or mismatched checkpoint)");
    }
    estimates_.push_back(std::move(est));
  }
}

MonitorCheckpoint SchemaMonitor::Checkpoint() const {
  return MonitorCheckpoint{*rel_,
                           monitored_,
                           drift_log_,
                           check_interval_,
                           inserts_since_check_,
                           checks_run_,
                           /*stream_batch_hint=*/0,
                           ReservoirState()};
}

MonitorState SchemaMonitor::State() const {
  return MonitorState{monitored_,
                      drift_log_,
                      check_interval_,
                      inserts_since_check_,
                      checks_run_,
                      rel_->version(),
                      ReservoirState()};
}

std::optional<query::ReservoirState> SchemaMonitor::ReservoirState() const {
  if (!sampler_) return std::nullopt;
  return sampler_->State();
}

SampledMeasures SchemaMonitor::Measure(const Fd& fd,
                                       const std::vector<uint32_t>& sample) {
  if (sampler_) {
    return EstimateMeasures(*rel_, sample, rel_->live_count(), fd);
  }
  // The evaluator auto-advances over the appended suffix (and folds any
  // pending deletions) on the first query; every monitored FD's counts
  // are then O(1) reads off the maintained groupings.
  SampledMeasures exact;
  exact.measures = ComputeMeasures(eval_, fd);
  exact.sample_rows = exact.live_rows = rel_->live_count();
  exact.witnessed_violation = !exact.measures.exact;
  return exact;
}

std::vector<uint32_t> SchemaMonitor::LiveSample() const {
  return sampler_ ? sampler_->LiveMembers() : std::vector<uint32_t>{};
}

void SchemaMonitor::Observe() {
  if (sampler_) {
    // Sync unconditionally, not just when a check is due: the sampler's
    // draw sequence depends on when it observes each append/compaction,
    // so folding at every statement boundary is what keeps serial replay
    // (and checkpoint/resume) bit-identical.
    sampler_->Sync();
    return;
  }
  if (rel_->compactions() == observed_compactions_) return;
  observed_compactions_ = rel_->compactions();
  // The evaluator drops every cached grouping when it observes the
  // compaction; re-materialize the monitored chains immediately so the
  // next checks go back to O(Δ) instead of degrading to count-only
  // recomputation.
  for (const auto& m : monitored_) Register(m.fd);
}

void SchemaMonitor::Register(const Fd& fd) {
  if (sampler_) return;
  // Materializing |π_X| and |π_XY| gives Advance() a chain to maintain;
  // from then on each check costs one table lookup per appended tuple per
  // chain level. |π_Y| needs no grouping: a single consequent is answered
  // from the column dictionary in O(1), and a multi-attribute consequent
  // is worth maintaining too.
  eval_.GroupFor(fd.lhs());
  eval_.GroupFor(fd.AllAttrs());
  if (fd.rhs().Count() > 1) eval_.GroupFor(fd.rhs());
}

void SchemaMonitor::Insert(const std::vector<relation::Value>& row) {
  rel_->AppendRow(row);
  Observe();
  ++observed_mutations_;
  Count(1);
}

void SchemaMonitor::InsertBatch(
    const std::vector<std::vector<relation::Value>>& rows) {
  if (rows.empty()) return;
  rel_->AppendRows(rows);
  Observe();
  observed_mutations_ += rows.size();
  Count(rows.size());
}

void SchemaMonitor::Poll() {
  Observe();
  // Cadence counts through the lifetime counters, not version(): a delete
  // leaves version() unchanged and a compaction shrinks it, but both must
  // advance the monitor toward its next check without underflow.
  const size_t mutations = rel_->appends_ever() + rel_->deletes_ever();
  if (mutations == observed_mutations_) return;
  const size_t delta = mutations - observed_mutations_;
  observed_mutations_ = mutations;
  Count(delta);
}

void SchemaMonitor::Count(size_t delta) {
  inserts_since_check_ += delta;
  if (inserts_since_check_ >= check_interval_) {
    inserts_since_check_ %= check_interval_;
    CheckNow();
  }
}

void SchemaMonitor::PushEvent(size_t fd_index, DriftKind kind,
                              const SampledMeasures& est) {
  DriftEvent ev;
  ev.fd_index = fd_index;
  ev.tuple_count = rel_->live_count();
  ev.measures = est.measures;
  ev.kind = kind;
  ev.approx = est.approx;
  ev.confidence_lo = est.confidence_lo;
  ev.confidence_hi = est.confidence_hi;
  ev.goodness_lo = est.goodness_lo;
  ev.goodness_hi = est.goodness_hi;
  drift_log_.push_back(ev);
  if (on_drift_) on_drift_(ev);
}

std::vector<size_t> SchemaMonitor::CheckNow() {
  Observe();
  ++checks_run_;
  const std::vector<uint32_t> sample = LiveSample();
  std::vector<size_t> violated;
  for (size_t i = 0; i < monitored_.size(); ++i) {
    MonitoredFd& m = monitored_[i];
    const bool was_violated = m.violated;
    estimates_[i] = Measure(m.fd, sample);
    const SampledMeasures& est = estimates_[i];
    m.measures = est.measures;
    m.violated = est.witnessed_violation;
    if (m.violated) {
      violated.push_back(i);
      if (!was_violated) {
        m.first_violation_at = rel_->tuple_count();
        PushEvent(i, DriftKind::kViolated, est);
      }
    } else if (was_violated) {
      // The last violating witness pair is gone (deletes removed it, or a
      // sampled witness was evicted from the reservoir): the FD is exact
      // again. Unreachable for an exact monitor under append-only input.
      m.first_violation_at = 0;
      PushEvent(i, DriftKind::kRecovered, est);
    }
    if (on_estimate_) on_estimate_(i, est);
  }
  return violated;
}

std::vector<RepairResult> SchemaMonitor::SuggestRepairs(
    const RepairOptions& opts) {
  std::vector<RepairResult> out;
  if (rel_->has_tombstones()) {
    // The repair search scans physical rows (tombstone-unaware by
    // design); hand it the live instance.
    const relation::Relation compacted = rel_->CompactedCopy();
    for (const auto& m : monitored_) {
      if (m.violated) out.push_back(Extend(compacted, m.fd, opts));
    }
    return out;
  }
  for (const auto& m : monitored_) {
    if (m.violated) {
      out.push_back(Extend(*rel_, m.fd, opts));
    }
  }
  return out;
}

void SchemaMonitor::AcceptRepair(size_t fd_index, const Repair& repair) {
  MonitoredFd& m = monitored_.at(fd_index);
  m.fd = repair.repaired;
  Register(m.fd);
  estimates_[fd_index] = Measure(m.fd, LiveSample());
  m.measures = estimates_[fd_index].measures;
  m.violated = estimates_[fd_index].witnessed_violation;
  m.was_exact_at_registration = !m.violated;
  m.first_violation_at = m.violated ? rel_->tuple_count() : 0;
}

}  // namespace fdevolve::fd
