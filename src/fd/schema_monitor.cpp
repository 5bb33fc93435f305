#include "fd/schema_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace fdevolve::fd {
namespace {

/// Distinct keys of the sampled rows' projection onto some attributes,
/// and how many of them appear exactly once (Good–Turing's f1).
struct ProjectionStats {
  size_t distinct = 0;
  size_t singletons = 0;
};

ProjectionStats Project(const relation::Relation& rel,
                        const std::vector<uint32_t>& rows,
                        const relation::AttrSet& attrs) {
  const std::vector<int> idx = attrs.ToVector();
  // Keys are the concatenated dictionary codes of the projection —
  // positionally comparable because codes identify values exactly
  // (kNullCode included), and cheap to hash as raw bytes.
  std::string key(idx.size() * sizeof(uint32_t), '\0');
  std::unordered_map<std::string, size_t> counts;
  counts.reserve(rows.size() * 2);
  for (uint32_t row : rows) {
    for (size_t a = 0; a < idx.size(); ++a) {
      const uint32_t code = rel.column(idx[a]).code(row);
      std::memcpy(key.data() + a * sizeof(uint32_t), &code, sizeof(uint32_t));
    }
    ++counts[key];
  }
  ProjectionStats stats;
  stats.distinct = counts.size();
  for (const auto& [k, c] : counts) {
    if (c == 1) ++stats.singletons;
  }
  return stats;
}

/// Good–Turing estimate of the population distinct count from `m` of `n`
/// rows (0 < m < n): each unseen row reveals a new key at the sample's
/// singleton rate f1/m, and at most one, so d + (n − m) caps it.
double EstimateDistinct(const ProjectionStats& stats, size_t m, size_t n) {
  const double d = static_cast<double>(stats.distinct);
  const double unseen = static_cast<double>(n - m);
  const double f1 = static_cast<double>(stats.singletons);
  return std::min(d + unseen * (f1 / static_cast<double>(m)), d + unseen);
}

/// One FD's measures estimated from the live sampled rows of a relation
/// with `live_rows` live rows. Only a sampled witness pair is certain
/// (two sampled rows agreeing on X and differing on Y exist in the full
/// relation too), so `exact` means "no sampled witness": a sampled
/// monitor never raises a false alarm, only possibly a late one. When the
/// sample is every live row the counts are exact and go through
/// MeasuresFromCounts, which makes a full-coverage sampled monitor
/// bit-identical to an exact one.
FdMeasures EstimateMeasures(const relation::Relation& rel,
                            const std::vector<uint32_t>& rows,
                            size_t live_rows, const Fd& fd) {
  const size_t m = rows.size();
  const ProjectionStats sx = Project(rel, rows, fd.lhs());
  const ProjectionStats sxy = Project(rel, rows, fd.AllAttrs());
  const ProjectionStats sy = Project(rel, rows, fd.rhs());
  if (m >= live_rows) {
    return MeasuresFromCounts(sx.distinct, sxy.distinct, sy.distinct);
  }
  // An empty sample of a non-empty relation knows nothing.
  if (m == 0) return MeasuresFromCounts(0, 0, 0);

  // Sampled excess: XY-keys beyond X-keys. e > 0 exhibits a witness
  // pair, and the population excess is at least e, so the XY estimate is
  // lifted to at least the X estimate plus e before forming the ratio.
  const size_t e = sxy.distinct - sx.distinct;
  const double est_x = EstimateDistinct(sx, m, live_rows);
  const double est_xy = std::max(EstimateDistinct(sxy, m, live_rows),
                                 est_x + static_cast<double>(e));
  const double est_y = EstimateDistinct(sy, m, live_rows);

  FdMeasures out;
  out.distinct_x = static_cast<size_t>(std::llround(est_x));
  out.distinct_xy = static_cast<size_t>(std::llround(est_xy));
  out.distinct_y = static_cast<size_t>(std::llround(est_y));
  out.confidence = est_x / est_xy;
  out.goodness = std::llround(est_x - est_y);
  out.exact = e == 0;
  return out;
}

}  // namespace

SchemaMonitor::SchemaMonitor(std::unique_ptr<relation::Relation> owned,
                             relation::Relation* shared, size_t check_interval)
    : owned_(std::move(owned)),
      rel_(owned_ ? owned_.get() : shared),
      eval_(*rel_),
      check_interval_(check_interval == 0 ? 1 : check_interval),
      observed_mutations_(rel_->appends_ever() + rel_->deletes_ever()),
      observed_compactions_(rel_->compactions()) {}

SchemaMonitor::SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                             size_t check_interval)
    : SchemaMonitor(std::make_unique<relation::Relation>(std::move(initial)),
                    nullptr, check_interval) {
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                             size_t check_interval)
    : SchemaMonitor(nullptr, shared, check_interval) {
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                             size_t check_interval, int /*threads*/)
    : SchemaMonitor(shared, std::move(fds), check_interval) {}

SchemaMonitor::SchemaMonitor(relation::Relation initial, std::vector<Fd> fds,
                             size_t check_interval, size_t capacity,
                             uint64_t seed)
    : SchemaMonitor(std::make_unique<relation::Relation>(std::move(initial)),
                    nullptr, check_interval) {
  sampler_ = std::make_unique<query::ReservoirSampler>(rel_, capacity, seed);
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, std::vector<Fd> fds,
                             size_t check_interval, size_t capacity,
                             uint64_t seed)
    : SchemaMonitor(nullptr, shared, check_interval) {
  sampler_ = std::make_unique<query::ReservoirSampler>(rel_, capacity, seed);
  RegisterFds(std::move(fds));
}

SchemaMonitor::SchemaMonitor(relation::Relation* shared, MonitorState state)
    : SchemaMonitor(nullptr, shared, state.check_interval) {
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

SchemaMonitor::SchemaMonitor(relation::Relation* shared, MonitorState state,
                             int /*threads*/)
    : SchemaMonitor(shared, std::move(state)) {}

SchemaMonitor::SchemaMonitor(MonitorCheckpoint checkpoint)
    : SchemaMonitor(
          std::make_unique<relation::Relation>(std::move(checkpoint.rel)),
          nullptr, checkpoint.check_interval) {
  inserts_since_check_ = checkpoint.inserts_since_check;
  checks_run_ = checkpoint.checks_run;
  Restore(std::move(checkpoint.fds), std::move(checkpoint.drift_log),
          checkpoint.reservoir);
}

void SchemaMonitor::RegisterFds(std::vector<Fd> fds) {
  monitored_.reserve(fds.size());
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
  m.measures = Measure(m.fd, LiveSample());
  m.was_exact_at_registration = m.measures.exact;
  m.violated = !m.measures.exact;
  if (m.violated) m.first_violation_at = rel_->tuple_count();
  monitored_.push_back(std::move(m));
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
    // Cross-check the carried measures only when the checkpoint holds no
    // unchecked inserts: with inserts_since_check == 0 the stored measures
    // were computed at exactly the current watermark, so a recomputation
    // must match bit for bit and a mismatch means a corrupt or mismatched
    // checkpoint. With pending inserts the stored measures are legitimately
    // stale (they date from the last check) and refresh at the next one.
    if (inserts_since_check_ == 0 &&
        !(Measure(m.fd, sample) == m.measures)) {
      throw std::invalid_argument(
          "SchemaMonitor: checkpointed measures for " +
          m.fd.ToString(rel_->schema()) +
          " disagree with the relation (corrupt or mismatched checkpoint)");
    }
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

FdMeasures SchemaMonitor::Measure(const Fd& fd,
                                  const std::vector<uint32_t>& sample) {
  if (sampler_) {
    return EstimateMeasures(*rel_, sample, rel_->live_count(), fd);
  }
  // The evaluator auto-advances over the appended suffix (and folds any
  // pending deletions) on the first query; every monitored FD's counts
  // are then O(1) reads off the maintained groupings.
  return ComputeMeasures(eval_, fd);
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

void SchemaMonitor::PushEvent(size_t fd_index, DriftKind kind, bool approx) {
  DriftEvent ev;
  ev.fd_index = fd_index;
  ev.tuple_count = rel_->live_count();
  ev.measures = monitored_[fd_index].measures;
  ev.kind = kind;
  ev.approx = approx;
  drift_log_.push_back(ev);
  if (on_drift_) on_drift_(ev);
}

std::vector<size_t> SchemaMonitor::CheckNow() {
  Observe();
  ++checks_run_;
  const std::vector<uint32_t> sample = LiveSample();
  // Events of a sampled monitor whose reservoir misses live rows carry
  // estimated measures.
  const bool approx = sampler_ && sample.size() < rel_->live_count();
  std::vector<size_t> violated;
  for (size_t i = 0; i < monitored_.size(); ++i) {
    MonitoredFd& m = monitored_[i];
    const bool was_violated = m.violated;
    m.measures = Measure(m.fd, sample);
    m.violated = !m.measures.exact;
    if (m.violated) {
      violated.push_back(i);
      if (!was_violated) {
        m.first_violation_at = rel_->tuple_count();
        PushEvent(i, DriftKind::kViolated, approx);
      }
    } else if (was_violated) {
      // The last violating witness pair is gone (deletes removed it, or a
      // sampled witness was evicted from the reservoir): the FD is exact
      // again. Unreachable for an exact monitor under append-only input.
      m.first_violation_at = 0;
      PushEvent(i, DriftKind::kRecovered, approx);
    }
  }
  return violated;
}

std::vector<RepairResult> SchemaMonitor::SuggestRepairs(
    const RepairOptions& opts) {
  std::vector<RepairResult> out;
  for (const auto& m : monitored_) {
    if (m.violated) out.push_back(Extend(*rel_, m.fd, opts));
  }
  return out;
}

void SchemaMonitor::AcceptRepair(size_t fd_index, const Repair& repair) {
  MonitoredFd& m = monitored_.at(fd_index);
  m.fd = repair.repaired;
  Register(m.fd);
  m.measures = Measure(m.fd, LiveSample());
  m.violated = !m.measures.exact;
  m.was_exact_at_registration = m.measures.exact;
  m.first_violation_at = m.violated ? rel_->tuple_count() : 0;
}

}  // namespace fdevolve::fd
