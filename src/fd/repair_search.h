// Extend (§4.3–4.4, Algorithm 3) and FindFDRepairs (Algorithm 1).
//
// Best-first search over antecedent extensions. The frontier is ordered by
// (number of added attributes ascending, candidate rank descending), so the
// first exact FD popped is a *minimal* repair; exhausting the frontier
// enumerates all minimal repairs. Supersets of already-found repairs are
// pruned — they are exact too, but never minimal.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fd/candidate_ranking.h"
#include "fd/fd.h"
#include "fd/measures.h"
#include "fd/ordering.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// \brief How much of the repair space to explore.
enum class SearchMode {
  kFirstRepair,  ///< stop at the first (minimal) repair found
  kAllRepairs,   ///< enumerate all minimal repairs (exponential worst case)
  kTopK,         ///< stop after `top_k` repairs
};

/// \brief Why a search returned (SearchStats::stop_reason).
enum class StopReason {
  kExhausted,       ///< frontier drained: every reachable candidate considered
  kMaxEvaluations,  ///< RepairOptions::max_evaluations cap hit
  kBudget,          ///< latency/cost budget (budget_ms / budget_cost) spent
  kTopK,            ///< requested repair count reached (kFirstRepair / kTopK)
};

/// Short token for logs and EXPLAIN: "exhausted", "max-evaluations",
/// "budget", "top-k".
const char* ToString(StopReason reason);

/// \brief Tuning knobs for one Extend run.
struct RepairOptions {
  SearchMode mode = SearchMode::kAllRepairs;
  size_t top_k = 3;  ///< used by SearchMode::kTopK; 0 means unlimited
                     ///< (equivalent to kAllRepairs)

  /// Maximum number of attributes to add to the antecedent (search depth).
  /// 0 means "up to the whole pool". The paper's algorithm is unbounded;
  /// benches bound it to keep the exponential frontier tractable.
  int max_added_attrs = 0;

  /// Safety valve on total candidate evaluations; 0 = unlimited.
  size_t max_evaluations = 0;

  /// §4.4 extension: when set (>= 0), repairs with |goodness| <= threshold
  /// are preferred. In kFirstRepair mode the search keeps going past a
  /// repair that violates the threshold (recording it as a fallback) until
  /// a within-threshold repair or exhaustion; in other modes the threshold
  /// only affects result ordering.
  int64_t goodness_threshold = -1;

  /// AFD extension (§2's approximate FDs): a candidate is accepted when
  /// its confidence reaches this target. 1.0 (default) demands exactness
  /// (Definition 4); e.g. 0.95 evolves the FD into an approximate FD that
  /// tolerates 5% residual inconsistency — typically a shorter repair.
  double target_confidence = 1.0;

  /// Execution width for candidate evaluation: 0 (default) resolves to
  /// `hardware_concurrency`, k >= 1 evaluates each frontier batch (the
  /// seed candidates, then every node expansion's children) across up to
  /// k executors of the shared thread pool — at 1, inline on the caller.
  ///
  /// Every candidate in a batch counts against its own per-worker scratch
  /// while sharing the batch's two materialized base groupings (C_XU and
  /// C_XUY) read-only; results are merged back in batch order with the
  /// same `seq` tie-break numbers at every width. Ranked output — repairs,
  /// measures, and all stats except `elapsed_ms` — is therefore
  /// bit-identical for every thread count.
  int threads = 0;

  /// Statistics-driven planning (fd::CostModel): candidates whose sound
  /// cardinality bound proves that no extension of the branch can reach
  /// `target_confidence` are skipped without evaluation (counted in
  /// SearchStats::pruned_by_bound). Planning changes order and work, never
  /// answers: with no budget configured, the repair set and its measures
  /// are bit-identical to the fixed-rank search (use_planner = false) at
  /// every thread count.
  bool use_planner = true;

  /// Wall-clock latency budget in milliseconds; 0 = unlimited. Checked
  /// between candidate evaluations, so it is best-effort and
  /// timing-dependent: two runs may truncate at different candidates.
  /// When a budget is set the planner spends it cheap/high-signal-first.
  double budget_ms = 0.0;

  /// Modeled-cost budget in milliseconds (CostModel::CandidateCostMs
  /// units); 0 = unlimited. Unlike budget_ms this is deterministic: the
  /// same (rel, fd, opts) always truncates at the same candidate.
  double budget_cost = 0.0;

  PoolOptions pool;
};

/// \brief One exact repair: the attribute set added to the original
/// antecedent.
struct Repair {
  relation::AttrSet added;  ///< U such that XU -> Y is exact
  Fd repaired;              ///< XU -> Y
  FdMeasures measures;      ///< confidence (==1) and goodness of XU -> Y
  /// True if the |g| <= goodness_threshold preference was met (always true
  /// when no threshold is configured).
  bool within_goodness_threshold = true;
};

/// \brief Search instrumentation.
///
/// Deterministic across thread counts except `elapsed_ms` (wall time).
struct SearchStats {
  size_t nodes_expanded = 0;        ///< frontier pops that were not exact
  size_t candidates_evaluated = 0;  ///< measure computations performed
  size_t frontier_peak = 0;         ///< max queue size
  size_t pruned_supersets = 0;      ///< skipped supersets of found repairs
  size_t pruned_by_bound = 0;       ///< skipped by the planner's cardinality bound
  /// Why the search returned. kExhausted means the full reachable space
  /// was considered; anything else means a limit truncated it.
  StopReason stop_reason = StopReason::kExhausted;
  /// Modeled cost (CostModel::CandidateCostMs) of the evaluations actually
  /// performed; 0 when no cost model was in play (planner off, no
  /// budget_cost).
  double planned_cost_ms = 0.0;
  double elapsed_ms = 0.0;
};

/// \brief Result of Extend on one FD.
struct RepairResult {
  Fd original;
  FdMeasures original_measures;
  bool already_exact = false;
  std::vector<Repair> repairs;  ///< minimal repairs in discovery rank order
  SearchStats stats;

  bool found() const { return !repairs.empty(); }
  /// The designer-facing suggestion: best repair or nullopt.
  std::optional<Repair> best() const {
    if (repairs.empty()) return std::nullopt;
    return repairs.front();
  }
};

/// \brief Runs Algorithm 3 on a single FD.
///
/// \param rel the (drifted) instance; must outlive the call only. It may
///        carry tombstones: every count, the candidate pool and the
///        planner's statistics cover its live rows only, so the result
///        equals Extend on the compacted relation.
/// \param fd the violated dependency X -> Y to repair.
/// \param opts search mode, depth/budget limits, AFD target, and the
///        `threads` execution width (see RepairOptions::threads).
/// \return all discovered minimal repairs in discovery rank order, plus
///         instrumentation. Deterministic for a given (rel, fd, opts)
///         modulo `stats.elapsed_ms`, for every thread count.
RepairResult Extend(const relation::Relation& rel, const Fd& fd,
                    const RepairOptions& opts = {});

/// \brief Outcome of Algorithm 1 over a whole declared FD set.
struct FindRepairsOutcome {
  std::vector<OrderedFd> order;        ///< repair order actually used
  std::vector<RepairResult> results;   ///< one per FD, in `order` sequence
};

/// \brief Runs Algorithm 1: orders the FDs by O_F, then repairs each
/// violated one. `opts.threads` applies to each per-FD Extend run.
FindRepairsOutcome FindFdRepairs(const relation::Relation& rel,
                                 const std::vector<Fd>& fds,
                                 const RepairOptions& opts = {},
                                 const OrderingOptions& ordering = {});

}  // namespace fdevolve::fd
