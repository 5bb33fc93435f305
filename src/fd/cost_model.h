// Statistics-driven cost model for the repair search (in the spirit of
// Hyrise's linear cost model and DuckDB's statistics propagation).
//
// The model turns per-column `query::ColumnStats` into two things the
// planner needs:
//
//   1. A linear per-candidate evaluation-cost estimate. Evaluating one
//      candidate X∪{A} -> Y is two count-only refinement passes over the
//      live rows (C_X -> C_XA and C_XY -> C_XAY) plus the key/dictionary
//      work proportional to the groups the added column can create.
//
//   2. Sound cardinality bounds. |π_{S∪{A}}| ≤ min(n_live, |π_S|·slots(A))
//      where slots(A) is A's ndv plus a NULL slot, and projection counts
//      are monotone in the attribute set. Composing the per-attribute
//      factors bounds everything reachable below a branch, so branches
//      whose best reachable confidence cannot meet the target are pruned
//      before evaluation. All bound arithmetic saturates — a product that
//      would overflow clamps to SIZE_MAX and the bound stays sound.
#pragma once

#include <cstddef>
#include <vector>

#include "query/column_stats.h"
#include "relation/attr_set.h"
#include "relation/relation.h"

namespace fdevolve::fd {

class CostModel {
 public:
  /// \param stats live-row ColumnStats indexed by attribute — the ones
  ///        CandidatePool computed, which cover the pool's columns, or
  ///        query::ComputeColumnStats. Only attributes the model is asked
  ///        about need a filled entry.
  /// \param live_rows the relation's live row count.
  CostModel(std::vector<query::ColumnStats> stats, size_t live_rows);

  size_t live_rows() const { return live_rows_; }
  const query::ColumnStats& stats(int attr) const {
    return stats_[static_cast<size_t>(attr)];
  }

  /// Distinct slots attribute `attr` contributes to a grouping product
  /// (ndv + NULL slot). The factor by which adding it can multiply |π_X|.
  size_t GroupSlots(int attr) const { return stats(attr).group_slots(); }

  /// Estimated evaluation cost in milliseconds for one candidate that adds
  /// `attr`: two count-only sweeps over the live rows plus a per-slot
  /// dictionary-width term. Calibrated against bench_query_micro (a
  /// count-only dense refine pass sweeps ~1 ns/tuple on the reference
  /// AVX2 box; key/dictionary work ~0.25 ns/byte).
  double CandidateCostMs(int attr) const;

  /// `products[r]`: the saturating product of the `r` largest group-slot
  /// counts among `pool` — an upper bound on the multiplier any `r`
  /// further pool extensions can contribute. products[0] == 1; the vector
  /// has `max_extra + 1` entries.
  std::vector<size_t> TopSlotProducts(const relation::AttrSet& pool,
                                      int max_extra) const;

  /// Sound upper bound on |π_{base ∪ {attr} ∪ E}| for every extension set
  /// E drawn from the pool with slot-product ≤ `top_slot_product`, given
  /// |π_base| = base_distinct:
  ///   min(live_rows, base_distinct · slots(attr) · top_slot_product)
  size_t ReachableDistinctBound(size_t base_distinct, int attr,
                                size_t top_slot_product) const {
    return std::min(live_rows_,
                    query::SaturatingMul(
                        query::SaturatingMul(base_distinct, GroupSlots(attr)),
                        top_slot_product));
  }

  /// One candidate branch — the antecedent extension by `attr` and every
  /// superset of it within the depth limit — as a budget spends it.
  struct Branch {
    int attr = -1;
    size_t reachable_bound = 0;    ///< ReachableDistinctBound of the branch
    double best_confidence = 0.0;  ///< min(1, reachable_bound / |π_XUY|)
    double cost_ms = 0.0;          ///< CandidateCostMs(attr)
    bool prunable = false;         ///< no set below can meet the target
  };

  /// Scores the branch that adds `attr` to a base with |π_XU| = base_x and
  /// |π_XUY| = base_xy. `prunable` is the search's prune test: exactness
  /// (target >= 1) is decided on integers, approximate targets on the
  /// correctly-rounded ratio.
  Branch ScoreBranch(int attr, size_t base_x, size_t base_xy,
                     size_t top_slot_product, double target) const;

  /// Budget spend order, shared by the plan and the executing search:
  /// unprunable first, then high-signal (best confidence descending), then
  /// cheap (cost ascending), then attribute index for full determinism.
  static bool SpendsBefore(const Branch& a, const Branch& b);

 private:
  std::vector<query::ColumnStats> stats_;
  size_t live_rows_ = 0;
};

}  // namespace fdevolve::fd
