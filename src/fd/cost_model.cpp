#include "fd/cost_model.h"

#include <algorithm>
#include <utility>

namespace fdevolve::fd {
namespace {

// Calibration constants, from bench_query_micro on the reference AVX2 box:
// a count-only dense refinement pass sweeps roughly one nanosecond per live
// tuple, and fresh-group key/dictionary work costs roughly a quarter of a
// nanosecond per encoded byte. The model only needs relative accuracy —
// budgets and orderings care about ratios, not absolute wall time.
constexpr double kNsPerTupleSweep = 1.0;
constexpr double kNsPerDictByte = 0.25;

}  // namespace

CostModel::CostModel(std::vector<query::ColumnStats> stats, size_t live_rows)
    : stats_(std::move(stats)), live_rows_(live_rows) {}

double CostModel::CandidateCostMs(int attr) const {
  const query::ColumnStats& s = stats(attr);
  // Two count-only sweeps (C_X -> C_XA, C_XY -> C_XAY) over the live rows,
  // plus dictionary work proportional to the groups the column can create.
  const double sweep_ns =
      2.0 * static_cast<double>(live_rows_) * kNsPerTupleSweep;
  const double key_ns = static_cast<double>(s.group_slots()) *
                        s.avg_dict_width * kNsPerDictByte;
  return (sweep_ns + key_ns) * 1e-6;
}

CostModel::Branch CostModel::ScoreBranch(int attr, size_t base_x,
                                         size_t base_xy,
                                         size_t top_slot_product,
                                         double target) const {
  Branch b;
  b.attr = attr;
  b.reachable_bound = ReachableDistinctBound(base_x, attr, top_slot_product);
  b.cost_ms = CandidateCostMs(attr);
  if (base_xy == 0) {
    b.best_confidence = 1.0;
    return b;
  }
  const double ratio = static_cast<double>(b.reachable_bound) /
                       static_cast<double>(base_xy);
  b.best_confidence = std::min(1.0, ratio);
  b.prunable =
      target >= 1.0 ? b.reachable_bound < base_xy : ratio < target;
  return b;
}

bool CostModel::SpendsBefore(const Branch& a, const Branch& b) {
  if (a.prunable != b.prunable) return !a.prunable;
  if (a.best_confidence != b.best_confidence) {
    return a.best_confidence > b.best_confidence;
  }
  if (a.cost_ms != b.cost_ms) return a.cost_ms < b.cost_ms;
  return a.attr < b.attr;
}

std::vector<size_t> CostModel::TopSlotProducts(const relation::AttrSet& pool,
                                               int max_extra) const {
  std::vector<size_t> slots;
  for (int a : pool.ToVector()) slots.push_back(GroupSlots(a));
  std::sort(slots.begin(), slots.end(), std::greater<size_t>());
  if (max_extra < 0) max_extra = 0;
  std::vector<size_t> products(static_cast<size_t>(max_extra) + 1, 1);
  for (size_t r = 1; r < products.size(); ++r) {
    // Past the pool size no further extension exists; the product stops
    // growing (never shrinks — bounds must stay monotone in r).
    const size_t factor = r <= slots.size() ? slots[r - 1] : 1;
    products[r] = query::SaturatingMul(products[r - 1], factor);
  }
  return products;
}

}  // namespace fdevolve::fd
