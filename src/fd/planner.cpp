#include "fd/planner.h"

#include <algorithm>
#include <sstream>

#include "fd/candidate_ranking.h"
#include "query/distinct.h"

namespace fdevolve::fd {
namespace {

std::string Round3(double v) {
  std::ostringstream os;
  os.precision(3);
  os << v;
  return os.str();
}

}  // namespace

RepairPlan PlanRepair(const relation::Relation& rel, const Fd& fd,
                      const RepairOptions& opts) {
  RepairPlan plan;
  plan.fd = fd;
  plan.live_rows = rel.live_count();
  plan.target_confidence =
      opts.target_confidence > 1.0 ? 1.0 : opts.target_confidence;
  plan.use_planner = opts.use_planner;
  plan.budget_ms = opts.budget_ms;
  plan.budget_cost = opts.budget_cost;

  query::DistinctEvaluator eval(rel);
  plan.original = ComputeMeasures(eval, fd);
  const size_t xy = plan.original.distinct_xy;
  plan.already_exact =
      plan.target_confidence >= 1.0
          ? plan.original.distinct_x == xy
          : plan.original.confidence >= plan.target_confidence;

  std::vector<query::ColumnStats> stats;
  const relation::AttrSet pool = CandidatePool(rel, fd, opts.pool, &stats);
  plan.pool_size = pool.Count();
  plan.max_depth = opts.max_added_attrs > 0
                       ? std::min(opts.max_added_attrs, pool.Count())
                       : pool.Count();
  if (plan.already_exact || plan.pool_size == 0) return plan;

  const CostModel model(std::move(stats), plan.live_rows);
  const auto products = model.TopSlotProducts(pool, plan.max_depth - 1);
  const size_t reach_product =
      products[static_cast<size_t>(plan.max_depth - 1)];

  for (int a : pool.ToVector()) {
    PlannedCandidate c;
    c.attr = a;
    const query::ColumnStats& s = model.stats(a);
    c.ndv = s.distinct_count;
    c.group_slots = s.group_slots();
    c.max_group_rows = s.max_group_rows;
    c.null_fraction = s.null_fraction;
    c.distinct_bound =
        model.ReachableDistinctBound(plan.original.distinct_x, a, 1);
    // The executing search scores (and prunes) its seeds with the same
    // call, so the plan's marks and order are the ones Extend follows.
    const CostModel::Branch b = model.ScoreBranch(
        a, plan.original.distinct_x, xy, reach_product,
        plan.target_confidence);
    c.est_cost_ms = b.cost_ms;
    c.reachable_bound = b.reachable_bound;
    c.best_confidence = b.best_confidence;
    c.prunable = b.prunable;
    if (!c.prunable) plan.planned_cost_ms += c.est_cost_ms;
    plan.candidates.push_back(c);
  }

  const auto branch = [](const PlannedCandidate& c) {
    return CostModel::Branch{c.attr, c.reachable_bound, c.best_confidence,
                             c.est_cost_ms, c.prunable};
  };
  std::stable_sort(plan.candidates.begin(), plan.candidates.end(),
                   [&](const PlannedCandidate& a, const PlannedCandidate& b) {
                     return CostModel::SpendsBefore(branch(a), branch(b));
                   });
  return plan;
}

std::string DescribePlan(const RepairPlan& plan,
                         const relation::Schema& schema) {
  std::ostringstream os;
  os << "repair plan for " << plan.fd.ToString(schema) << "\n";
  os << "  instance: " << plan.live_rows << " live rows, |pi_X|="
     << plan.original.distinct_x << ", |pi_XY|=" << plan.original.distinct_xy
     << ", confidence " << Round3(plan.original.confidence) << ", goodness "
     << plan.original.goodness << "\n";
  os << "  target confidence " << Round3(plan.target_confidence)
     << "; budget ";
  if (plan.budget_ms > 0.0 || plan.budget_cost > 0.0) {
    bool first = true;
    if (plan.budget_ms > 0.0) {
      os << Round3(plan.budget_ms) << " ms wall";
      first = false;
    }
    if (plan.budget_cost > 0.0) {
      os << (first ? "" : ", ") << Round3(plan.budget_cost) << " ms modeled";
    }
  } else {
    os << "none";
  }
  os << "; planner " << (plan.use_planner ? "on" : "off") << "\n";
  if (plan.already_exact) {
    os << "  already meets target; no search needed\n";
    return os.str();
  }
  size_t pruned = 0;
  for (const auto& c : plan.candidates) pruned += c.prunable ? 1u : 0u;
  os << "  search: pool " << plan.pool_size << " candidates, max depth "
     << plan.max_depth << ", seed cost " << Round3(plan.planned_cost_ms)
     << " ms over " << (plan.candidates.size() - pruned) << " candidates ("
     << pruned << " pruned by bound)\n";
  os << "  seed order (signal desc, cost asc):\n";
  int i = 1;
  for (const auto& c : plan.candidates) {
    os << "    " << i++ << ". +" << schema.attr(c.attr).name << " ndv="
       << c.ndv << " slots=" << c.group_slots << " maxgroup="
       << c.max_group_rows;
    if (c.null_fraction > 0.0) os << " nulls=" << Round3(c.null_fraction);
    os << " |pi_XA|<=" << c.distinct_bound << " reach<=" << c.reachable_bound
       << " best-conf=" << Round3(c.best_confidence) << " cost="
       << Round3(c.est_cost_ms) << "ms";
    if (c.prunable) {
      if (plan.target_confidence >= 1.0) {
        os << " PRUNED (reachable " << c.reachable_bound << " < |pi_XY| "
           << plan.original.distinct_xy << ")";
      } else {
        os << " PRUNED (best-conf " << Round3(c.best_confidence)
           << " < target)";
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace fdevolve::fd
