#include "fd/cost_model.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "fd/planner.h"
#include "fd/repair_search.h"

namespace fdevolve::fd {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

// city determines state except one drifted LA row; zip is constant (its
// branch can never raise |pi_X|), id is unique.
Relation MakeDrifted() {
  Schema schema({{"id", DataType::kInt64},
                 {"city", DataType::kString},
                 {"zip", DataType::kString},
                 {"state", DataType::kString}});
  return RelationBuilder("t", schema)
      .Row({int64_t{1}, "SF", "9", "CA"})
      .Row({int64_t{2}, "SF", "9", "CA"})
      .Row({int64_t{3}, "LA", "9", "CA"})
      .Row({int64_t{4}, "LA", "9", "NV"})
      .Row({int64_t{5}, "NY", "9", "NY"})
      .Build();
}

CostModel ModelOf(const Relation& rel) {
  return CostModel(query::ComputeColumnStats(rel), rel.live_count());
}

TEST(CostModelTest, LiveRowsAndSlotsFromRelation) {
  const CostModel model = ModelOf(MakeDrifted());
  EXPECT_EQ(model.live_rows(), 5u);
  EXPECT_EQ(model.GroupSlots(0), 5u);  // id: 5 distinct, no NULLs
  EXPECT_EQ(model.GroupSlots(1), 3u);  // city: SF, LA, NY
  EXPECT_EQ(model.GroupSlots(2), 1u);  // zip: constant
}

TEST(CostModelTest, NullSlotCountsTowardGrouping) {
  Schema schema({{"n", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({int64_t{1}})
                     .Row({Value::Null()})
                     .Build();
  const CostModel model = ModelOf(rel);
  // One value plus the shared NULL group: adding `n` can at most double
  // the grouping.
  EXPECT_EQ(model.GroupSlots(0), 2u);
}

TEST(CostModelTest, CandidateCostScalesWithSlots) {
  const CostModel model = ModelOf(MakeDrifted());
  // Every estimate is positive, and a wider dictionary (more slots) never
  // estimates cheaper than a constant column at equal width.
  EXPECT_GT(model.CandidateCostMs(2), 0.0);
  EXPECT_GT(model.CandidateCostMs(0), model.CandidateCostMs(2));
}

TEST(CostModelTest, TopSlotProductsAreSortedSaturatingPrefixes) {
  const CostModel model = ModelOf(MakeDrifted());
  AttrSet pool = AttrSet::Of({0, 1, 2});  // slots 5, 3, 1
  auto products = model.TopSlotProducts(pool, 3);
  ASSERT_EQ(products.size(), 4u);
  EXPECT_EQ(products[0], 1u);
  EXPECT_EQ(products[1], 5u);       // largest
  EXPECT_EQ(products[2], 15u);      // 5 * 3
  EXPECT_EQ(products[3], 15u);      // 5 * 3 * 1
  // Asking for more extensions than the pool holds pads with factor 1.
  auto padded = model.TopSlotProducts(pool, 5);
  ASSERT_EQ(padded.size(), 6u);
  EXPECT_EQ(padded[5], 15u);
}

TEST(CostModelTest, ReachableBoundClampsAndSaturates) {
  const CostModel model = ModelOf(MakeDrifted());
  // 3 base groups * 5 slots = 15, clamped to the 5 live rows.
  EXPECT_EQ(model.ReachableDistinctBound(3, 0, 1), 5u);
  // Below the clamp the product is exact: 2 * 1 (zip) * 2 = 4.
  EXPECT_EQ(model.ReachableDistinctBound(2, 2, 2), 4u);
  // Saturating inputs never wrap to a small (unsound) bound.
  EXPECT_EQ(model.ReachableDistinctBound(SIZE_MAX / 2, 0, SIZE_MAX), 5u);
}

TEST(CostModelTest, InjectedStatsConstructor) {
  query::ColumnStats a;
  a.name = "a";
  a.distinct_count = 4;
  a.null_count = 1;
  a.avg_dict_width = 8.0;
  CostModel model({a}, 10);
  EXPECT_EQ(model.live_rows(), 10u);
  EXPECT_EQ(model.GroupSlots(0), 5u);
  EXPECT_EQ(model.ReachableDistinctBound(3, 0, 1), 10u);
}

TEST(PlanRepairTest, ExactFdShortCircuits) {
  Relation rel = MakeDrifted();
  RepairPlan plan =
      PlanRepair(rel, Fd(AttrSet::Of({0}), AttrSet::Of({3})));  // id -> state
  EXPECT_TRUE(plan.already_exact);
  EXPECT_TRUE(plan.candidates.empty());
  std::string text = DescribePlan(plan, rel.schema());
  EXPECT_NE(text.find("already meets target"), std::string::npos);
}

TEST(PlanRepairTest, CandidatesOrderedSignalDescCostAsc) {
  Relation rel = MakeDrifted();
  RepairPlan plan =
      PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})));  // city -> state
  EXPECT_FALSE(plan.already_exact);
  EXPECT_EQ(plan.live_rows, 5u);
  ASSERT_EQ(plan.candidates.size(), 2u);  // id and zip (state is the RHS)
  // Neither branch is provably stuck (id in the pool makes everything
  // reachable), so both tie at best_confidence 1 and the cheaper column
  // (constant zip, 1-byte dictionary) is spent first.
  EXPECT_FALSE(plan.candidates[0].prunable);
  EXPECT_FALSE(plan.candidates[1].prunable);
  EXPECT_DOUBLE_EQ(plan.candidates[0].best_confidence, 1.0);
  EXPECT_DOUBLE_EQ(plan.candidates[1].best_confidence, 1.0);
  EXPECT_EQ(plan.candidates[0].attr, 2);  // zip: cheaper at equal signal
  EXPECT_EQ(plan.candidates[1].attr, 0);
  EXPECT_LT(plan.candidates[0].est_cost_ms, plan.candidates[1].est_cost_ms);
  EXPECT_DOUBLE_EQ(plan.planned_cost_ms, plan.candidates[0].est_cost_ms +
                                             plan.candidates[1].est_cost_ms);
}

// Drop the id column: the only pool candidate is the constant zip, whose
// branch can never lift |pi_X| = 3 to |pi_XY| = 4.
Relation MakeUnrepairable() {
  Schema schema({{"city", DataType::kString},
                 {"zip", DataType::kString},
                 {"state", DataType::kString}});
  return RelationBuilder("t", schema)
      .Row({"SF", "9", "CA"})
      .Row({"SF", "9", "CA"})
      .Row({"LA", "9", "CA"})
      .Row({"LA", "9", "NV"})
      .Row({"NY", "9", "NY"})
      .Build();
}

TEST(PlanRepairTest, StuckBranchIsMarkedPrunable) {
  Relation rel = MakeUnrepairable();
  RepairPlan plan = PlanRepair(rel, Fd(AttrSet::Of({0}), AttrSet::Of({2})));
  ASSERT_EQ(plan.candidates.size(), 1u);
  EXPECT_TRUE(plan.candidates[0].prunable);
  EXPECT_EQ(plan.candidates[0].reachable_bound, 3u);
  EXPECT_LT(plan.candidates[0].best_confidence, 1.0);
  // Modeled seed cost covers only branches the search will evaluate.
  EXPECT_DOUBLE_EQ(plan.planned_cost_ms, 0.0);
}

TEST(PlanRepairTest, BoundsMatchExecutedSearch) {
  // On depth-1 instances the plan's prunable marks predict the executor's
  // seed pruning exactly — once where nothing prunes, once where all does.
  {
    Relation rel = MakeDrifted();
    Fd fd(AttrSet::Of({1}), AttrSet::Of({3}));
    RepairResult res = Extend(rel, fd);
    EXPECT_EQ(res.stats.pruned_by_bound, 0u);
    ASSERT_TRUE(res.found());
    EXPECT_EQ(res.repairs[0].added, AttrSet::Of({0}));
  }
  {
    Relation rel = MakeUnrepairable();
    Fd fd(AttrSet::Of({0}), AttrSet::Of({2}));
    RepairResult res = Extend(rel, fd);
    EXPECT_EQ(res.stats.pruned_by_bound, 1u);
    EXPECT_EQ(res.stats.candidates_evaluated, 0u);
    EXPECT_FALSE(res.found());
    EXPECT_EQ(res.stats.stop_reason, StopReason::kExhausted);
  }
}

TEST(PlanRepairTest, PlanWorksOnTombstonedRelations) {
  Relation rel = MakeDrifted();
  rel.DeleteRow(3);  // remove the drifted LA row: city -> state holds again
  RepairPlan plan = PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})));
  EXPECT_TRUE(plan.already_exact);
  EXPECT_EQ(plan.live_rows, 4u);
}

TEST(PlanRepairTest, DescribePlanRendersBudgetAndCandidates) {
  Relation rel = MakeDrifted();
  RepairOptions opts;
  opts.budget_ms = 12.5;
  RepairPlan plan =
      PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})), opts);
  std::string text = DescribePlan(plan, rel.schema());
  EXPECT_NE(text.find("repair plan for"), std::string::npos);
  EXPECT_NE(text.find("+id"), std::string::npos);
  EXPECT_NE(text.find("+zip"), std::string::npos);
  EXPECT_NE(text.find("12.5 ms wall"), std::string::npos);
  RepairPlan unbudgeted =
      PlanRepair(rel, Fd(AttrSet::Of({1}), AttrSet::Of({3})));
  EXPECT_NE(DescribePlan(unbudgeted, rel.schema()).find("budget none"),
            std::string::npos);
  // A provably-stuck branch renders its prune verdict inline.
  Relation stuck = MakeUnrepairable();
  RepairPlan stuck_plan =
      PlanRepair(stuck, Fd(AttrSet::Of({0}), AttrSet::Of({2})));
  EXPECT_NE(DescribePlan(stuck_plan, stuck.schema()).find("PRUNED"),
            std::string::npos);
}

// Both seeds can reach full confidence, so they tie on signal and the
// cheaper one (a: 3 slots against b's 5) is spent first — even though b's
// raw bound is larger. A budget covering exactly the plan's first seed must
// let the executing search evaluate that seed.
TEST(PlanRepairTest, BudgetedSearchSpendsInPlanOrder) {
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"a", DataType::kInt64},
                 {"b", DataType::kInt64}});
  RelationBuilder builder("t", schema);
  for (int64_t i = 0; i < 20; ++i) {
    builder.Row({i % 2, (i / 2) % 2, i % 3, i % 5});
  }
  const Relation rel = builder.Build();
  const Fd fd(AttrSet::Of({0}), AttrSet::Of({1}));
  RepairOptions opts;
  opts.max_added_attrs = 1;
  const RepairPlan plan = PlanRepair(rel, fd, opts);
  ASSERT_EQ(plan.candidates.size(), 2u);
  EXPECT_EQ(plan.candidates[0].attr, 2);
  EXPECT_EQ(plan.candidates[0].reachable_bound, 6u);
  EXPECT_EQ(plan.candidates[1].reachable_bound, 10u);

  opts.budget_cost = plan.candidates[0].est_cost_ms;
  const RepairResult res = Extend(rel, fd, opts);
  EXPECT_EQ(res.stats.candidates_evaluated, 1u);
  EXPECT_EQ(res.stats.stop_reason, StopReason::kBudget);
  EXPECT_DOUBLE_EQ(res.stats.planned_cost_ms, opts.budget_cost);
}

}  // namespace
}  // namespace fdevolve::fd
