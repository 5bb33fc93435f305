// Planner bench: does cost-based planning cut repair-search work without
// changing answers?
//
// The instance plants one real repair and a pile of decoy columns the
// cardinality bound can disprove: x -> y drifts hard (~30% of rows remap
// y into a wide domain, so |π_XY| >> |π_X|), a unique `fix` column makes
// x,fix -> y exact, and six low-cardinality junk columns (2..8 distinct
// values) can never lift |π_XA| up to |π_XY| at depth 1 — the planner
// prunes them before evaluation, the fixed-rank search pays to evaluate
// every one.
//
// Three phases:
//
//   1. First-repair work — candidates evaluated and best-of-kReps wall
//      time to the first minimal repair, fixed-rank (use_planner=false) vs
//      planned, at three sizes. Hard gate: the planned search evaluates
//      strictly fewer candidates and finds the same repair. Wall-time gate
//      (full mode only; FDEVOLVE_BENCH_FAST reports it, since shared CI
//      runners are too noisy): on the large instance the planned search is
//      no slower than fixed-rank.
//   2. Identity gate (hard, exit-nonzero) — kAllRepairs with no budget:
//      planner on and off must return the same repairs with bit-identical
//      measures (the planning-never-changes-answers contract the fuzz
//      suite enforces on random instances).
//   3. Budget — a budget_cost run at half the unbudgeted modeled cost
//      must keep its spent modeled cost within the budget (deterministic
//      truncation; gated).
//
// Results land in BENCH_planner.json in the working directory.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fd/repair_search.h"
#include "relation/relation.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace {

using namespace fdevolve;
using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

constexpr uint64_t kSeed = 0x9e3779b97f4a7c15ULL;
constexpr int kReps = 5;  ///< best-of to damp scheduler noise
// Decoy domains: all far below |π_XY|/|π_X| (~15 under the 30% drift), so
// the depth-1 bound min(live, |π_X|·slots) < |π_XY| disproves each one.
const std::vector<uint64_t> kJunkDomains = {2, 3, 4, 5, 6, 8};

Schema PlannerSchema() {
  std::vector<relation::Attribute> cols = {{"x", DataType::kInt64},
                                           {"y", DataType::kInt64},
                                           {"fix", DataType::kInt64}};
  for (uint64_t d : kJunkDomains)
    cols.push_back({"j" + std::to_string(d), DataType::kInt64});
  return Schema(std::move(cols));
}

/// x over rows/50 keys; y = f(x) except ~30% of rows drift into a wide
/// domain (x -> y badly violated, |π_XY| ≈ 15·|π_X|); fix = row id (so
/// x,fix -> y is the planted minimal repair); junk columns as decoys.
Relation BuildRelation(size_t rows, uint64_t seed) {
  util::Rng rng(seed);
  Relation rel("bench", PlannerSchema());
  const uint64_t domain = rows / 50 + 2;
  for (size_t i = 0; i < rows; ++i) {
    const int64_t x = static_cast<int64_t>(rng.Below(domain));
    const int64_t y = rng.Chance(0.3)
                          ? static_cast<int64_t>(rng.Below(1u << 20))
                          : x * 7 + 1;
    std::vector<Value> row = {Value(x), Value(y),
                              Value(static_cast<int64_t>(i))};
    for (uint64_t d : kJunkDomains)
      row.emplace_back(static_cast<int64_t>(rng.Below(d)));
    rel.AppendRow(std::move(row));
  }
  return rel;
}

fd::Fd XtoY() { return fd::Fd(AttrSet::Of({0}), AttrSet::Of({1})); }

fd::RepairOptions BaseOptions() {
  fd::RepairOptions opts;
  opts.max_added_attrs = 1;  // keep the frontier linear in the pool
  return opts;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

int g_gate_failures = 0;

struct FirstRepairRun {
  size_t evaluated = 0;
  size_t pruned = 0;
  double ms = 0;
};

FirstRepairRun TimeFirstRepair(const Relation& rel, bool use_planner) {
  fd::RepairOptions opts = BaseOptions();
  opts.mode = fd::SearchMode::kFirstRepair;
  opts.use_planner = use_planner;
  FirstRepairRun run;
  for (int rep = 0; rep < kReps; ++rep) {
    fd::RepairResult res = fd::Extend(rel, XtoY(), opts);
    if (!res.found() || res.best()->added != AttrSet::Of({2})) {
      std::cerr << "PLANNER GATE FAIL: "
                << (use_planner ? "planned" : "fixed")
                << " search missed the planted repair (x,fix -> y)\n";
      ++g_gate_failures;
    }
    // The search is deterministic, so the work counters of the last rep
    // stand for all of them; only the wall time varies.
    run.evaluated = res.stats.candidates_evaluated;
    run.pruned = res.stats.pruned_by_bound;
    if (rep == 0 || res.stats.elapsed_ms < run.ms) {
      run.ms = res.stats.elapsed_ms;
    }
  }
  return run;
}

/// Hard gate: with no budget, planning must not change the repair set or
/// any of its measures — same contract the planner fuzz suite checks.
void CheckRepairIdentity(const Relation& rel) {
  fd::RepairOptions off = BaseOptions();
  off.mode = fd::SearchMode::kAllRepairs;
  off.use_planner = false;
  fd::RepairOptions on = off;
  on.use_planner = true;
  fd::RepairResult a = fd::Extend(rel, XtoY(), off);
  fd::RepairResult b = fd::Extend(rel, XtoY(), on);
  bool same = a.already_exact == b.already_exact &&
              a.repairs.size() == b.repairs.size();
  for (size_t i = 0; same && i < a.repairs.size(); ++i) {
    const fd::Repair& ra = a.repairs[i];
    const fd::Repair& rb = b.repairs[i];
    same = ra.added == rb.added &&
           ra.measures.confidence == rb.measures.confidence &&
           ra.measures.distinct_x == rb.measures.distinct_x &&
           ra.measures.distinct_xy == rb.measures.distinct_xy &&
           ra.measures.distinct_y == rb.measures.distinct_y &&
           ra.measures.goodness == rb.measures.goodness;
  }
  if (!same) {
    std::cerr << "IDENTITY FAIL: planner on/off disagree on the repair set\n";
    ++g_gate_failures;
  }
}

struct BudgetRun {
  double budget = 0;
  double spent = 0;
  std::string stop;
};

/// Gate: spent modeled cost never exceeds budget_cost.
BudgetRun CheckBudget(const Relation& rel) {
  fd::RepairOptions opts = BaseOptions();
  opts.mode = fd::SearchMode::kAllRepairs;
  fd::RepairResult full = fd::Extend(rel, XtoY(), opts);
  BudgetRun out;
  out.budget = full.stats.planned_cost_ms / 2.0;
  if (out.budget <= 0) return out;  // cost model priced the run at ~0
  opts.budget_cost = out.budget;
  fd::RepairResult capped = fd::Extend(rel, XtoY(), opts);
  out.spent = capped.stats.planned_cost_ms;
  out.stop = fd::ToString(capped.stats.stop_reason);
  if (out.spent > out.budget) {
    std::cerr << "BUDGET FAIL: spent " << out.spent << " ms of a "
              << out.budget << " ms budget_cost\n";
    ++g_gate_failures;
  }
  return out;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const std::vector<size_t> sizes = fast
                                        ? std::vector<size_t>{5'000, 20'000,
                                                              80'000}
                                        : std::vector<size_t>{25'000, 100'000,
                                                              400'000};
  const std::vector<std::string> labels = {"small", "mid", "large"};

  std::vector<FirstRepairRun> fixed, planned;
  Relation large("bench", PlannerSchema());
  for (size_t i = 0; i < sizes.size(); ++i) {
    Relation rel = BuildRelation(sizes[i], kSeed);
    fixed.push_back(TimeFirstRepair(rel, /*use_planner=*/false));
    planned.push_back(TimeFirstRepair(rel, /*use_planner=*/true));
    if (planned[i].evaluated >= fixed[i].evaluated) {
      std::cerr << "PLANNER GATE FAIL: " << sizes[i] << " rows: planned "
                << planned[i].evaluated << " evaluations >= fixed "
                << fixed[i].evaluated << "\n";
      ++g_gate_failures;
    }
    if (i + 1 == sizes.size()) large = std::move(rel);
  }
  CheckRepairIdentity(large);
  BudgetRun budget = CheckBudget(large);
  const bool walltime_ok = planned.back().ms <= fixed.back().ms;
  if (!walltime_ok) {
    std::cerr << "WALL-TIME GATE: " << sizes.back() << " rows: planned "
              << planned.back().ms << " ms > fixed-rank " << fixed.back().ms
              << " ms (best of " << kReps << ")\n";
  }

  const double reduction =
      planned.back().evaluated > 0
          ? static_cast<double>(fixed.back().evaluated) /
                static_cast<double>(planned.back().evaluated)
          : 0.0;

  util::TablePrinter table("repair-search planner (first repair)");
  table.SetHeader({"rows", "mode", "evaluated", "pruned", "best ms"});
  for (size_t i = 0; i < sizes.size(); ++i) {
    table.AddRow({std::to_string(sizes[i]), "fixed-rank",
                  std::to_string(fixed[i].evaluated),
                  std::to_string(fixed[i].pruned), Fmt(fixed[i].ms)});
    table.AddRow({std::to_string(sizes[i]), "planned",
                  std::to_string(planned[i].evaluated),
                  std::to_string(planned[i].pruned), Fmt(planned[i].ms)});
  }
  table.AddRow({std::to_string(sizes.back()), "reduction", Fmt(reduction),
                "-", "-"});
  table.AddRow({std::to_string(sizes.back()),
                "budget " + Fmt(budget.budget), Fmt(budget.spent),
                budget.stop.empty() ? "-" : budget.stop, "-"});
  table.Print(std::cout);
  if (fast) std::cout << "FDEVOLVE_BENCH_FAST\n";

  std::ofstream json("BENCH_planner.json");
  json << "{\n";
  for (size_t i = 0; i < sizes.size(); ++i) {
    json << "  \"rows_" << labels[i] << "\": " << sizes[i] << ",\n"
         << "  \"" << labels[i] << "\": {\n"
         << "    \"candidates_fixed\": " << fixed[i].evaluated << ",\n"
         << "    \"candidates_planned\": " << planned[i].evaluated << ",\n"
         << "    \"pruned_by_bound\": " << planned[i].pruned << ",\n"
         << "    \"first_repair_ms_fixed\": " << fixed[i].ms << ",\n"
         << "    \"first_repair_ms_planned\": " << planned[i].ms << "\n"
         << "  },\n";
  }
  json << "  \"candidate_reduction\": " << reduction << ",\n"
       << "  \"budget_cost_ms\": " << budget.budget << ",\n"
       << "  \"budget_spent_ms\": " << budget.spent << ",\n"
       << "  \"identity_gate_failures\": " << g_gate_failures << ",\n"
       << "  \"walltime_gate_failures\": " << (walltime_ok ? 0 : 1) << ",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << "\n"
       << "}\n";

  if (g_gate_failures != 0) {
    std::cerr << "FAIL: " << g_gate_failures
              << " planner gates diverged (work or answers)\n";
    return 1;
  }
  std::cout << "identity gate passed: planned search == fixed-rank repairs, "
               "strictly less work\n";
  if (!walltime_ok) {
    if (!fast) {
      std::cerr << "FAIL: planned search slower than fixed-rank\n";
      return 1;
    }
    std::cout << "wall-time gate not enforced under FDEVOLVE_BENCH_FAST\n";
  } else {
    std::cout << "wall-time gate passed: planned no slower than fixed-rank "
                 "on the large instance\n";
  }
  return 0;
}
