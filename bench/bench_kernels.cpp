// Kernel-tier microbench + the cross-tier identity gate.
//
// For every SIMD tier this host can run (baseline scalar is always there;
// AVX2/AVX-512 when detected), measures ns/tuple for the two dispatched
// inner loops — the dense gather refine in each shape its loop serves
// (one-level materializing, one-level count-only, tombstone-masked
// count-only) and the flat hash refine — plus the fused-chain vs
// per-level-chain comparison that motivates segment fusion.
//
// The bench doubles as a correctness gate: every tier, over clean AND
// tombstoned relations, must produce bit-identical group ids, group
// counts, and FD measure doubles to the baseline scalar tier. Any
// divergence makes the process exit non-zero, so CI can run this
// (FDEVOLVE_BENCH_FAST=1) as a smoke step.
//
// Results land in BENCH_kernels.json in the working directory; validate
// with scripts/check_bench_json.py.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "datagen/synthetic.h"
#include "fd/measures.h"
#include "query/group_ids.h"
#include "query/kernels.h"
#include "util/cpu_features.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace fdevolve;

// Every shape repeats until it has at least kMinReps runs AND kMinTimedMs
// of timed work, and reports its best run: the ~0.4 ms count-only passes
// need hundreds of runs before their best one stops moving with scheduler
// noise on a shared host.
constexpr int kMinReps = 5;
constexpr double kMinTimedMs = 100.0;

int g_gate_failures = 0;

void Gate(bool ok, const std::string& what) {
  if (!ok) {
    ++g_gate_failures;
    std::cerr << "IDENTITY GATE FAIL: " << what << "\n";
  }
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// Best wall time of `fn` in milliseconds, over at least kMinReps runs and
/// kMinTimedMs of timed work.
template <typename Fn>
double BestMs(Fn fn) {
  double best = 0.0;
  double total = 0.0;
  for (int r = 0; r < kMinReps || total < kMinTimedMs; ++r) {
    util::Timer timer;
    fn();
    const double ms = timer.ElapsedMs();
    total += ms;
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct TierNumbers {
  double dense_ns = 0.0;   ///< ns/tuple, dense gather refine
  double count_ns = 0.0;   ///< ns/tuple, dense count-only refine
  double masked_count_ns = 0.0;  ///< ns/tuple, same over tombstoned rows
  double flat_ns = 0.0;    ///< ns/tuple, flat hash refine
  double fused_ms = 0.0;   ///< 3-attr GroupBy, fused chain
};

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t n = fast ? 200000 : 1000000;

  datagen::SyntheticSpec spec;
  spec.n_attrs = 8;
  spec.n_tuples = n;
  spec.repair_length = 2;
  spec.seed = 99;
  const auto rel = datagen::MakeSynthetic(spec);

  // Tombstoned twin: delete a deterministic ~10% so the live-masked
  // count-only path is part of the gate.
  auto rel_del = rel;
  for (size_t t = 3; t < n; t += 10) rel_del.DeleteRow(t);

  const auto dense_attrs = relation::AttrSet::Of({0, 2, 3});
  const auto flat_attrs = relation::AttrSet::Of({0, 1, 4, 5});
  const fd::Fd fd(relation::AttrSet::Of({0, 2}), relation::AttrSet::Of({3}));

  // --- Baseline references (scalar) for the identity gate. ---
  query::kernels::ForceTier(util::CpuTier::kBaseline);
  const auto ref_group = query::GroupBy(rel, dense_attrs);
  const size_t ref_count = query::GroupCountBy(rel, dense_attrs);
  const size_t ref_flat = query::GroupCountBy(rel, flat_attrs);
  const size_t ref_del = query::GroupCountBy(rel_del, dense_attrs);
  const auto ref_measures = fd::ComputeMeasures(rel, fd);
  const auto base0 = query::GroupBy(rel, relation::AttrSet::Of({0}));
  const auto ref_refine = query::RefineBy(rel, base0, 3);
  const auto base0_del = query::GroupBy(rel_del, relation::AttrSet::Of({0}));
  const auto attr3 = relation::AttrSet::Of({3});
  const size_t ref_refine_count = query::RefineCountBy(rel, base0, attr3);
  const size_t ref_refine_del = query::RefineCountBy(rel_del, base0_del, attr3);

  const auto tiers = query::kernels::SupportedTiers();
  std::map<std::string, TierNumbers> results;
  double baseline_dense = 0.0, baseline_flat = 0.0;
  double baseline_count = 0.0, baseline_masked_count = 0.0;
  double fused_ms_best_tier = 0.0, per_level_ms_best_tier = 0.0;

  util::TablePrinter table("kernel tiers (" + std::to_string(n) +
                           " tuples, ns/tuple, best of >= " +
                           std::to_string(kMinReps) + " runs and " +
                           std::to_string(static_cast<int>(kMinTimedMs)) +
                           " ms)");
  table.SetHeader({"tier", "dense", "count", "masked count", "flat",
                   "fused 3-attr ms"});

  for (util::CpuTier tier : tiers) {
    query::kernels::ForceTier(tier);
    const std::string name = util::CpuTierName(tier);
    TierNumbers nums;

    // Dense gather refine: one-column refinement, radix |π0| * stride(3).
    query::RefineScratch scratch;
    nums.dense_ns =
        BestMs([&] { query::RefineBy(rel, base0, 3, scratch); }) * 1e6 / n;
    // The same refinement count-only (what the repair search runs per
    // candidate), then over the tombstoned twin (live-masked loop).
    nums.count_ns =
        BestMs([&] { query::RefineCountBy(rel, base0, attr3, scratch); }) *
        1e6 / n;
    nums.masked_count_ns = BestMs([&] {
                             query::RefineCountBy(rel_del, base0_del, attr3,
                                                  scratch);
                           }) *
                           1e6 / n;

    // Flat hash refine: 4-attr count whose radix overflows the dense
    // limit, so the whole chain runs through FlatIdTable.
    nums.flat_ns =
        BestMs([&] { query::GroupCountBy(rel, flat_attrs, scratch); }) * 1e6 /
        n;

    // Fused chain (the engine's one-sweep segment) vs the per-level chain
    // it replaced: three sequential RefineBy passes over the same levels.
    nums.fused_ms =
        BestMs([&] { query::GroupBy(rel, dense_attrs, scratch); });
    const double per_level_ms = BestMs([&] {
      auto g = query::GroupBy(rel, relation::AttrSet::Of({0}), scratch);
      g = query::RefineBy(rel, g, 2, scratch);
      g = query::RefineBy(rel, g, 3, scratch);
    });

    if (tier == util::CpuTier::kBaseline) {
      baseline_dense = nums.dense_ns;
      baseline_flat = nums.flat_ns;
      baseline_count = nums.count_ns;
      baseline_masked_count = nums.masked_count_ns;
    }
    // The last (= highest) tier's chain numbers headline the JSON.
    fused_ms_best_tier = nums.fused_ms;
    per_level_ms_best_tier = per_level_ms;

    table.AddRow({name, Fmt(nums.dense_ns), Fmt(nums.count_ns),
                  Fmt(nums.masked_count_ns), Fmt(nums.flat_ns),
                  Fmt(nums.fused_ms)});
    results[name] = nums;

    // --- Identity gate: this tier vs baseline. ---
    query::RefineScratch s;
    const std::string ctx = name + ": ";
    const auto g = query::GroupBy(rel, dense_attrs, s);
    Gate(g.ids == ref_group.ids && g.group_count == ref_group.group_count,
         ctx + "GroupBy ids/count");
    Gate(query::GroupCountBy(rel, dense_attrs, s) == ref_count,
         ctx + "GroupCountBy");
    Gate(query::GroupCountBy(rel, flat_attrs, s) == ref_flat,
         ctx + "GroupCountBy (flat)");
    Gate(query::GroupCountBy(rel_del, dense_attrs, s) == ref_del,
         ctx + "GroupCountBy (tombstoned)");
    const auto r = query::RefineBy(rel, base0, 3, s);
    Gate(r.ids == ref_refine.ids && r.group_count == ref_refine.group_count,
         ctx + "RefineBy ids/count");
    Gate(query::RefineCountBy(rel, base0, attr3, s) == ref_refine_count,
         ctx + "RefineCountBy");
    Gate(query::RefineCountBy(rel_del, base0_del, attr3, s) == ref_refine_del,
         ctx + "RefineCountBy (tombstoned)");
    const auto m = fd::ComputeMeasures(rel, fd);
    Gate(m.confidence == ref_measures.confidence &&
             m.goodness == ref_measures.goodness,
         ctx + "measure doubles");
  }
  query::kernels::ForceTier(query::kernels::DetectedTier());

  table.Print(std::cout);
  const std::string best = util::CpuTierName(tiers.back());
  std::cout << "detected: "
            << util::CpuTierName(query::kernels::DetectedTier())
            << ", tiers tested: " << tiers.size()
            << (fast ? " (FDEVOLVE_BENCH_FAST)" : "") << "\n";

  const TierNumbers& top = results[best];
  std::ofstream json("BENCH_kernels.json");
  json << "{\n"
       << "  \"tuples\": " << n << ",\n"
       << "  \"tiers_tested\": " << tiers.size() << ",\n"
       << "  \"baseline\": {\n"
       << "    \"dense_ns_per_tuple\": " << baseline_dense << ",\n"
       << "    \"count_ns_per_tuple\": " << baseline_count << ",\n"
       << "    \"masked_count_ns_per_tuple\": " << baseline_masked_count
       << ",\n"
       << "    \"flat_ns_per_tuple\": " << baseline_flat << "\n"
       << "  },\n"
       << "  \"best_tier\": {\n"
       << "    \"name\": \"" << best << "\",\n"
       << "    \"dense_ns_per_tuple\": " << top.dense_ns << ",\n"
       << "    \"count_ns_per_tuple\": " << top.count_ns << ",\n"
       << "    \"masked_count_ns_per_tuple\": " << top.masked_count_ns
       << ",\n"
       << "    \"flat_ns_per_tuple\": " << top.flat_ns << ",\n"
       << "    \"dense_speedup\": "
       << (top.dense_ns > 0 ? baseline_dense / top.dense_ns : 0.0) << ",\n"
       << "    \"flat_speedup\": "
       << (top.flat_ns > 0 ? baseline_flat / top.flat_ns : 0.0) << "\n"
       << "  },\n"
       << "  \"fused_chain_ms\": " << fused_ms_best_tier << ",\n"
       << "  \"per_level_chain_ms\": " << per_level_ms_best_tier << ",\n"
       << "  \"fused_speedup\": "
       << (fused_ms_best_tier > 0
               ? per_level_ms_best_tier / fused_ms_best_tier
               : 0.0)
       << ",\n"
       << "  \"identity_gate_failures\": " << g_gate_failures << ",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << "\n"
       << "}\n";

  if (g_gate_failures != 0) {
    std::cerr << "FAIL: " << g_gate_failures
              << " cross-tier identity checks diverged from baseline\n";
    return 1;
  }
  std::cout << "identity gate passed: every tier matches baseline scalar "
               "bit-for-bit\n";
  return 0;
}
