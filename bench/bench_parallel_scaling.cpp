// Thread-scaling curves for the parallel execution layer — candidate
// fan-out, the only level that runs in parallel: wall time at 1/2/4/8
// threads over (a) the repair-search macro workload and (b) the ε_EB
// ranking loop.
//
// Besides the curves, this bench is a determinism check: every multi-thread
// run is compared against the threads=1 output and the process exits
// non-zero on any mismatch, so CI can run it as a smoke step that guards
// the "parallelism never changes results" contract. In full mode it is
// also a wall-time gate: both workloads at 2 and 4 threads must be no
// slower than at 1 thread. FDEVOLVE_BENCH_FAST reports that comparison
// without gating on it, since shared CI runners are too noisy (the
// `cores` field records what the numbers were measured on).
//
// Results land in BENCH_parallel.json in the working directory; validate
// with scripts/check_bench_json.py.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "clustering/eb_repair.h"
#include "datagen/synthetic.h"
#include "fd/repair_search.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace {

using namespace fdevolve;

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr int kRepeats = 3;  ///< best-of to damp scheduler noise

std::string Ms(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string Speedup(double base_ms, double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ms > 0 ? base_ms / ms : 0.0);
  return buf;
}

/// Best wall ms per thread count, in kThreadCounts order — the JSON
/// artifact's raw material.
struct ScalingCurve {
  double ms[std::size(kThreadCounts)] = {};
  double MsAt(int threads) const {
    for (size_t i = 0; i < std::size(kThreadCounts); ++i) {
      if (kThreadCounts[i] == threads) return ms[i];
    }
    return 0.0;
  }
  double SpeedupAt(int threads) const {
    const double t = MsAt(threads);
    return t > 0 ? MsAt(1) / t : 0.0;
  }
};

/// The wall-time gate: 2 and 4 threads no slower than 1. Returns the
/// number of failed comparisons, printing each.
int SlowerThanOneThread(const char* name, const ScalingCurve& c) {
  int failures = 0;
  for (int k : {2, 4}) {
    if (c.MsAt(k) > c.MsAt(1)) {
      ++failures;
      std::cerr << "WALL-TIME GATE: " << name << " at " << k << " threads "
                << c.MsAt(k) << " ms > " << c.MsAt(1) << " ms at 1 thread\n";
    }
  }
  return failures;
}

/// Times `run(threads)` best-of-kRepeats and checks its result against the
/// threads=1 baseline via `same`. Prints one table; fills `curve`; returns
/// false on any determinism mismatch.
template <typename Result, typename Run, typename Same>
bool Measure(const std::string& title, Run run, Same same,
             ScalingCurve* curve) {
  util::TablePrinter t(title);
  t.SetHeader({"threads", "best ms", "speedup", "identical to threads=1"});
  Result baseline{};
  double base_ms = 0.0;
  bool all_identical = true;
  size_t ki = 0;
  for (int k : kThreadCounts) {
    double best = 0.0;
    bool identical = true;
    for (int rep = 0; rep < kRepeats; ++rep) {
      util::Timer timer;
      Result r = run(k);
      const double ms = timer.ElapsedMs();
      if (rep == 0 || ms < best) best = ms;
      // Every repetition is checked, so an intermittent divergence (the
      // class of bug a race would produce) cannot slip through by being
      // right on the last run. The very first threads=1 run seeds the
      // baseline; later threads=1 reps are checked against it too.
      if (k == 1 && rep == 0) {
        baseline = std::move(r);
      } else {
        identical &= same(baseline, r);
      }
    }
    if (k == 1) {
      base_ms = best;
    }
    curve->ms[ki++] = best;
    all_identical &= identical;
    t.AddRow({std::to_string(k), Ms(best), Speedup(base_ms, best),
              identical ? "yes" : "NO"});
  }
  t.Print(std::cout);
  std::cout << "\n";
  return all_identical;
}

bool SameRepairResult(const fd::RepairResult& a, const fd::RepairResult& b) {
  if (a.repairs.size() != b.repairs.size()) return false;
  for (size_t i = 0; i < a.repairs.size(); ++i) {
    if (a.repairs[i].added != b.repairs[i].added) return false;
    if (a.repairs[i].measures.confidence != b.repairs[i].measures.confidence ||
        a.repairs[i].measures.goodness != b.repairs[i].measures.goodness) {
      return false;
    }
  }
  return a.stats.nodes_expanded == b.stats.nodes_expanded &&
         a.stats.candidates_evaluated == b.stats.candidates_evaluated &&
         a.stats.frontier_peak == b.stats.frontier_peak &&
         a.stats.pruned_supersets == b.stats.pruned_supersets;
}

}  // namespace

int main() {
  const bool fast = bench::FastMode();
  const size_t macro_tuples = fast ? 50000 : 200000;

  std::cout << "cores: " << std::thread::hardware_concurrency()
            << (fast ? " (FDEVOLVE_BENCH_FAST)" : "") << "\n\n";

  // (a) Repair-search macro workload: wide pool, depth-2 all-repairs
  // search — the candidate batches are what fans out.
  datagen::SyntheticSpec macro_spec;
  macro_spec.n_attrs = 16;
  macro_spec.n_tuples = macro_tuples;
  macro_spec.repair_length = 2;
  macro_spec.seed = 4242;
  const auto macro_rel = datagen::MakeSynthetic(macro_spec);
  const auto macro_fd = datagen::SyntheticFd(macro_rel.schema());
  ScalingCurve repair_curve, eb_curve;
  bool ok = Measure<fd::RepairResult>(
      "repair search (" + std::to_string(macro_tuples) +
          " tuples, 16 attrs, all repairs, depth 2)",
      [&](int threads) {
        fd::RepairOptions o;
        o.mode = fd::SearchMode::kAllRepairs;
        o.max_added_attrs = 2;
        o.threads = threads;
        return fd::Extend(macro_rel, macro_fd, o);
      },
      SameRepairResult, &repair_curve);

  // (b) ε_EB ranking: one candidate slice per worker.
  ok &= Measure<std::vector<clustering::EbCandidate>>(
      "eb ranking (" + std::to_string(macro_tuples) + " tuples, 16 attrs)",
      [&](int threads) {
        return clustering::RankEb(macro_rel, macro_fd, fd::PoolOptions{},
                                  clustering::EbVariant::kOriginal, threads);
      },
      [](const std::vector<clustering::EbCandidate>& a,
         const std::vector<clustering::EbCandidate>& b) {
        if (a.size() != b.size()) return false;
        for (size_t i = 0; i < a.size(); ++i) {
          if (a[i].attr != b[i].attr ||
              a[i].h_xy_given_xa != b[i].h_xy_given_xa ||
              a[i].h_a_given_xy != b[i].h_a_given_xy || a[i].vi != b[i].vi) {
            return false;
          }
        }
        return true;
      },
      &eb_curve);

  const int walltime_failures = SlowerThanOneThread("repair_search",
                                                    repair_curve) +
                                SlowerThanOneThread("eb_ranking", eb_curve);

  const auto emit = [](std::ofstream& json, const char* name,
                       const ScalingCurve& c) {
    json << "  \"" << name << "\": {\n"
         << "    \"ms_t1\": " << c.MsAt(1) << ",\n"
         << "    \"ms_t2\": " << c.MsAt(2) << ",\n"
         << "    \"ms_t4\": " << c.MsAt(4) << ",\n"
         << "    \"ms_t8\": " << c.MsAt(8) << ",\n"
         << "    \"speedup_t4\": " << c.SpeedupAt(4) << "\n"
         << "  },\n";
  };
  std::ofstream json("BENCH_parallel.json");
  json << "{\n"
       << "  \"cores\": " << std::thread::hardware_concurrency() << ",\n";
  emit(json, "repair_search", repair_curve);
  emit(json, "eb_ranking", eb_curve);
  json << "  \"determinism_failures\": " << (ok ? 0 : 1) << ",\n"
       << "  \"walltime_gate_failures\": " << walltime_failures << ",\n"
       << "  \"fast\": " << (fast ? "true" : "false") << "\n"
       << "}\n";

  if (!ok) {
    std::cerr << "FAIL: some multi-thread run diverged from threads=1\n";
    return 1;
  }
  std::cout << "all multi-thread outputs identical to threads=1\n";
  if (walltime_failures != 0) {
    if (!fast) {
      std::cerr << "FAIL: a multi-thread run was slower than threads=1\n";
      return 1;
    }
    std::cout << "wall-time gate not enforced under FDEVOLVE_BENCH_FAST\n";
  } else {
    std::cout << "2 and 4 threads no slower than 1 on both workloads\n";
  }
  return 0;
}
