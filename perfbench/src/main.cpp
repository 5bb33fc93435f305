// End-to-end benchmark binary. Runs one workload and writes its raw
// samples to a JSON file; perfbench/run.py builds this binary, runs it and
// turns the samples into the reported metrics.
//
//   fdevolve_perfbench --workload ingest_monitor --seed 1 --seconds 20
//       --trace 0 --out raw.json --tmp DIR
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "phases.h"
#include "query/kernels.h"
#include "record.h"
#include "util/cpu_features.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::PhaseSize;

/// Each workload's path and size. A path runs past --seconds until it has
/// min_samples operations per class (closed loop) or cycles (durability
/// path), so every median rests on enough samples. A traced run of the
/// durability path stops after 30 cycles of each kind (unrolled and real).
struct Workload {
  const char* name;
  void (*run)(const perfbench::Context&, const PhaseSize&);
  size_t divisor;
  size_t min_samples;
  size_t traced_min_samples;
};
constexpr Workload kWorkloads[] = {
    // SF 0.02: lineitem 120k, orders 30k.
    {"ingest_monitor", perfbench::RunIngest, 50, 1000, 1000},
    // SF 0.05: lineitem 300k, orders 75k.
    {"checkpoint_resume", perfbench::RunDurability, 20, 60, 30},
};

int Usage() {
  std::fprintf(stderr,
               "usage: fdevolve_perfbench --workload "
               "ingest_monitor|checkpoint_resume --seed N "
               "--seconds S --trace 0|1 --out FILE --tmp DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "out", "tmp"}) {
    if (!args.count(key)) return Usage();
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args["workload"] == w.name) workload = &w;
  }
  if (workload == nullptr) return Usage();

  perfbench::Recorder rec;
  perfbench::Checks checks;
  perfbench::Tracer tracer(args["trace"] == "1");
  perfbench::Context ctx;
  ctx.seed = std::stoull(args["seed"]);
  ctx.trace = tracer.enabled();
  ctx.tmp_dir = args["tmp"];
  ctx.rec = &rec;
  ctx.checks = &checks;
  ctx.tracer = &tracer;
  const PhaseSize size{workload->divisor, std::stod(args["seconds"]),
                       ctx.trace ? workload->traced_min_samples
                                 : workload->min_samples};

  try {
    workload->run(ctx, size);
  } catch (const std::exception& e) {
    checks.Expect(false, std::string("exception: ") + e.what());
  }

  namespace kernels = fdevolve::query::kernels;
  const std::map<std::string, std::string> info = {
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"kernel_tier_detected", fdevolve::util::CpuTierName(kernels::DetectedTier())},
      {"kernel_tier_selected", fdevolve::util::CpuTierName(kernels::SelectedTier())},
      {"hardware_concurrency", std::to_string(std::thread::hardware_concurrency())},
  };
  if (!perfbench::WriteRawResult(args["out"], args["workload"], rec, checks,
                                 tracer, info)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args["out"].c_str());
    return 1;
  }
  return checks.failed() == 0 ? 0 : 1;
}
