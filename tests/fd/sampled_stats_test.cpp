// Statistical verification of the sampled monitor's one certain signal.
//
// A sampled monitor reports a violation only when its reservoir holds a
// witness pair — two rows agreeing on X and differing on Y — and such a
// pair exists in the full relation too. This suite checks that claim over
// seeded churn trials in every adversarial scenario (delete-heavy,
// reinsert-heavy, domain-growth) with zero tolerance: one false alarm
// fails it. Deterministic under the default base seed;
// FDEVOLVE_STATS_TRIALS raises the trial count for nightly runs.
//
// Suite name SampledStats — `verify.sh --stats` and the nightly CI step
// target it by that regex.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "datagen/churn.h"
#include "fd/measures.h"
#include "fd/sampled_monitor.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "support/stats.h"

namespace fdevolve::fd {
namespace {

using datagen::ApplyChurnOp;
using datagen::ChurnFd;
using datagen::ChurnScenario;
using datagen::ChurnSpec;
using datagen::ChurnStream;
using datagen::MakeChurn;
using relation::Relation;
using testsupport::CountSuccesses;
using testsupport::StatsTrials;

/// Exact measures of the final live instance (compact a copy — fresh
/// scans reject tombstoned relations by contract).
FdMeasures TrueMeasures(const Relation& rel, const Fd& fd) {
  Relation compacted = rel;
  compacted.Compact();
  return ComputeMeasures(compacted, fd);
}

TEST(SampledStats, WitnessedViolationsAreNeverFalsePositives) {
  // The structural claim behind drift events: a sampled witness pair is a
  // certainty, so whenever the monitor reports a violation the full
  // relation must genuinely violate the FD. Checked across all scenarios
  // and every seed — zero tolerance, not a coverage rate.
  const int trials = StatsTrials(60);
  for (ChurnScenario scenario :
       {ChurnScenario::kDeleteHeavy, ChurnScenario::kReinsertHeavy,
        ChurnScenario::kDomainGrowth}) {
    const int ok = CountSuccesses(trials, 3000, [&](uint64_t seed) {
      ChurnSpec spec;
      spec.scenario = scenario;
      spec.seed_rows = 60;
      spec.n_ops = 200;
      spec.seed = seed;
      spec.violation_rate = 0.15;  // plant plenty of witnesses
      const ChurnStream stream = MakeChurn(spec);
      Relation rel = stream.initial;
      SampledSchemaMonitor mon(&rel, {ChurnFd(rel.schema())},
                               /*check_interval=*/16, /*capacity=*/24,
                               /*seed=*/seed + 1);
      for (const datagen::ChurnOp& op : stream.ops) {
        ApplyChurnOp(&rel, op);
        mon.Poll();
      }
      mon.CheckNow();
      if (!mon.fds()[0].violated) return true;  // no claim
      return !TrueMeasures(rel, ChurnFd(rel.schema())).exact;
    });
    EXPECT_EQ(ok, trials) << datagen::ChurnScenarioName(scenario);
  }
}

}  // namespace
}  // namespace fdevolve::fd
