#include "query/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/cpu_features.h"

namespace fdevolve::query::kernels {
namespace {

using util::CpuTier;

/// Every test that forces a tier must put back what was selected on entry
/// — the registry is process-global, and the entry selection may itself be
/// an FDEVOLVE_CPU_FEATURES override that restoring DetectedTier() would
/// silently cancel for the rest of this binary.
struct RestoreTier {
  RestoreTier() : entry(SelectedTier()) {}
  ~RestoreTier() { ForceTier(entry); }
  CpuTier entry;
};

TEST(KernelDispatchTest, SupportedTiersStartAtBaselineAndAscend) {
  const auto tiers = SupportedTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), CpuTier::kBaseline);
  EXPECT_TRUE(std::is_sorted(tiers.begin(), tiers.end()));
  EXPECT_EQ(tiers.back(), DetectedTier());
}

TEST(KernelDispatchTest, ActiveMatchesSelectedTier) {
  EXPECT_EQ(Active().tier, SelectedTier());
}

TEST(KernelDispatchTest, ForceTierInstallsEverySupportedTier) {
  RestoreTier restore;
  for (CpuTier tier : SupportedTiers()) {
    EXPECT_EQ(ForceTier(tier), tier);
    EXPECT_EQ(SelectedTier(), tier);
    EXPECT_EQ(Active().tier, tier);
  }
}

TEST(KernelDispatchTest, ForceTierClampsToHostMaximum) {
  RestoreTier restore;
  // Asking for more than the host has yields the best available set, never
  // an illegal-instruction crash.
  EXPECT_EQ(ForceTier(CpuTier::kAvx512),
            std::min(CpuTier::kAvx512, DetectedTier()));
}

// The FDEVOLVE_CPU_FEATURES override is ParseCpuTier followed by the same
// clamp ForceTier applies: every canonical name installs its tier, or the
// host's best when the name asks for more.
TEST(KernelDispatchTest, ForceTierAcceptsEveryCanonicalName) {
  RestoreTier restore;
  for (const char* name : {"baseline", "avx2", "avx512"}) {
    CpuTier tier = CpuTier::kBaseline;
    ASSERT_TRUE(util::ParseCpuTier(name, &tier)) << name;
    EXPECT_EQ(ForceTier(tier), std::min(tier, DetectedTier())) << name;
    EXPECT_EQ(SelectedTier(), std::min(tier, DetectedTier())) << name;
  }
}

TEST(KernelDispatchTest, EveryTierProvidesBothKernels) {
  RestoreTier restore;
  for (CpuTier tier : SupportedTiers()) {
    ForceTier(tier);
    const KernelSet& ks = Active();
    EXPECT_NE(ks.dense_refine, nullptr) << util::CpuTierName(tier);
    EXPECT_NE(ks.flat_refine, nullptr) << util::CpuTierName(tier);
  }
}

}  // namespace
}  // namespace fdevolve::query::kernels
