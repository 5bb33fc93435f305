#include "util/cpu_features.h"

#include <gtest/gtest.h>

#include <string>

namespace fdevolve::util {
namespace {

TEST(CpuFeaturesTest, DetectionIsCachedAndStable) {
  const CpuFeatures& a = DetectCpuFeatures();
  const CpuFeatures& b = DetectCpuFeatures();
  EXPECT_EQ(&a, &b);  // probed once, same cached instance
  EXPECT_EQ(a.avx2, b.avx2);
  EXPECT_EQ(a.avx512, b.avx512);
}

TEST(CpuFeaturesTest, TiersImplyLowerOnes) {
  // A host reporting a wide tier without the narrower ones would mean the
  // probe is wrong (the ISA levels are strictly nested).
  const CpuFeatures& f = DetectCpuFeatures();
  if (f.avx512) {
    EXPECT_TRUE(f.avx2);
  }
}

TEST(CpuFeaturesTest, MaxTierMatchesFlags) {
  CpuFeatures f;
  EXPECT_EQ(f.max_tier(), CpuTier::kBaseline);
  f.avx2 = true;
  EXPECT_EQ(f.max_tier(), CpuTier::kAvx2);
  f.avx512 = true;
  EXPECT_EQ(f.max_tier(), CpuTier::kAvx512);
}

TEST(CpuFeaturesTest, TierNamesRoundTripThroughParse) {
  for (CpuTier tier : {CpuTier::kBaseline, CpuTier::kAvx2, CpuTier::kAvx512}) {
    CpuTier parsed = CpuTier::kAvx512;  // poison with a different value
    ASSERT_TRUE(ParseCpuTier(CpuTierName(tier), &parsed)) << CpuTierName(tier);
    EXPECT_EQ(parsed, tier);
  }
}

TEST(CpuFeaturesTest, ParseRejectsUnknownNamesAndLeavesOutputAlone) {
  for (const char* bad :
       {"", "AVX2", "avx", "sse4.2", "avx512f", "scalar", "sse42"}) {
    CpuTier tier = CpuTier::kAvx2;
    EXPECT_FALSE(ParseCpuTier(bad, &tier)) << "'" << bad << "'";
    EXPECT_EQ(tier, CpuTier::kAvx2) << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace fdevolve::util
