// Cross-tier identity fuzzing for the SIMD kernel dispatch layer.
//
// Every tier this host can run (AVX2/AVX-512 on top of the always-present
// baseline scalar) must reproduce the baseline kernels BIT-FOR-BIT:
// identical first-appearance group ids, identical group counts, identical
// measure doubles — not merely equivalent partitions. The suite hammers
// that contract on randomized instances covering NULL-bearing columns,
// tombstoned rows, and post-compaction relations. Reproducible via
// --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fd/measures.h"
#include "query/group_ids.h"
#include "query/kernels.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "util/cpu_features.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

/// Random relation mixing int columns with NULLs at a per-column rate.
Relation RandomNullableRelation(uint64_t seed, int n_attrs, size_t n_tuples,
                                size_t domain, double null_rate) {
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < n_attrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  Relation rel("fuzz", Schema(std::move(attrs)));
  util::Rng rng(seed);
  for (size_t t = 0; t < n_tuples; ++t) {
    std::vector<Value> row;
    row.reserve(static_cast<size_t>(n_attrs));
    for (int i = 0; i < n_attrs; ++i) {
      if (rng.Chance(null_rate)) {
        row.push_back(Value::Null());
      } else {
        row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
      }
    }
    rel.AppendRow(row);
  }
  return rel;
}

AttrSet RandomSubset(util::Rng& rng, int n_attrs, double p) {
  AttrSet s;
  for (int a = 0; a < n_attrs; ++a) {
    if (rng.Chance(p)) s.Add(a);
  }
  return s;
}

/// Restores whatever tier was selected on entry — ForceTier is
/// process-global state, and the entry tier may itself be an override
/// (FDEVOLVE_CPU_FEATURES in the forced-baseline CI leg), so restoring
/// the *detected* tier would silently undo it for the rest of the binary.
class TierGuard {
 public:
  TierGuard() : entry_(query::kernels::SelectedTier()) {}
  ~TierGuard() { query::kernels::ForceTier(entry_); }

 private:
  util::CpuTier entry_;
};

class KernelTierFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(KernelTierFuzz, AllTiersMatchBaselineBitForBit) {
  TierGuard guard;
  util::Rng rng(seed());
  const auto tiers = query::kernels::SupportedTiers();
  for (int round = 0; round < 5; ++round) {
    const int n_attrs = 2 + static_cast<int>(rng.Below(5));
    const size_t n_tuples = rng.Below(400);
    const size_t domain = 1 + rng.Below(10);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.25;
    Relation rel = RandomNullableRelation(
        seed() + static_cast<uint64_t>(round) * 1000003ULL, n_attrs, n_tuples,
        domain, null_rate);
    // Tombstone a random slice; sometimes fold it away, so both the
    // live-masked and the compacted (re-encoded) shapes are covered.
    if (round >= 1 && n_tuples > 0) {
      for (size_t t = 0; t < n_tuples; ++t) {
        if (rng.Chance(0.15)) rel.DeleteRow(t);
      }
      if (round % 2 == 1) rel.Compact();
    }

    for (int trial = 0; trial < 4; ++trial) {
      const AttrSet attrs = RandomSubset(rng, n_attrs, 0.5);
      const int refine_attr = static_cast<int>(rng.Below(n_attrs));
      const fd::Fd fd(AttrSet::Of({0}), AttrSet::Of({1}));

      // Baseline truth.
      query::kernels::ForceTier(util::CpuTier::kBaseline);
      const auto ref_group = query::GroupBy(rel, attrs);
      const size_t ref_count = query::GroupCountBy(rel, attrs);
      const auto ref_refine = query::RefineBy(rel, ref_group, refine_attr);
      const auto ref_measures = fd::ComputeMeasures(rel, fd);

      for (util::CpuTier tier : tiers) {
        query::kernels::ForceTier(tier);
        query::RefineScratch s;
        const std::string ctx = std::string(util::CpuTierName(tier)) +
                                " round=" + std::to_string(round) +
                                " trial=" + std::to_string(trial);
        const auto g = query::GroupBy(rel, attrs, s);
        EXPECT_EQ(g.ids, ref_group.ids) << ctx;
        EXPECT_EQ(g.group_count, ref_group.group_count) << ctx;
        EXPECT_EQ(query::GroupCountBy(rel, attrs, s), ref_count) << ctx;
        const auto r = query::RefineBy(rel, g, refine_attr, s);
        EXPECT_EQ(r.ids, ref_refine.ids) << ctx;
        EXPECT_EQ(r.group_count, ref_refine.group_count) << ctx;
        const auto m = fd::ComputeMeasures(rel, fd);
        EXPECT_EQ(m.confidence, ref_measures.confidence) << ctx;
        EXPECT_EQ(m.goodness, ref_measures.goodness) << ctx;
      }
    }
  }
}

// Hand-built out-of-range base ids must throw on every tier — the bounds
// check is part of the kernel contract, not just the scalar path.
TEST_P(KernelTierFuzz, BadBaseIdsThrowOnEveryTier) {
  TierGuard guard;
  Relation rel = RandomNullableRelation(seed(), 3, 100, 5, 0.0);
  query::Grouping bad;
  bad.ids.assign(100, 7);
  bad.group_count = 3;  // lies: ids reach 7
  for (util::CpuTier tier : query::kernels::SupportedTiers()) {
    query::kernels::ForceTier(tier);
    EXPECT_THROW(query::RefineBy(rel, bad, 1), std::invalid_argument)
        << util::CpuTierName(tier);
    EXPECT_THROW(query::RefineCountBy(rel, bad, AttrSet::Of({1, 2})),
                 std::invalid_argument)
        << util::CpuTierName(tier);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTierFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
