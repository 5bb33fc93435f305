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

/// A relation whose refinement chains run past kernels::kMaxFusedLevels:
/// a0 is key-like, a1 wide, and a2..a41 narrow (1-2 values, stride 1 when
/// constant) with NULLs in about a third of them, so dense segments fill
/// all kMaxFusedLevels slots.
Relation LongChainRelation(uint64_t seed, size_t n_tuples) {
  constexpr int kAttrs = 42;
  util::Rng rng(seed);
  std::vector<size_t> domain(kAttrs);
  std::vector<double> null_rate(kAttrs, 0.0);
  domain[0] = n_tuples / 2 + 1;
  domain[1] = 1000;
  for (int i = 2; i < kAttrs; ++i) {
    domain[i] = 1 + rng.Below(2);
    if (rng.Chance(0.35)) null_rate[i] = 0.2;
  }
  std::vector<relation::Attribute> attrs;
  for (int i = 0; i < kAttrs; ++i) {
    attrs.push_back({"a" + std::to_string(i), DataType::kInt64});
  }
  Relation rel("long", Schema(std::move(attrs)));
  for (size_t t = 0; t < n_tuples; ++t) {
    std::vector<Value> row;
    for (int i = 0; i < kAttrs; ++i) {
      if (rng.Chance(null_rate[i])) {
        row.push_back(Value::Null());
      } else {
        row.emplace_back(static_cast<int64_t>(rng.Below(domain[i])));
      }
    }
    rel.AppendRow(row);
  }
  return rel;
}

// Chains longer than kMaxFusedLevels split into several fused segments:
// the narrow-only chain through the dense kernels, and the chain that
// starts at the wide column off a key-like base through the flat ones.
// Every tier must match baseline, materializing and count-only, with and
// without tombstones.
TEST_P(KernelTierFuzz, LongChainsMatchBaseline) {
  TierGuard guard;
  Relation rel = LongChainRelation(seed(), 600);
  util::Rng rng(seed() ^ 0x5eedULL);
  AttrSet narrow;
  for (int i = 2; i < rel.attr_count(); ++i) narrow.Add(i);
  const AttrSet wide_and_narrow = narrow.With(1);
  ASSERT_GT(static_cast<size_t>(narrow.Count()),
            query::kernels::kMaxFusedLevels);
  for (bool tombstoned : {false, true}) {
    if (tombstoned) {
      for (size_t t = 0; t < rel.tuple_count(); ++t) {
        if (rng.Chance(0.15)) rel.DeleteRow(t);
      }
    }
    query::kernels::ForceTier(util::CpuTier::kBaseline);
    const auto base = query::GroupBy(rel, AttrSet::Of({0}));
    const auto ref_group = query::GroupBy(rel, narrow);
    const size_t ref_count = query::GroupCountBy(rel, narrow);
    const auto ref_refine = query::RefineBy(rel, base, wide_and_narrow);
    const size_t ref_refine_count =
        query::RefineCountBy(rel, base, wide_and_narrow);

    for (util::CpuTier tier : query::kernels::SupportedTiers()) {
      query::kernels::ForceTier(tier);
      query::RefineScratch s;
      const std::string ctx = std::string(util::CpuTierName(tier)) +
                              (tombstoned ? " tombstoned" : " clean");
      const auto g = query::GroupBy(rel, narrow, s);
      EXPECT_EQ(g.ids, ref_group.ids) << ctx;
      EXPECT_EQ(g.group_count, ref_group.group_count) << ctx;
      EXPECT_EQ(query::GroupCountBy(rel, narrow, s), ref_count) << ctx;
      const auto r = query::RefineBy(rel, base, wide_and_narrow, s);
      EXPECT_EQ(r.ids, ref_refine.ids) << ctx;
      EXPECT_EQ(r.group_count, ref_refine.group_count) << ctx;
      EXPECT_EQ(query::RefineCountBy(rel, base, wide_and_narrow, s),
                ref_refine_count)
          << ctx;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelTierFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
