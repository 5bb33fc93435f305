// Sequential-vs-parallel differential fuzzing of the repair-search stack:
// Extend (CB method), RankEb (ε_EB baseline), and the deletion repair.
//
// The `threads` knob documents that ranked output is bit-identical for
// every thread count — repairs, their measures (including the floating-
// point confidence), and all stats except wall time. This suite runs the
// same randomized instances through threads=1 and the parallel widths and
// demands exact equality. The deletion repair has no width of its own; it
// is run from concurrent pool workers instead. Reproducible via --seed=N /
// FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <vector>

#include "clustering/eb_repair.h"
#include "discovery/data_repair.h"
#include "fd/repair_search.h"
#include "relation/relation.h"
#include "support/fuzz_seed.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fdevolve {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;

constexpr int kThreadCounts[] = {2, 3, 8};

/// Random NULL-free relation: the candidate pool excludes NULL-able
/// attributes by default, so NULL-free instances keep the pool wide and
/// the search deep.
Relation RandomRelation(uint64_t seed, int n_attrs, size_t n_tuples,
                        size_t domain) {
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
      row.emplace_back(static_cast<int64_t>(rng.Below(domain)));
    }
    rel.AppendRow(row);
  }
  return rel;
}

/// Random FD with a 1-2 attribute antecedent; never trivial.
fd::Fd RandomFd(util::Rng& rng, int n_attrs) {
  const int rhs = static_cast<int>(rng.Below(static_cast<size_t>(n_attrs)));
  AttrSet lhs;
  const int lhs_size = 1 + static_cast<int>(rng.Below(2));
  while (lhs.Count() < lhs_size) {
    const int a = static_cast<int>(rng.Below(static_cast<size_t>(n_attrs)));
    if (a != rhs) lhs.Add(a);
  }
  AttrSet rhs_set;
  rhs_set.Add(rhs);
  return fd::Fd(lhs, rhs_set);
}

void ExpectSameResult(const fd::RepairResult& expected,
                      const fd::RepairResult& got, int threads) {
  EXPECT_EQ(got.already_exact, expected.already_exact) << "threads=" << threads;
  ASSERT_EQ(got.repairs.size(), expected.repairs.size())
      << "threads=" << threads;
  for (size_t i = 0; i < expected.repairs.size(); ++i) {
    const fd::Repair& e = expected.repairs[i];
    const fd::Repair& g = got.repairs[i];
    EXPECT_EQ(g.added, e.added) << "threads=" << threads << " repair " << i;
    EXPECT_EQ(g.measures.distinct_x, e.measures.distinct_x);
    EXPECT_EQ(g.measures.distinct_xy, e.measures.distinct_xy);
    EXPECT_EQ(g.measures.distinct_y, e.measures.distinct_y);
    // Bit-identical double, not approximate: both paths share the same
    // MeasuresFromCounts arithmetic on the same integers.
    EXPECT_EQ(g.measures.confidence, e.measures.confidence);
    EXPECT_EQ(g.measures.goodness, e.measures.goodness);
    EXPECT_EQ(g.within_goodness_threshold, e.within_goodness_threshold);
  }
  EXPECT_EQ(got.stats.nodes_expanded, expected.stats.nodes_expanded)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.candidates_evaluated,
            expected.stats.candidates_evaluated)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.frontier_peak, expected.stats.frontier_peak)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.pruned_supersets, expected.stats.pruned_supersets)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.pruned_by_bound, expected.stats.pruned_by_bound)
      << "threads=" << threads;
  EXPECT_EQ(got.stats.stop_reason, expected.stats.stop_reason)
      << "threads=" << threads;
}

class ParallelSearchFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(ParallelSearchFuzz, ExtendBitIdenticalAcrossThreadCounts) {
  util::Rng rng(seed());
  for (int round = 0; round < 3; ++round) {
    const int n_attrs = 6 + static_cast<int>(rng.Below(4));
    const size_t n_tuples = 100 + rng.Below(500);
    const size_t domain = 2 + rng.Below(6);
    Relation rel = RandomRelation(seed() + static_cast<uint64_t>(round),
                                  n_attrs, n_tuples, domain);
    fd::Fd f = RandomFd(rng, n_attrs);
    for (auto mode : {fd::SearchMode::kFirstRepair, fd::SearchMode::kAllRepairs,
                      fd::SearchMode::kTopK}) {
      fd::RepairOptions opts;
      opts.mode = mode;
      opts.max_added_attrs = 2;
      opts.threads = 1;
      fd::RepairResult expected = fd::Extend(rel, f, opts);
      for (int k : kThreadCounts) {
        opts.threads = k;
        ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
      }
    }
  }
}

TEST_P(ParallelSearchFuzz, ExtendBudgetSemanticsIdenticalUnderParallelism) {
  // The evaluation budget decides mid-batch where the search stops; the
  // batched path must stop on exactly the same candidate.
  util::Rng rng(seed() + 7);
  Relation rel = RandomRelation(seed() + 7, 8, 400, 3);
  fd::Fd f = RandomFd(rng, 8);
  for (size_t budget : {size_t{1}, size_t{5}, size_t{13}, size_t{40}}) {
    fd::RepairOptions opts;
    opts.mode = fd::SearchMode::kAllRepairs;
    opts.max_added_attrs = 3;
    opts.max_evaluations = budget;
    opts.threads = 1;
    fd::RepairResult expected = fd::Extend(rel, f, opts);
    for (int k : kThreadCounts) {
      opts.threads = k;
      ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
    }
  }
}

TEST_P(ParallelSearchFuzz, ExtendGoodnessAndAfdPathsIdentical) {
  util::Rng rng(seed() + 13);
  Relation rel = RandomRelation(seed() + 13, 7, 500, 4);
  fd::Fd f = RandomFd(rng, 7);
  for (double target : {1.0, 0.9}) {
    for (int64_t threshold : {int64_t{-1}, int64_t{3}}) {
      fd::RepairOptions opts;
      opts.mode = fd::SearchMode::kFirstRepair;
      opts.max_added_attrs = 2;
      opts.target_confidence = target;
      opts.goodness_threshold = threshold;
      opts.threads = 1;
      fd::RepairResult expected = fd::Extend(rel, f, opts);
      for (int k : kThreadCounts) {
        opts.threads = k;
        ExpectSameResult(expected, fd::Extend(rel, f, opts), k);
      }
    }
  }
}

TEST_P(ParallelSearchFuzz, RankEbBitIdenticalAcrossThreadCounts) {
  util::Rng rng(seed() + 23);
  Relation rel = RandomRelation(seed() + 23, 8, 600, 5);
  fd::Fd f = RandomFd(rng, 8);
  for (auto variant :
       {clustering::EbVariant::kOriginal, clustering::EbVariant::kVi}) {
    auto expected = clustering::RankEb(rel, f, fd::PoolOptions{}, variant, 1);
    for (int k : kThreadCounts) {
      auto got = clustering::RankEb(rel, f, fd::PoolOptions{}, variant, k);
      ASSERT_EQ(got.size(), expected.size()) << "threads=" << k;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i].attr, expected[i].attr) << "threads=" << k;
        // Entropies bit-identical: same per-candidate arithmetic order.
        EXPECT_EQ(got[i].h_xy_given_xa, expected[i].h_xy_given_xa);
        EXPECT_EQ(got[i].h_a_given_xy, expected[i].h_a_given_xy);
        EXPECT_EQ(got[i].vi, expected[i].vi);
      }
    }
  }
}

TEST_P(ParallelSearchFuzz, DeletionRepairIdenticalAcrossThreadCounts) {
  // k pool workers repair the same shared relation at once, each through
  // its own grouping passes; every one must match the lone sequential run.
  Relation rel = RandomRelation(seed() + 41, 5, 70000, 12);
  util::Rng rng(seed() + 41);
  fd::Fd f = RandomFd(rng, 5);
  auto expected = discovery::RepairByDeletion(rel, f);
  const size_t expected_pairs = discovery::CountViolatingPairs(rel, f);
  for (int k : {4, 8}) {
    std::vector<discovery::DataRepairResult> got(static_cast<size_t>(k));
    std::vector<size_t> pairs(static_cast<size_t>(k));
    util::ThreadPool::Global().ParallelFor(
        got.size(), 1, k, [&](int, size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            got[i] = discovery::RepairByDeletion(rel, f);
            pairs[i] = discovery::CountViolatingPairs(rel, f);
          }
        });
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].deleted, expected.deleted) << "threads=" << k;
      EXPECT_EQ(got[i].kept, expected.kept) << "threads=" << k;
      EXPECT_EQ(pairs[i], expected_pairs) << "threads=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelSearchFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
