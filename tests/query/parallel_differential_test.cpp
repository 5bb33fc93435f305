// Candidate fan-out differential fuzzing of the refinement engine.
//
// Refinement passes are sequential; the only parallelism is one level up,
// where the repair search (Extend) and the ε_EB ranking loop fan
// independent candidates out across util::ThreadPool, each worker on its
// own RefineScratch while the relation and the base groupings are shared
// read-only. This suite drives the query layer in exactly that shape and
// demands results bit-identical to one thread doing the same work in
// order — first-appearance ids, not merely equivalent partitions — plus
// the error path (a worker's exception must surface on the caller).
// Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "query/distinct.h"
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

constexpr int kThreadCounts[] = {2, 3, 4, 8};

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

/// Runs `task(i, scratch)` for every i in [0, n) on up to `width` pool
/// workers, one RefineScratch per chunk — the fan-out shape of Extend's
/// candidate batches and RankEb. Results go to slot i, so they are
/// independent of scheduling.
template <typename Task>
void FanOut(size_t n, int width, Task task) {
  std::vector<query::RefineScratch> scratch(
      std::max<size_t>(1, std::min(static_cast<size_t>(width), n)));
  util::ThreadPool::Global().ParallelFor(
      n, 1, width, [&](int chunk, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          task(i, scratch[static_cast<size_t>(chunk)]);
        }
      });
}

class ParallelQueryFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }
};

TEST_P(ParallelQueryFuzz, GroupByBitIdenticalAcrossThreadCounts) {
  util::Rng rng(seed());
  for (int round = 0; round < 4; ++round) {
    const int n_attrs = 2 + static_cast<int>(rng.Below(5));
    const size_t n_tuples = rng.Below(600);
    const size_t domain = 1 + rng.Below(10);
    const double null_rate = round % 2 == 0 ? 0.0 : 0.2;
    Relation rel = RandomNullableRelation(seed() + static_cast<uint64_t>(round),
                                          n_attrs, n_tuples, domain, null_rate);
    std::vector<AttrSet> sets;
    for (int trial = 0; trial < 6; ++trial) {
      sets.push_back(RandomSubset(rng, n_attrs, 0.5));
    }
    std::vector<query::Grouping> expected;
    query::RefineScratch seq;
    for (const AttrSet& s : sets) {
      expected.push_back(query::GroupBy(rel, s, seq));
    }
    for (int k : kThreadCounts) {
      std::vector<query::Grouping> got(sets.size());
      FanOut(sets.size(), k, [&](size_t i, query::RefineScratch& ws) {
        got[i] = query::GroupBy(rel, sets[i], ws);
      });
      for (size_t i = 0; i < sets.size(); ++i) {
        ASSERT_EQ(got[i].group_count, expected[i].group_count)
            << "threads=" << k << " attrs=" << sets[i].Count();
        // Bit-identical ids, not just the same partition.
        ASSERT_EQ(got[i].ids, expected[i].ids)
            << "threads=" << k << " attrs=" << sets[i].Count()
            << " tuples=" << n_tuples;
      }
    }
  }
}

TEST_P(ParallelQueryFuzz, CountsAgreeAcrossThreadCountsAndStrategies) {
  util::Rng rng(seed() + 17);
  Relation rel = RandomNullableRelation(seed() + 17, 6, 500, 7, 0.15);
  std::vector<AttrSet> sets;
  std::vector<size_t> expected;
  for (int trial = 0; trial < 10; ++trial) {
    sets.push_back(RandomSubset(rng, 6, 0.4));  // may be empty
    expected.push_back(
        query::DistinctCount(rel, sets.back(), query::DistinctStrategy::kSort));
    EXPECT_EQ(query::DistinctCount(rel, sets.back()), expected.back());
  }
  for (int k : kThreadCounts) {
    std::vector<size_t> hash(sets.size()), grouped(sets.size());
    FanOut(sets.size(), k, [&](size_t i, query::RefineScratch& ws) {
      hash[i] = query::DistinctCount(rel, sets[i]);
      grouped[i] = query::GroupCountBy(rel, sets[i], ws);
    });
    EXPECT_EQ(hash, expected) << "threads=" << k;
    EXPECT_EQ(grouped, expected) << "threads=" << k;
  }
}

TEST_P(ParallelQueryFuzz, RefinementFromSharedBaseBitIdentical) {
  // Extend's batch shape: every worker refines the same base grouping,
  // shared read-only, by its own candidate attribute set.
  util::Rng rng(seed() + 31);
  Relation rel = RandomNullableRelation(seed() + 31, 6, 400, 5, 0.1);
  query::RefineScratch seq;
  for (int trial = 0; trial < 8; ++trial) {
    const query::Grouping base =
        query::GroupBy(rel, RandomSubset(rng, 6, 0.4), seq);
    std::vector<AttrSet> more;
    std::vector<query::Grouping> expected;
    for (int c = 0; c < 5; ++c) {
      more.push_back(RandomSubset(rng, 6, 0.4));
      expected.push_back(query::RefineBy(rel, base, more.back(), seq));
      ASSERT_EQ(expected.back().group_count,
                query::RefineCountBy(rel, base, more.back(), seq));
    }
    for (int k : kThreadCounts) {
      std::vector<query::Grouping> got(more.size());
      std::vector<size_t> counts(more.size());
      FanOut(more.size(), k, [&](size_t i, query::RefineScratch& ws) {
        got[i] = query::RefineBy(rel, base, more[i], ws);
        counts[i] = query::RefineCountBy(rel, base, more[i], ws);
      });
      for (size_t i = 0; i < more.size(); ++i) {
        ASSERT_EQ(got[i].ids, expected[i].ids) << "threads=" << k;
        ASSERT_EQ(counts[i], expected[i].group_count) << "threads=" << k;
      }
    }
  }
}

TEST_P(ParallelQueryFuzz, EvaluatorMatchesAtDefaultGrainOnLargeInstance) {
  // A large instance (many full SIMD batches per pass), read the way
  // Extend reads it: the evaluator's cached groupings are snapshotted up
  // front and shared by every worker, each counting |π_{S ∪ {a}}| for its
  // own candidate a, and the counts must equal the evaluator's own.
  Relation rel = RandomNullableRelation(seed() + 47, 5, 70000, 6, 0.05);
  query::DistinctEvaluator eval(rel);
  util::Rng rng(seed() + 47);
  for (int trial = 0; trial < 6; ++trial) {
    const AttrSet s = RandomSubset(rng, 5, 0.5);
    const query::Grouping& base = eval.GroupFor(s);
    std::vector<size_t> expected;
    for (int a = 0; a < 5; ++a) {
      AttrSet sa = s;
      sa.Add(a);
      expected.push_back(eval.Count(sa));
    }
    for (int k : kThreadCounts) {
      std::vector<size_t> got(expected.size());
      FanOut(expected.size(), k, [&](size_t i, query::RefineScratch& ws) {
        got[i] = query::RefineCountBy(rel, base,
                                      AttrSet::Of({static_cast<int>(i)}), ws);
      });
      EXPECT_EQ(got, expected) << "threads=" << k << " trial=" << trial;
    }
  }
}

TEST_P(ParallelQueryFuzz, ExtremeWidthsStayIdentical) {
  // Widths far beyond the candidate count: the pool caps the partition at
  // one candidate per chunk, and every slot is still filled exactly once.
  Relation rel = RandomNullableRelation(seed() + 73, 4, 200, 5, 0.1);
  const std::vector<AttrSet> sets = {AttrSet::Of({0, 1, 3}), AttrSet::Of({2}),
                                     AttrSet::Of({1, 2}), AttrSet(),
                                     AttrSet::Of({0, 1, 2, 3})};
  std::vector<query::Grouping> expected;
  query::RefineScratch seq;
  for (const AttrSet& s : sets) {
    expected.push_back(query::GroupBy(rel, s, seq));
  }
  for (int k : {7, 64, 199, 200, 1999}) {
    std::vector<query::Grouping> got(sets.size());
    std::vector<size_t> counts(sets.size());
    FanOut(sets.size(), k, [&](size_t i, query::RefineScratch& ws) {
      got[i] = query::GroupBy(rel, sets[i], ws);
      counts[i] = query::GroupCountBy(rel, sets[i], ws);
    });
    for (size_t i = 0; i < sets.size(); ++i) {
      ASSERT_EQ(got[i].ids, expected[i].ids) << "threads=" << k;
      ASSERT_EQ(counts[i], expected[i].group_count) << "threads=" << k;
    }
  }
}

TEST_P(ParallelQueryFuzz, MalformedBaseThrowsThroughThePool) {
  // The kernels' bounds check fires inside a worker; the exception must
  // propagate out of ParallelFor to the caller.
  Relation rel = RandomNullableRelation(seed() + 61, 3, 300, 4, 0.0);
  query::Grouping lying;
  lying.ids.assign(rel.tuple_count(), 2);  // ids >= group_count
  lying.group_count = 1;
  for (int k : kThreadCounts) {
    EXPECT_THROW(FanOut(3, k,
                        [&](size_t i, query::RefineScratch& ws) {
                          query::RefineBy(
                              rel, lying,
                              AttrSet::Of({static_cast<int>(i)}), ws);
                        }),
                 std::invalid_argument)
        << "threads=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelQueryFuzz, ::testing::Range(0, 6));

}  // namespace
}  // namespace fdevolve
