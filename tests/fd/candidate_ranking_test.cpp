#include "fd/candidate_ranking.h"

#include <gtest/gtest.h>

#include "datagen/places.h"
#include "datagen/synthetic.h"
#include "fd/planner.h"
#include "fd/repair_search.h"

namespace fdevolve::fd {
namespace {

using relation::AttrSet;
using relation::DataType;
using relation::Relation;
using relation::RelationBuilder;
using relation::Schema;
using relation::Value;

TEST(CandidatePoolTest, ExcludesFdAttributes) {
  auto rel = datagen::MakePlaces();
  Fd f1 = datagen::PlacesF1(rel.schema());
  AttrSet pool = CandidatePool(rel, f1);
  EXPECT_EQ(pool.Count(), 6);  // 9 attrs − 3 in the FD
  EXPECT_FALSE(pool.Intersects(f1.AllAttrs()));
}

TEST(CandidatePoolTest, ExcludesNullColumns) {
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"clean", DataType::kInt64},
                 {"dirty", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({int64_t{1}, int64_t{1}, int64_t{1}, Value::Null()})
                     .Row({int64_t{1}, int64_t{2}, int64_t{2}, int64_t{5}})
                     .Build();
  Fd f(AttrSet::Of({0}), AttrSet::Of({1}));
  AttrSet pool = CandidatePool(rel, f);
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(3));  // has NULLs

  PoolOptions allow_nulls;
  allow_nulls.exclude_nulls = false;
  EXPECT_TRUE(CandidatePool(rel, f, allow_nulls).Contains(3));
}

// A NULL held only by a tombstoned row is not in the instance: the pool,
// EXPLAIN REPAIR's candidate list and Extend must treat the column as
// NULL-free, exactly as on the compacted copy.
TEST(CandidatePoolTest, NullOnlyInDeletedRowKeepsColumn) {
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"a", DataType::kInt64},
                 {"b", DataType::kInt64}});
  Relation rel("t", schema);
  for (int64_t t = 0; t < 20; ++t) {
    // x -> y holds except on row 0.
    rel.AppendRow({t % 4, t == 0 ? int64_t{1} : t % 2, t % 3, t % 5});
  }
  rel.AppendRow({int64_t{0}, int64_t{0}, Value::Null(), int64_t{0}});
  rel.DeleteRow(20);
  const Relation compacted = rel.CompactedCopy();
  Fd f(AttrSet::Of({0}), AttrSet::Of({1}));

  EXPECT_EQ(CandidatePool(rel, f), AttrSet::Of({2, 3}));
  EXPECT_EQ(CandidatePool(rel, f), CandidatePool(compacted, f));
  EXPECT_EQ(PlanRepair(rel, f).candidates.size(), 2u);
  EXPECT_EQ(PlanRepair(compacted, f).candidates.size(), 2u);
  const RepairResult got = Extend(rel, f);
  const RepairResult want = Extend(compacted, f);
  ASSERT_EQ(got.repairs.size(), want.repairs.size());
  for (size_t i = 0; i < want.repairs.size(); ++i) {
    EXPECT_EQ(got.repairs[i].added, want.repairs[i].added) << i;
    EXPECT_EQ(got.repairs[i].measures, want.repairs[i].measures) << i;
  }
}

TEST(CandidatePoolTest, ExcludeUniqueOption) {
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kInt64},
                 {"key", DataType::kInt64},
                 {"dup", DataType::kInt64}});
  Relation rel = RelationBuilder("t", schema)
                     .Row({int64_t{1}, int64_t{1}, int64_t{10}, int64_t{0}})
                     .Row({int64_t{1}, int64_t{2}, int64_t{11}, int64_t{0}})
                     .Build();
  Fd f(AttrSet::Of({0}), AttrSet::Of({1}));
  EXPECT_TRUE(CandidatePool(rel, f).Contains(2));
  PoolOptions opts;
  opts.exclude_unique = true;
  AttrSet pool = CandidatePool(rel, f, opts);
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST(CandidatePoolTest, RestrictToWindow) {
  auto rel = datagen::MakePlaces();
  Fd f1 = datagen::PlacesF1(rel.schema());
  PoolOptions opts;
  opts.restrict_to = AttrSet::Of({rel.schema().Require("Municipal"),
                                  rel.schema().Require("Zip")});
  AttrSet pool = CandidatePool(rel, f1, opts);
  EXPECT_EQ(pool.Count(), 2);
}

TEST(ExtendByOneTest, ReturnsAllCandidatesSorted) {
  auto rel = datagen::MakePlaces();
  query::DistinctEvaluator eval(rel);
  auto cands = ExtendByOne(eval, datagen::PlacesF1(rel.schema()));
  ASSERT_EQ(cands.size(), 6u);
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_FALSE(Candidate::RankLess(cands[i], cands[i - 1]))
        << "candidates out of order at " << i;
  }
}

TEST(ExtendByOneTest, ExtendedFdHasCandidateInAntecedent) {
  auto rel = datagen::MakePlaces();
  query::DistinctEvaluator eval(rel);
  Fd f1 = datagen::PlacesF1(rel.schema());
  for (const auto& c : ExtendByOne(eval, f1)) {
    EXPECT_TRUE(c.extended.lhs().Contains(c.attr));
    EXPECT_EQ(c.extended.rhs(), f1.rhs());
  }
}

TEST(RankLessTest, ConfidencePrimary) {
  Candidate hi, lo;
  hi.attr = 5;
  hi.measures.confidence = 0.9;
  hi.measures.goodness = 100;
  lo.attr = 1;
  lo.measures.confidence = 0.5;
  lo.measures.goodness = 0;
  EXPECT_TRUE(Candidate::RankLess(hi, lo));
  EXPECT_FALSE(Candidate::RankLess(lo, hi));
}

TEST(RankLessTest, AbsGoodnessSecondary) {
  Candidate near_zero, negative, positive;
  near_zero.measures.confidence = 1.0;
  near_zero.measures.goodness = 0;
  negative.measures.confidence = 1.0;
  negative.measures.goodness = -1;
  positive.measures.confidence = 1.0;
  positive.measures.goodness = 3;
  EXPECT_TRUE(Candidate::RankLess(near_zero, negative));
  EXPECT_TRUE(Candidate::RankLess(negative, positive));  // |−1| < |3|
}

TEST(RankLessTest, AttrIndexBreaksFullTies) {
  Candidate a, b;
  a.attr = 2;
  b.attr = 7;
  a.measures.confidence = b.measures.confidence = 0.7;
  a.measures.goodness = b.measures.goodness = -2;
  EXPECT_TRUE(Candidate::RankLess(a, b));
}

TEST(ExtendByOneTest, UniqueAttributePenalisedNotBanned) {
  // A UNIQUE attribute reaches confidence 1 but with large |goodness|; a
  // "right-sized" attribute with the same confidence must outrank it.
  datagen::SyntheticSpec spec;
  spec.n_attrs = 5;
  spec.n_tuples = 400;
  spec.repair_length = 1;
  spec.determinant_domain = 30;
  Relation base = datagen::MakeSynthetic(spec);

  // Append a UNIQUE column.
  std::vector<relation::Attribute> attrs = base.schema().attrs();
  attrs.push_back({"rowid", DataType::kInt64});
  Relation rel("t", Schema(attrs));
  for (size_t t = 0; t < base.tuple_count(); ++t) {
    std::vector<Value> row;
    for (int a = 0; a < base.attr_count(); ++a) row.push_back(base.Get(t, a));
    row.push_back(static_cast<int64_t>(t));
    rel.AppendRow(row);
  }

  query::DistinctEvaluator eval(rel);
  Fd f = datagen::SyntheticFd(rel.schema());
  auto cands = ExtendByOne(eval, f);
  // rowid achieves confidence 1 (it is a key) ...
  const Candidate* rowid = nullptr;
  for (const auto& c : cands) {
    if (c.attr == rel.schema().Require("rowid")) rowid = &c;
  }
  ASSERT_NE(rowid, nullptr);
  EXPECT_DOUBLE_EQ(rowid->measures.confidence, 1.0);
  // ... but D1 (the planted right-sized determinant) ranks strictly above.
  EXPECT_EQ(cands[0].attr, rel.schema().Require("D1"));
  EXPECT_LT(cands[0].measures.abs_goodness(), rowid->measures.abs_goodness());
}

TEST(ExtendByOneTest, EmptyPoolYieldsNothing) {
  Schema schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}});
  Relation rel("t", schema);
  rel.AppendRow({int64_t{1}, int64_t{2}});
  query::DistinctEvaluator eval(rel);
  Fd f(AttrSet::Of({0}), AttrSet::Of({1}));
  EXPECT_TRUE(ExtendByOne(eval, f).empty());
}

}  // namespace
}  // namespace fdevolve::fd
