// Differential fuzzing of SQL COUNT against a brute-force oracle.
//
// SQL COUNT(*) and COUNT(DISTINCT ...) run through the query layer's
// masked count kernels; the oracle decodes every live row that passes the
// WHERE clause and counts it (COUNT(*)) or inserts its projected tuple
// into a std::set (COUNT(DISTINCT), skipping tuples with a NULL). Covers
// =, <>, IS [NOT] NULL, literals absent from the column or of another
// type, NULL literals, NULLs in counted columns, tombstones, Compact(),
// DELETE's row count, and every kernel tier the host supports.
// Reproducible via --seed=N / FDEVOLVE_SEED.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "query/kernels.h"
#include "relation/relation.h"
#include "sql/database.h"
#include "sql/engine.h"
#include "support/fuzz_seed.h"
#include "util/rng.h"

namespace fdevolve {
namespace {

using relation::DataType;
using relation::Relation;
using relation::Schema;
using relation::Value;
using sql::Condition;
using sql::CountQuery;

constexpr int kAttrs = 4;

/// Value of column `attr` drawn from a small domain: int, int, string,
/// double. Columns 0 and 2 hold NULLs.
Value RandomCell(util::Rng& rng, int attr, size_t domain) {
  if ((attr == 0 || attr == 2) && rng.Below(6) == 0) return Value::Null();
  const auto v = static_cast<int64_t>(rng.Below(domain));
  switch (attr) {
    case 2:
      return Value("s" + std::to_string(v));
    case 3:
      return Value(static_cast<double>(v) + 0.5);
    default:
      return Value(v);
  }
}

Relation RandomTable(util::Rng& rng, size_t rows, size_t domain) {
  Relation rel("t", Schema({{"a", DataType::kInt64},
                            {"b", DataType::kInt64},
                            {"s", DataType::kString},
                            {"d", DataType::kDouble}}));
  for (size_t t = 0; t < rows; ++t) {
    std::vector<Value> row;
    for (int a = 0; a < kAttrs; ++a) row.push_back(RandomCell(rng, a, domain));
    rel.AppendRow(row);
  }
  return rel;
}

/// One WHERE conjunct: a value of the column's domain (present or not in
/// the live rows), a value outside it, a literal of another type, or NULL.
Condition RandomCondition(util::Rng& rng, const Relation& rel, size_t domain) {
  Condition c;
  const int attr = static_cast<int>(rng.Below(kAttrs));
  c.column = rel.schema().attr(attr).name;
  c.op = static_cast<Condition::Op>(rng.Below(4));
  switch (rng.Below(5)) {
    case 0:
      c.literal = Value::Null();
      break;
    case 1:
      c.literal = attr == 2 ? Value("absent") : Value(int64_t{1000});
      break;
    case 2:
      c.literal = attr == 2 ? Value(int64_t{1}) : Value("1");
      break;
    default:
      do {
        c.literal = RandomCell(rng, attr, domain);
      } while (c.literal.is_null());
  }
  return c;
}

CountQuery RandomQuery(util::Rng& rng, const Relation& rel, size_t domain) {
  CountQuery q;
  q.table = "t";
  q.distinct = rng.Below(4) != 0;
  if (q.distinct) {
    // Random non-empty column list, in random order, repeats allowed.
    const size_t k = 1 + rng.Below(3);
    for (size_t i = 0; i < k; ++i) {
      q.columns.push_back(
          rel.schema().attr(static_cast<int>(rng.Below(kAttrs))).name);
    }
  }
  const size_t conds = rng.Below(3);
  for (size_t i = 0; i < conds; ++i) {
    q.where.push_back(RandomCondition(rng, rel, domain));
  }
  return q;
}

bool Passes(const Value& v, const Condition& c) {
  switch (c.op) {
    case Condition::Op::kEq:
      return !c.literal.is_null() && !v.is_null() && v == c.literal;
    case Condition::Op::kNeq:
      return !c.literal.is_null() && !v.is_null() && v != c.literal;
    case Condition::Op::kIsNull:
      return v.is_null();
    case Condition::Op::kIsNotNull:
      return !v.is_null();
  }
  return false;
}

/// Rows of `rel` that are live and pass every condition of `where`.
std::vector<size_t> OracleRows(const Relation& rel,
                               const std::vector<Condition>& where) {
  std::vector<size_t> rows;
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (!rel.is_live(t)) continue;
    bool pass = true;
    for (const auto& c : where) {
      pass = pass && Passes(rel.Get(t, rel.schema().IndexOf(c.column)), c);
    }
    if (pass) rows.push_back(t);
  }
  return rows;
}

uint64_t OracleCount(const Relation& rel, const CountQuery& q) {
  const std::vector<size_t> rows = OracleRows(rel, q.where);
  if (!q.distinct) return rows.size();
  std::set<std::vector<Value>> tuples;
  for (size_t t : rows) {
    std::vector<Value> tuple;
    bool has_null = false;
    for (const auto& name : q.columns) {
      tuple.push_back(rel.Get(t, rel.schema().IndexOf(name)));
      has_null = has_null || tuple.back().is_null();
    }
    if (!has_null) tuples.insert(std::move(tuple));
  }
  return tuples.size();
}

class SqlCountFuzz : public ::testing::TestWithParam<int> {
 protected:
  uint64_t seed() const { return testsupport::DeriveSeed(GetParam()); }

  /// Runs `queries` random COUNTs on every supported tier against the
  /// oracle.
  void CheckCounts(util::Rng& rng, const sql::Database& db, size_t domain,
                   int queries, const char* phase) {
    const Relation& rel = db.Get("t");
    for (int i = 0; i < queries; ++i) {
      const CountQuery q = RandomQuery(rng, rel, domain);
      const uint64_t want = OracleCount(rel, q);
      for (util::CpuTier tier : query::kernels::SupportedTiers()) {
        query::kernels::ForceTier(tier);
        EXPECT_EQ(sql::Execute(q, db), want)
            << phase << ": " << q.ToString() << " on tier "
            << static_cast<int>(tier);
      }
    }
  }
};

TEST_P(SqlCountFuzz, CountsMatchLiveRowOracle) {
  const util::CpuTier before = query::kernels::SelectedTier();
  util::Rng rng(seed());
  const size_t domain = 2 + rng.Below(8);
  const size_t rows = GetParam() == 0 ? 0 : 20 + rng.Below(400);
  sql::Database db;
  db.AddRelation(RandomTable(rng, rows, domain));
  Relation& rel = db.GetMutable("t");

  CheckCounts(rng, db, domain, 20, "append-only");
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rng.Below(3) == 0) rel.DeleteRow(t);
  }
  CheckCounts(rng, db, domain, 20, "tombstoned");
  rel.Compact();
  CheckCounts(rng, db, domain, 10, "compacted");
  // Tombstones and appends on top of the compacted relation.
  for (size_t t = 0; t < rel.tuple_count(); t += 4) rel.DeleteRow(t);
  for (int i = 0; i < 10; ++i) {
    std::vector<Value> row;
    for (int a = 0; a < kAttrs; ++a) row.push_back(RandomCell(rng, a, domain));
    rel.AppendRow(row);
  }
  CheckCounts(rng, db, domain, 20, "tombstoned after compaction");
  query::kernels::ForceTier(before);
}

TEST_P(SqlCountFuzz, DeleteCountMatchesOracle) {
  util::Rng rng(seed() + 1);
  const size_t domain = 2 + rng.Below(6);
  sql::Database db;
  db.AddRelation(RandomTable(rng, 50 + rng.Below(200), domain));
  Relation& rel = db.GetMutable("t");
  for (int i = 0; i < 6; ++i) {
    sql::DeleteStatement del;
    del.table = "t";
    const size_t conds = 1 + rng.Below(2);
    for (size_t c = 0; c < conds; ++c) {
      del.where.push_back(RandomCondition(rng, rel, domain));
    }
    const size_t live_before = rel.live_count();
    const size_t want = OracleRows(rel, del.where).size();
    EXPECT_EQ(sql::Execute(del, db), want) << del.ToString();
    EXPECT_EQ(rel.live_count(), live_before - want) << del.ToString();
    EXPECT_TRUE(OracleRows(rel, del.where).empty()) << del.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlCountFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace fdevolve
