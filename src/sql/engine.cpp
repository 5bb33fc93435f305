#include "sql/engine.h"

#include <algorithm>

#include "fd/planner.h"
#include "query/group_ids.h"
#include "sql/parser.h"

namespace fdevolve::sql {
namespace {

/// Row predicate for one condition over dictionary codes. Equality
/// against a literal resolves to a single code, so every condition keeps
/// the rows whose code is (IS NULL, =) or is not (IS NOT NULL, <>) in a
/// set of at most two codes {a_, b_}.
class CompiledCondition {
 public:
  CompiledCondition(const relation::Relation& rel, const Condition& cond) {
    col_ = rel.schema().IndexOf(cond.column);
    if (col_ < 0) {
      throw std::invalid_argument("unknown column '" + cond.column + "' in " +
                                  rel.name());
    }
    const relation::Column& col = rel.column(col_);
    keep_match_ =
        cond.op == Condition::Op::kIsNull || cond.op == Condition::Op::kEq;
    if (cond.op == Condition::Op::kEq || cond.op == Condition::Op::kNeq) {
      // Resolve the literal to a dictionary code; "<> lit" drops NULLs
      // too (b_ stays kNullCode). An absent literal means "= lit" matches
      // nothing and "<> lit" matches every non-NULL row; SQL three-valued
      // logic makes = NULL and <> NULL match nothing.
      bool present = false;
      for (uint32_t c = 0; c < col.dict_size() && !present; ++c) {
        present = col.DictValue(c) == cond.literal;
        if (present) a_ = c;
      }
      if (keep_match_) b_ = a_;
      keep_none_ = cond.literal.is_null() || (keep_match_ && !present);
    }
    // Nothing to drop: IS NOT NULL, or <> an absent literal, on a column
    // without NULLs.
    keep_all_ = !keep_match_ && a_ == relation::kNullCode && !col.has_nulls();
  }

  /// Clears mask[t] for every row t the condition rejects.
  void Apply(const relation::Relation& rel, std::vector<uint8_t>& mask) const {
    if (keep_none_) {
      std::fill(mask.begin(), mask.end(), uint8_t{0});
      return;
    }
    if (keep_all_) return;
    // Locals, not members: stores through the byte mask may alias them.
    const uint32_t* codes = rel.column(col_).codes().data();
    const uint32_t a = a_;
    const uint32_t b = b_;
    const bool keep = keep_match_;
    for (size_t t = 0; t < mask.size(); ++t) {
      mask[t] &= ((codes[t] == a || codes[t] == b) == keep) ? 1 : 0;
    }
  }

 private:
  int col_ = -1;
  uint32_t a_ = relation::kNullCode;
  uint32_t b_ = relation::kNullCode;
  bool keep_match_ = true;
  bool keep_all_ = false;
  bool keep_none_ = false;
};

/// The one WHERE filter behind COUNT, DELETE and UPDATE: a byte mask over
/// the pre-statement row set [0, rel.tuple_count()), 1 for every live row
/// that passes every condition. All conditions compile (unknown columns
/// throw) before any row is read.
std::vector<uint8_t> MatchMask(const relation::Relation& rel,
                               const std::vector<Condition>& where) {
  std::vector<CompiledCondition> conds;
  conds.reserve(where.size());
  for (const auto& c : where) conds.emplace_back(rel, c);
  std::vector<uint8_t> mask = rel.has_tombstones()
                                  ? rel.live_bitmap()
                                  : std::vector<uint8_t>(rel.tuple_count(), 1);
  for (const auto& c : conds) c.Apply(rel, mask);
  return mask;
}

}  // namespace

uint64_t Execute(const CountQuery& query, const Database& db) {
  const relation::Relation& rel = db.Get(query.table);
  // A counted column drops the rows where it is NULL (SQL semantics), so
  // each one adds an IS NOT NULL conjunct to the filter.
  std::vector<Condition> where = query.where;
  for (const auto& name : query.columns) {
    where.push_back({name, Condition::Op::kIsNotNull, {}});
  }
  const std::vector<uint8_t> mask = MatchMask(rel, where);
  if (!query.distinct) {
    return static_cast<uint64_t>(std::count(mask.begin(), mask.end(), 1));
  }
  relation::AttrSet attrs;
  for (const auto& name : query.columns) attrs.Add(rel.schema().IndexOf(name));
  return query::GroupCountBy(rel, attrs, mask.data());
}

uint64_t Execute(const InsertStatement& insert, Database& db) {
  relation::Relation& rel = db.GetMutable(insert.table);
  const relation::Schema& schema = rel.schema();

  // Coerce typeless numeric literals: an integer literal targeting a
  // double column becomes a double (the reverse is rejected — silently
  // truncating 1.5 into an int column would corrupt data). All other
  // validation is delegated to AppendRows, whose all-or-nothing contract
  // keeps the relation unchanged when any row is bad. The statement is
  // only copied when the schema can actually trigger a coercion.
  bool has_double_column = false;
  for (int i = 0; i < schema.size(); ++i) {
    has_double_column |= schema.attr(i).type == relation::DataType::kDouble;
  }
  if (!has_double_column) {
    rel.AppendRows(insert.rows);
    return insert.rows.size();
  }
  std::vector<std::vector<relation::Value>> rows = insert.rows;
  for (auto& row : rows) {
    for (size_t i = 0; i < row.size() && i < static_cast<size_t>(schema.size());
         ++i) {
      if (row[i].is_int() &&
          schema.attr(static_cast<int>(i)).type == relation::DataType::kDouble) {
        row[i] = relation::Value(static_cast<double>(row[i].as_int()));
      }
    }
  }
  rel.AppendRows(rows);
  return rows.size();
}

uint64_t Execute(const DeleteStatement& del, Database& db) {
  relation::Relation& rel = db.GetMutable(del.table);
  // Condition compilation throws on unknown columns before any mutation.
  const std::vector<uint8_t> mask = MatchMask(rel, del.where);
  uint64_t deleted = 0;
  for (size_t row = 0; row < mask.size(); ++row) {
    if (mask[row] == 0) continue;
    rel.DeleteRow(row);
    ++deleted;
  }
  return deleted;
}

uint64_t Execute(const UpdateStatement& update, Database& db) {
  relation::Relation& rel = db.GetMutable(update.table);
  const relation::Schema& schema = rel.schema();

  // Validate every assignment BEFORE any mutation: a failed UPDATE must
  // leave the relation untouched. Integer literals coerce to double
  // columns (SQL numeric literals are typeless, matching INSERT); a
  // double into an int column is rejected — silent truncation would
  // corrupt data.
  std::vector<std::pair<int, relation::Value>> sets;
  sets.reserve(update.assignments.size());
  for (const auto& a : update.assignments) {
    const int idx = schema.IndexOf(a.column);
    if (idx < 0) {
      throw std::invalid_argument("unknown column '" + a.column + "' in " +
                                  rel.name());
    }
    relation::Value v = a.value;
    const relation::DataType type = schema.attr(idx).type;
    if (v.is_int() && type == relation::DataType::kDouble) {
      v = relation::Value(static_cast<double>(v.as_int()));
    }
    if (!v.is_null() && !v.MatchesType(type)) {
      throw std::invalid_argument(
          "UPDATE: value " + v.ToString() + " does not match column '" +
          a.column + "' of type " + relation::DataTypeName(type));
    }
    sets.emplace_back(idx, std::move(v));
  }

  // Match against the pre-statement row set, then mutate in physical row
  // order: delete the old row, append the derived one. Appended rows land
  // past the snapshot bound, so they are never re-matched — UPDATE is
  // deterministic and terminates even when the assignment re-satisfies
  // the WHERE clause.
  const std::vector<uint8_t> mask = MatchMask(rel, update.where);
  uint64_t updated = 0;
  std::vector<relation::Value> derived;
  for (size_t row = 0; row < mask.size(); ++row) {
    if (mask[row] == 0) continue;
    derived.clear();
    derived.reserve(static_cast<size_t>(rel.attr_count()));
    for (int a = 0; a < rel.attr_count(); ++a) derived.push_back(rel.Get(row, a));
    for (const auto& [idx, v] : sets) derived[static_cast<size_t>(idx)] = v;
    rel.DeleteRow(row);
    rel.AppendRow(derived);
    ++updated;
  }
  return updated;
}

uint64_t Execute(const CreateTableStatement& create, Database& db) {
  // Schema's constructor rejects duplicate column names; AddRelation
  // rejects duplicate table names.
  db.AddRelation(
      relation::Relation(create.table, relation::Schema(create.attrs)));
  return 0;
}

uint64_t Execute(const DeclareFdStatement& declare, Database& db) {
  const relation::Relation& rel = db.Get(declare.table);
  // Resolve throws on unknown columns; the Fd constructor rejects
  // overlapping sides and an empty consequent.
  fd::Fd fd(rel.schema().Resolve(declare.lhs), rel.schema().Resolve(declare.rhs));
  db.DeclareFd(declare.table, std::move(fd));
  return 0;
}

std::string Execute(const ExplainRepairStatement& explain,
                    const Database& db) {
  const relation::Relation& rel = db.Get(explain.table);
  fd::Fd fd(rel.schema().Resolve(explain.lhs),
            rel.schema().Resolve(explain.rhs));
  return fd::DescribePlan(fd::PlanRepair(rel, fd), rel.schema());
}

uint64_t Execute(const Statement& stmt, Database& db) {
  if (const auto* q = std::get_if<CountQuery>(&stmt)) {
    return Execute(*q, static_cast<const Database&>(db));
  }
  if (const auto* ins = std::get_if<InsertStatement>(&stmt)) {
    return Execute(*ins, db);
  }
  if (const auto* del = std::get_if<DeleteStatement>(&stmt)) {
    return Execute(*del, db);
  }
  if (const auto* upd = std::get_if<UpdateStatement>(&stmt)) {
    return Execute(*upd, db);
  }
  if (const auto* create = std::get_if<CreateTableStatement>(&stmt)) {
    return Execute(*create, db);
  }
  if (const auto* declare = std::get_if<DeclareFdStatement>(&stmt)) {
    return Execute(*declare, db);
  }
  if (const auto* explain = std::get_if<ExplainRepairStatement>(&stmt)) {
    // The plan text is discarded in this overload (callers wanting it use
    // the ExplainRepairStatement overload directly); executing it here
    // still validates the FD against the catalog.
    Execute(*explain, static_cast<const Database&>(db));
    return 0;
  }
  // CHECKPOINT / SHUTDOWN / SUBSCRIBE DRIFT need a server session: they
  // act on the serving process (durability, lifecycle, push channels),
  // not on catalog contents.
  throw std::invalid_argument(
      "this statement requires a server session (see server::Service)");
}

uint64_t ExecuteSql(const std::string& text, const Database& db) {
  return Execute(Parse(text), db);
}

uint64_t ExecuteSql(const std::string& text, Database& db) {
  return Execute(ParseStatement(text), db);
}

}  // namespace fdevolve::sql
