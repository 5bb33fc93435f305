#include "feed.h"

#include <algorithm>
#include <stdexcept>

#include "sql/ast.h"

namespace perfbench {

using fdevolve::relation::Relation;
using fdevolve::relation::Value;
namespace datagen = fdevolve::datagen;
namespace sql = fdevolve::sql;

namespace {

int Col(const Relation& rel, const char* name) {
  int idx = rel.schema().IndexOf(name);
  if (idx < 0) {
    throw std::logic_error(std::string("perfbench: no column ") + name +
                           " in " + rel.name());
  }
  return idx;
}

std::string Declare(const std::string& table,
                    std::vector<std::string> lhs, std::vector<std::string> rhs,
                    size_t every, size_t sample = 0, uint64_t seed = 0) {
  sql::DeclareFdStatement d;
  d.table = table;
  d.lhs = std::move(lhs);
  d.rhs = std::move(rhs);
  d.check_interval = every;
  d.sample_size = sample;
  d.sample_seed = seed;
  return d.ToString();
}

std::string Where(const std::string& table, const char* column, int64_t key,
                  bool del, const char* set_column, const Value& set_value) {
  sql::Condition cond;
  cond.column = column;
  cond.op = sql::Condition::Op::kEq;
  cond.literal = Value(key);
  if (del) {
    sql::DeleteStatement d;
    d.table = table;
    d.where = {cond};
    return d.ToString();
  }
  sql::UpdateStatement u;
  u.table = table;
  u.assignments = {{set_column, set_value}};
  u.where = {cond};
  return u.ToString();
}

}  // namespace

datagen::TpchDatabase MakeTpchAt(size_t divisor, uint64_t seed) {
  datagen::TpchOptions opts;
  opts.scale = datagen::TpchScale::kLarge;
  opts.scale_divisor = divisor;
  opts.seed = seed;
  return datagen::MakeTpch(opts);
}

std::vector<Row> RowsOf(const Relation& rel) {
  std::vector<Row> rows(rel.tuple_count());
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    rows[t].reserve(static_cast<size_t>(rel.attr_count()));
    for (int a = 0; a < rel.attr_count(); ++a) rows[t].push_back(rel.Get(t, a));
  }
  return rows;
}

std::string CreateTableSql(const Relation& rel) {
  sql::CreateTableStatement c;
  c.table = rel.name();
  for (int a = 0; a < rel.attr_count(); ++a) {
    c.attrs.push_back(rel.schema().attr(a));
  }
  return c.ToString();
}

std::vector<std::string> InsertSql(const std::string& table,
                                   const std::vector<Row>& rows,
                                   size_t batch) {
  std::vector<std::string> out;
  for (size_t lo = 0; lo < rows.size(); lo += batch) {
    sql::InsertStatement ins;
    ins.table = table;
    const size_t hi = std::min(rows.size(), lo + batch);
    ins.rows.assign(rows.begin() + static_cast<ptrdiff_t>(lo),
                    rows.begin() + static_cast<ptrdiff_t>(hi));
    out.push_back(ins.ToString());
  }
  return out;
}

std::vector<std::string> PreloadSql(const datagen::TpchDatabase& db,
                                    uint64_t seed) {
  const Relation& lineitem = db.Get("lineitem");
  const Relation& orders = db.Get("orders");
  std::vector<std::string> out = {CreateTableSql(lineitem),
                                  CreateTableSql(orders)};
  for (const Relation* rel : {&lineitem, &orders}) {
    for (auto& s : InsertSql(rel->name(), RowsOf(*rel), 1000)) {
      out.push_back(std::move(s));
    }
  }
  // Per-table declaration blocks (lineitem's, then orders'): the
  // catalog's FD registry is global, so replaying one table's journal
  // after the other reproduces it only when declarations do not
  // interleave across tables.
  out.push_back(Declare("lineitem", {"l_partkey"}, {"l_suppkey"}, 1));
  out.push_back(Declare("lineitem",
                        {"l_partkey", "l_shipmode", "l_shipinstruct"},
                        {"l_suppkey"}, 1));
  out.push_back(Declare("orders", {"o_custkey"}, {"o_orderstatus"}, 1));
  out.push_back(
      Declare("orders", {"o_orderkey"}, {"o_custkey", "o_orderstatus"}, 1));
  out.push_back(Declare("orders",
                        {"o_custkey", "o_orderpriority", "o_clerk"},
                        {"o_orderstatus"}, 1));
  out.push_back(Declare("orders", {"o_orderkey"}, {"o_totalprice"}, 16,
                        1024, seed | 1));
  return out;
}

OrderFeed::OrderFeed(const datagen::TpchDatabase& db, uint64_t seed,
                     int writer, int writers, bool plant_violations)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(writer) + 1),
      order_rows_(RowsOf(db.Get("orders"))),
      line_rows_(RowsOf(db.Get("lineitem"))),
      next_key_(100000000 + writer),
      key_step_(writers),
      plant_(plant_violations) {
  const Relation& orders = db.Get("orders");
  const Relation& lineitem = db.Get("lineitem");
  // Insert() and Update() address columns by position.
  if (Col(orders, "o_orderkey") != 0 || Col(orders, "o_totalprice") != 3 ||
      Col(lineitem, "l_orderkey") != 0 || Col(lineitem, "l_suppkey") != 2 ||
      Col(lineitem, "l_linenumber") != 3) {
    throw std::logic_error("perfbench: unexpected TPC-H column order");
  }
  const int okey = 0;
  const int lkey = 0;
  std::vector<int64_t> lines(order_rows_.size(), 0);
  for (const Row& r : line_rows_) {
    int64_t k = r[static_cast<size_t>(lkey)].as_int();
    if (k >= 0 && static_cast<size_t>(k) < lines.size()) ++lines[k];
  }
  for (const Row& r : order_rows_) {
    int64_t k = r[static_cast<size_t>(okey)].as_int();
    if (k % writers == writer) live_.push_back({k, lines[static_cast<size_t>(k)]});
  }
}

std::vector<FeedStatement> OrderFeed::Next() {
  if (has_tainted_) {
    has_tainted_ = false;
    return Delete(tainted_);
  }
  const uint64_t pick = rng_.Below(10);
  if (pick < 4 || live_.empty()) return Insert();
  if (pick < 8) {
    Order oldest = live_.front();
    live_.pop_front();
    return Delete(oldest);
  }
  return Update();
}

std::vector<FeedStatement> OrderFeed::Insert() {
  const int64_t key = next_key_;
  next_key_ += key_step_;

  Row order = order_rows_[rng_.Below(order_rows_.size())];
  order[0] = Value(key);
  order[3] = Value(static_cast<double>(rng_.Below(500000)) / 100.0);

  sql::InsertStatement lines;
  lines.table = "lineitem";
  const uint64_t n = 1 + rng_.Below(7);
  for (uint64_t i = 0; i < n; ++i) {
    Row line = line_rows_[rng_.Below(line_rows_.size())];
    line[0] = Value(key);
    line[3] = Value(static_cast<int64_t>(i + 1));
    lines.rows.push_back(std::move(line));
  }
  bool planted = false;
  if (plant_ && rng_.Below(100) == 0) {
    // Same (partkey, shipmode, shipinstruct) as the first line, a supplier
    // no generated row has: violates the planted repair until deleted.
    Row bad = lines.rows.front();
    bad[2] = Value(bad[2].as_int() + 1000003);
    lines.rows.push_back(std::move(bad));
    planted = true;
  }

  sql::InsertStatement ord;
  ord.table = "orders";
  ord.rows = {std::move(order)};
  const Order placed{key, static_cast<int64_t>(lines.rows.size())};
  if (planted) {
    has_tainted_ = true;
    tainted_ = placed;
  } else {
    live_.push_back(placed);
  }
  return {{FeedStatement::Kind::kInsert, "orders", ord.ToString(), 1},
          {FeedStatement::Kind::kInsert, "lineitem", lines.ToString(),
           placed.lines}};
}

std::vector<FeedStatement> OrderFeed::Delete(Order order) {
  return {{FeedStatement::Kind::kMutate, "lineitem",
           Where("lineitem", "l_orderkey", order.key, true, nullptr, Value()),
           order.lines},
          {FeedStatement::Kind::kMutate, "orders",
           Where("orders", "o_orderkey", order.key, true, nullptr, Value()),
           1}};
}

std::vector<FeedStatement> OrderFeed::Update() {
  const Order& order = live_[rng_.Below(live_.size())];
  Value price(static_cast<double>(rng_.Below(500000)) / 100.0);
  Value qty(static_cast<int64_t>(1 + rng_.Below(50)));
  return {{FeedStatement::Kind::kMutate, "orders",
           Where("orders", "o_orderkey", order.key, false, "o_totalprice",
                 price),
           1},
          {FeedStatement::Kind::kMutate, "lineitem",
           Where("lineitem", "l_orderkey", order.key, false, "l_quantity", qty),
           order.lines}};
}

}  // namespace perfbench
