// Seeded TPC-H-shaped inputs, rendered as the SQL statements a feeder
// would send. The program under test only ever sees these statements.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "datagen/tpch.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace perfbench {

using Row = std::vector<fdevolve::relation::Value>;

/// The eight tables at the paper's 1 GB cardinalities divided by
/// `divisor`: lineitem = 6M / divisor rows, orders = 1.5M / divisor (the
/// spec's 6M x SF and 1.5M x SF with SF = 1 / divisor).
fdevolve::datagen::TpchDatabase MakeTpchAt(size_t divisor, uint64_t seed);

std::vector<Row> RowsOf(const fdevolve::relation::Relation& rel);

std::string CreateTableSql(const fdevolve::relation::Relation& rel);

/// Multi-row INSERTs of at most `batch` rows each, in row order.
std::vector<std::string> InsertSql(const std::string& table,
                                   const std::vector<Row>& rows, size_t batch);

/// CREATE TABLE + bulk INSERTs for lineitem then orders, then the
/// monitors' DECLARE FD statements: the Table-5 FDs, the key FD and the
/// planted repairs exact at EVERY 1, plus one sampled FD on orders.
std::vector<std::string> PreloadSql(
    const fdevolve::datagen::TpchDatabase& db, uint64_t seed);

/// One statement of the order feed and the reply value it must get.
struct FeedStatement {
  enum class Kind { kInsert, kMutate };
  Kind kind = Kind::kInsert;
  std::string table;
  std::string sql;
  int64_t expect = 0;  ///< rows inserted / matched
};

/// A writer of the order feed: inserts new orders with their lineitems,
/// deletes its oldest order by key and updates an order and its lineitems
/// by key, in a mix that keeps the live size roughly steady. Writers own disjoint key
/// sets, so every reply value is known in advance. New rows copy the
/// monitored columns of generated rows, so every declared FD keeps its
/// status — except a planted violation (optional), which the writer
/// deletes again on its next operation, giving one violated and one
/// recovered drift event.
class OrderFeed {
 public:
  OrderFeed(const fdevolve::datagen::TpchDatabase& db, uint64_t seed,
            int writer, int writers, bool plant_violations);

  /// The two statements of the next operation, one per table.
  std::vector<FeedStatement> Next();
  /// A new order and its lineitems (two INSERTs).
  std::vector<FeedStatement> Insert();

 private:
  struct Order {
    int64_t key;
    int64_t lines;
  };
  std::vector<FeedStatement> Delete(Order order);
  std::vector<FeedStatement> Update();

  fdevolve::util::Rng rng_;
  std::vector<Row> order_rows_;
  std::vector<Row> line_rows_;
  std::deque<Order> live_;  ///< this writer's orders, oldest first
  int64_t next_key_;
  int64_t key_step_;
  bool plant_;
  bool has_tainted_ = false;
  Order tainted_{0, 0};
};

}  // namespace perfbench
