// Adversarial mutation-stream generator for monitor stress tests.
//
// The statistical verification harness needs streams that are hard on a
// reservoir sampler in *specific* ways, not merely random: heavy deletion
// shrinks the live set out from under the sampled slots, delete-then-
// reinsert cycles create tuples whose identity the sample must not
// double-count, and a growing antecedent domain keeps the singleton count
// (the Good-Turing f1 term) high so estimates stay far from exact. One
// generator per hazard, same op-stream shape.
//
// An op stream is replayable: deletes address the target by its *live
// ordinal* (index into the live rows in physical order) rather than by
// physical row id, so the same stream applies identically before and
// after any interleaved Compact() — compaction preserves live-row order
// (Relation::Compact's rebuilt-equivalence), so live ordinals are stable
// where physical ids are not. Tests can therefore apply one stream to
// several relations (exact monitor's, sampled monitor's, a server table)
// and compare the results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fd/fd.h"
#include "relation/relation.h"

namespace fdevolve::datagen {

enum class ChurnScenario {
  /// ~Half the ops delete a uniformly random live row: the live set stays
  /// small and churns fast, so most reservoir slots point at dead rows by
  /// the time a check reads them.
  kDeleteHeavy,
  /// Deleted tuples come back: each delete enqueues its row and a later
  /// insert replays it verbatim. Exercises drift recovery on identical
  /// reinsertion and keeps |dict| fixed while physical rows grow.
  kReinsertHeavy,
  /// Insert-dominated with an antecedent domain that widens as the stream
  /// progresses — distinct counts keep rising and singletons never thin
  /// out, the adversarial regime for Good-Turing estimation.
  kDomainGrowth,
};

const char* ChurnScenarioName(ChurnScenario scenario);

struct ChurnSpec {
  std::string name = "churn";
  ChurnScenario scenario = ChurnScenario::kDeleteHeavy;
  size_t seed_rows = 100;  ///< rows in the initial relation
  size_t n_ops = 1000;     ///< mutation ops after the seed
  uint64_t seed = 42;

  size_t x_domain = 20;  ///< antecedent values (starting width for growth)
  size_t y_domain = 30;  ///< consequent values

  /// Chance an insert pairs an already-used X with a fresh Y — a planted
  /// violation witness of X -> Y. 0 keeps the FD exact for the whole run.
  double violation_rate = 0.05;
};

/// One mutation. kInsert appends `row`; kDelete tombstones the
/// `live_ordinal`-th live row in physical order at application time.
struct ChurnOp {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  std::vector<relation::Value> row;  ///< kInsert payload
  size_t live_ordinal = 0;           ///< kDelete target
};

/// A seed relation plus the op stream to churn it with. Schema is
/// (X:int64, Y:int64); the monitored FD is X -> Y (ChurnFd).
struct ChurnStream {
  relation::Relation initial;
  std::vector<ChurnOp> ops;
};

/// Generates the stream. Deterministic in `spec` (all randomness flows
/// from spec.seed).
ChurnStream MakeChurn(const ChurnSpec& spec);

/// The monitored FD: [X] -> [Y].
fd::Fd ChurnFd(const relation::Schema& schema);

/// Applies one op. Throws std::invalid_argument if a delete's live
/// ordinal is out of range (stream applied to the wrong relation).
void ApplyChurnOp(relation::Relation* rel, const ChurnOp& op);

}  // namespace fdevolve::datagen
