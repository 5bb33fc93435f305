// Data-repair baseline: restore consistency by deleting violating tuples
// (the minimal-change tuple-deletion semantics of the consistent query
// answering literature the paper cites in §2 [9-14]). Exists so the bench
// suite can quantify the paper's motivation: constraint evolution keeps
// all the data, tuple repair throws some of it away.
#pragma once

#include <cstddef>
#include <vector>

#include "fd/fd.h"
#include "relation/relation.h"

namespace fdevolve::discovery {

/// Outcome of repairing one FD by deletion.
struct DataRepairResult {
  std::vector<size_t> deleted;  ///< tuple indices removed (ascending)
  size_t kept = 0;
  double loss_fraction = 0.0;   ///< deleted / original tuples
};

/// Minimum tuple deletions making X -> Y exact. For a single FD this is
/// solvable exactly: within each X-cluster keep one majority XY-class and
/// delete the rest (per-cluster optimum, independent across clusters).
DataRepairResult RepairByDeletion(const relation::Relation& rel,
                                  const fd::Fd& fd);

/// Applies a deletion set, producing the surviving instance.
relation::Relation ApplyDeletion(const relation::Relation& rel,
                                 const std::vector<size_t>& deleted);

/// Repairs several FDs by iterating single-FD deletion to a fixpoint.
/// The multi-FD minimum-deletion problem is NP-hard; this converges (each
/// pass only removes tuples) but may over-delete. `max_rounds` bounds the
/// loop defensively.
DataRepairResult RepairAllByDeletion(const relation::Relation& rel,
                                     const std::vector<fd::Fd>& fds,
                                     int max_rounds = 16);

/// Number of unordered tuple pairs violating Definition 2 — a direct
/// violation count used by tests and monitors.
size_t CountViolatingPairs(const relation::Relation& rel, const fd::Fd& fd);

}  // namespace fdevolve::discovery
