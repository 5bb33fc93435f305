// ExtendByOne (§4.2, Algorithm 2): rank single-attribute extensions.
#pragma once

#include <vector>

#include "fd/fd.h"
#include "fd/measures.h"
#include "query/column_stats.h"
#include "query/distinct.h"
#include "relation/relation.h"

namespace fdevolve::fd {

/// One candidate extension FA : XA -> Y.
struct Candidate {
  int attr = -1;        ///< the attribute A added to the antecedent
  Fd extended;          ///< XA -> Y
  FdMeasures measures;  ///< confidence/goodness of the extended FD

  /// Ranking comparator (§4.2): primary key confidence (descending),
  /// secondary key goodness with values *closer to zero* preferred — this is
  /// what penalises UNIQUE-like attributes (PhNo loses to Municipal in
  /// Table 1 despite both reaching confidence 1). Final tie-break: attribute
  /// index, for determinism.
  static bool RankLess(const Candidate& a, const Candidate& b) {
    if (a.measures.confidence != b.measures.confidence) {
      return a.measures.confidence > b.measures.confidence;
    }
    if (a.measures.abs_goodness() != b.measures.abs_goodness()) {
      return a.measures.abs_goodness() < b.measures.abs_goodness();
    }
    return a.attr < b.attr;
  }
};

/// Options for candidate-pool construction.
struct PoolOptions {
  /// Exclude attributes whose column contains NULLs (§6.2.1: attributes in
  /// FDs may not contain NULL values).
  bool exclude_nulls = true;

  /// Exclude attributes that are UNIQUE on the instance. Off by default:
  /// the paper *discourages* them through goodness rather than banning them
  /// (§3, §6.3); turning this on is the harder variant studied in the
  /// ablation bench.
  bool exclude_unique = false;

  /// Optional explicit whitelist; if non-empty, the pool is intersected
  /// with it (used to window very wide relations such as Veterans).
  relation::AttrSet restrict_to;
};

/// Attributes eligible to extend `fd`'s antecedent: R \ XY (within
/// `opts.restrict_to`), filtered by `opts`. The NULL and UNIQUE filters
/// read live rows only, so a tombstoned relation yields the pool of its
/// compacted copy.
///
/// \param stats when non-null, receives the live-row ColumnStats the
///        filters read — indexed by attribute, filled for every column of
///        R \ XY within `opts.restrict_to` — so the repair search and the
///        planner build their CostModel from the same single pass.
relation::AttrSet CandidatePool(
    const relation::Relation& rel, const Fd& fd, const PoolOptions& opts = {},
    std::vector<query::ColumnStats>* stats = nullptr);

/// Evaluates and ranks every candidate in `pool`.
///
/// Unlike the paper's Algorithm 2 pseudocode — whose line 5 keeps only
/// exact candidates, contradicting Algorithm 3 which needs the inexact ones
/// in its queue — this returns *all* candidates, ranked; callers filter.
std::vector<Candidate> ExtendByOne(query::DistinctEvaluator& eval,
                                   const Fd& fd,
                                   const relation::AttrSet& pool);

/// Convenience overload that builds the pool itself.
std::vector<Candidate> ExtendByOne(query::DistinctEvaluator& eval,
                                   const Fd& fd,
                                   const PoolOptions& opts = {});

}  // namespace fdevolve::fd
