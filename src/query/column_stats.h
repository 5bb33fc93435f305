// Per-column statistics used for candidate-pool selection, cost planning,
// and reporting.
//
// All statistics are computed over the relation's LIVE rows — a tombstoned
// row contributes neither to distinct counts nor to NULL fractions, so the
// stats describe exactly the instance a fresh rebuild of the live rows
// would produce. On an append-only relation the dictionary answers ndv in
// O(1); under tombstones one occurrence-count scan per column is paid.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace fdevolve::query {

/// Summary of one column, over the relation's live rows.
struct ColumnStats {
  std::string name;
  size_t distinct_count = 0;  ///< distinct non-NULL values (ndv) among live rows
  size_t null_count = 0;      ///< NULL cells among live rows
  double null_fraction = 0.0; ///< null_count / live rows (0 when no live rows)
  bool is_unique = false;     ///< nonempty, NULL-free, every live value distinct

  /// Largest live group under π_{this column}: the maximum number of live
  /// rows sharing one value (NULLs count as one shared group). 0 when the
  /// relation has no live rows. A repair that adds this column can shrink
  /// the worst violating group to at most this size.
  size_t max_group_rows = 0;

  /// Mean encoded width in bytes of the distinct live values — the
  /// dictionary footprint per entry (string payload size, 8 bytes for
  /// numeric values). 0 when the column has no live non-NULL value. The
  /// cost planner uses this as the per-group key-build estimate.
  double avg_dict_width = 0.0;

  /// Distinct slots the column contributes to a grouping product: its ndv
  /// plus one shared slot for NULL when any live cell is NULL. This is the
  /// factor by which adding the column can multiply a projection count.
  size_t group_slots() const {
    return distinct_count + (null_count > 0 ? 1u : 0u);
  }
};

/// Computes stats for every column of `rel` over its live rows.
std::vector<ColumnStats> ComputeColumnStats(const relation::Relation& rel);

/// Computes stats for the columns in `attrs` only, still indexed by
/// attribute: entries outside `attrs` stay default-constructed.
std::vector<ColumnStats> ComputeColumnStats(const relation::Relation& rel,
                                            const relation::AttrSet& attrs);

/// Cheap sound upper bound on |π_{X ∪ {added}}| given |π_X| = base_distinct:
///   |π_XZ| ≤ min(live_rows, |π_X| · slots(Z))
/// where slots(Z) counts Z's distinct values plus a NULL slot. The product
/// saturates (never wraps) so the bound stays sound for huge cardinalities.
size_t ProjectionUpperBound(size_t base_distinct, const ColumnStats& added,
                            size_t live_rows);

/// Saturating size_t product — returns SIZE_MAX instead of wrapping.
size_t SaturatingMul(size_t a, size_t b);

/// Attributes whose columns are UNIQUE over the live instance (candidate
/// keys of size one). The paper's §3/§6.3 discussion singles these out:
/// adding a UNIQUE attribute trivially repairs any FD but is a degenerate
/// choice.
relation::AttrSet UniqueAttrs(const relation::Relation& rel);

}  // namespace fdevolve::query
