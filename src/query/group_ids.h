// Dense group-id assignment: the shared primitive behind distinct counting
// (CB method) and clustering construction (EB baseline).
//
// A refinement chain combines the current group ids with the dictionary
// codes of a sequence of columns. Chains execute as *fused segments*: each
// segment packs as many consecutive levels as fit into one mixed-radix key
// (query/kernels.h) and sweeps the relation once — a 3-attribute GroupBy
// is typically ONE pass, not three. Each segment is one sequential sweep
// through the runtime-dispatched SIMD kernel layer (baseline scalar / AVX2
// / AVX-512, selected once per process by query::kernels::Active()), on
// one of two paths:
//
//   * dense — when the segment radix (group_count * Π strides) is
//     O(tuples), a direct-indexed scratch array maps the packed key to the
//     next id with no hashing at all;
//   * flat  — otherwise an open-addressing table (util::FlatIdTable) keyed
//     on the packed u64 key takes over; no per-node allocation, linear
//     probing, power-of-two capacity.
//
// Both paths assign fresh ids in scan order, so ids are deterministic and
// dense in order of first appearance. A pass never spawns threads:
// parallelism lives one level up, across independent candidates (the
// repair search's Extend fan-out and the EB ranking loop), each worker on
// its own RefineScratch. Passing a RefineScratch lets long-lived callers
// (DistinctEvaluator, the EB ranking loop) reuse the scratch buffers across
// passes; the overloads without one are conveniences that pay a fresh
// allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/kernels.h"
#include "relation/relation.h"
#include "util/flat_table.h"

namespace fdevolve::query {

/// \brief Partition of the tuples of a relation by equality on an attribute
/// set.
///
/// `ids[t]` is a dense cluster id in [0, group_count); ids are assigned in
/// order of first appearance, so they are deterministic for a given relation.
/// Invariant (enforced by the refinement engine, required of hand-built
/// instances): every id is < group_count.
///
/// Groupings cover every PHYSICAL row of the relation, tombstoned ones
/// included — that is what keeps ids append-stable under deletions.
/// `group_count` therefore counts groups over physical rows; live-only
/// distinct counts come from the count-only entry points below or from
/// query::DistinctEvaluator's per-group live refcounts.
struct Grouping {
  std::vector<uint32_t> ids;   ///< per-tuple dense group id
  size_t group_count = 0;      ///< number of distinct groups
};

/// \brief Reusable scratch buffers for refinement passes.
///
/// Default-constructible and cheap when unused; a long-lived instance makes
/// repeated GroupBy/RefineBy/count calls allocation-free in steady state.
///
/// Thread-safety: a RefineScratch belongs to exactly one logical caller at
/// a time — two threads must not share one. Parallel callers give each
/// worker its own.
struct RefineScratch {
  std::vector<uint32_t> dense;     ///< direct-indexed packed-key map
  util::FlatIdTable table;         ///< open-addressing fallback
  std::vector<uint32_t> chain_ids; ///< intermediate ids for count-only chains
  std::vector<kernels::Level> levels; ///< per-chain kernel level descriptors
};

/// \brief Groups all tuples of `rel` by the attributes in `attrs`.
///
/// Empty `attrs` puts every tuple in one group (the projection on zero
/// attributes has exactly one distinct value), matching relational
/// semantics. NULLs compare equal to each other for grouping purposes; the
/// FD layer never passes NULL-able attributes here, but the clustering
/// layer may.
///
/// A single NULL-free attribute is answered by copying the column's
/// dictionary codes (already dense first-appearance ids); otherwise cost is
/// O(tuples * |attrs|) via fused partition refinement.
///
/// \param scratch reusable buffers; the overload without one allocates
///        fresh ones.
Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs);
Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs,
                 RefineScratch& scratch);

/// \brief Refines an existing grouping by one extra attribute.
///
/// This is the incremental step the repair search uses so that evaluating
/// candidate FA : XA -> Y reuses the X grouping instead of regrouping from
/// scratch.
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr);
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr, RefineScratch& scratch);

/// \brief Refines an existing grouping by a whole attribute set.
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs);
Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs, RefineScratch& scratch);

/// \brief Number of groups of GroupBy(rel, attrs) with at least one row
/// that `mask` keeps, without materializing `Grouping::ids`.
///
/// `mask` holds one byte per physical row (nonzero = counted); nullptr
/// means the relation's live rows, i.e. its tombstone bitmap. Every
/// distinct count — the FD measures, the repair search and SQL
/// COUNT(DISTINCT ...) with its WHERE clause — goes through here or
/// through RefineCountBy.
///
/// Over every row of an append-only relation, zero or one attribute is
/// answered from the column dictionary (dict_size + has_nulls) with no
/// per-tuple work; under a mask those cases scan the masked rows once.
/// Longer sets run the refinement chain but skip writing ids on the final
/// pass, which is the only pass the mask applies to: intermediate
/// materializing passes cover every physical row, keeping their ids
/// append-stable.
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs,
                    const uint8_t* mask = nullptr);
size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, RefineScratch& scratch,
                    const uint8_t* mask = nullptr);

/// \brief Number of groups RefineBy(rel, base, attrs) would produce with
/// at least one row that `mask` keeps (nullptr = the live rows), without
/// materializing the refined ids. `base` must cover every physical row
/// (dead included), which is what GroupBy / RefineBy produce.
size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs,
                     const uint8_t* mask = nullptr);
size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs, RefineScratch& scratch,
                     const uint8_t* mask = nullptr);

/// \brief Number of groups induced jointly by two precomputed groupings,
/// i.e. |C_{A ∪ B}| given C_A and C_B — without touching column data.
size_t JointGroupCount(const Grouping& a, const Grouping& b);

}  // namespace fdevolve::query
