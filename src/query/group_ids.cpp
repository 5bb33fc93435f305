#include "query/group_ids.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "query/kernels.h"

namespace fdevolve::query {
namespace {

constexpr uint32_t kNoId = util::FlatIdTable::kVacant;

/// Dense-path admission limit for a pass of `n` tuples: the direct-indexed
/// array costs one O(cells) clear per pass, so cells must stay within a
/// small multiple of the per-tuple work (small absolute sizes are always
/// allowed — the clear is free next to the scan). Clamped to the kernel
/// layer's signed-gather bound.
size_t DenseLimit(size_t n) {
  const size_t lim = std::max<size_t>(size_t{1} << 16, 4 * n);
  return std::min(lim, kernels::kDenseCellLimit);
}

/// Fills `levels` with the kernel descriptors for a column chain.
void BuildLevels(const relation::Relation& rel, const int* cols, size_t k,
                 std::vector<kernels::Level>& levels) {
  levels.clear();
  levels.reserve(k);
  for (size_t j = 0; j < k; ++j) {
    const relation::Column& col = rel.column(cols[j]);
    kernels::Level lv;
    lv.codes = col.codes().data();
    lv.has_nulls = col.has_nulls();
    lv.null_slot = static_cast<uint32_t>(col.dict_size());
    lv.stride = static_cast<uint64_t>(col.dict_size()) +
                (col.has_nulls() ? 1 : 0);
    levels.push_back(lv);
  }
}

/// Fused-segment planner: how many of the remaining `nlevels` levels one
/// pass can take. Prefers the longest *dense-admitted* prefix (packed
/// radix <= DenseLimit(n)); when even the first level does not fit the
/// dense array, takes the longest prefix whose packed key fits u64 for
/// the flat path. A segment never exceeds kernels::kMaxFusedLevels levels.
/// Returns the level count and reports the segment radix (`*cells_out`)
/// and which path was planned.
///
/// Segment boundaries never affect results — each segment assigns
/// first-appearance ids over the prefix packing, which composes to the
/// same final ids for any split — so this is purely a cost decision.
size_t PlanSegment(uint64_t groups, const kernels::Level* levels,
                   size_t nlevels, size_t n, uint64_t* cells_out,
                   bool* dense_out) {
  nlevels = std::min(nlevels, kernels::kMaxFusedLevels);
  const uint64_t dense_limit = DenseLimit(n);
  uint64_t prod = groups;
  size_t take = 0;
  for (size_t j = 0; j < nlevels; ++j) {
    const uint64_t stride = levels[j].stride;
    if (stride == 0 || prod > dense_limit / stride) break;
    prod *= stride;
    take = j + 1;
  }
  if (take > 0) {
    *cells_out = prod;
    *dense_out = true;
    return take;
  }
  // Flat segment. Real ids are u32 regardless of what a (possibly
  // hand-built, possibly lying) base claims as group_count, so cap the
  // radix base at 2^32 when checking u64 fit — the packed keys built from
  // actual ids cannot overflow under that bound.
  const uint64_t eff_groups =
      std::min<uint64_t>(groups, uint64_t{1} << 32);
  prod = eff_groups;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (size_t j = 0; j < nlevels; ++j) {
    const uint64_t stride = levels[j].stride;
    if (stride == 0 || prod > kMax / stride) break;
    prod *= stride;
    take = j + 1;
  }
  if (take == 0) take = 1;  // stride 0 <=> empty relation; callers gate n > 0
  *cells_out = prod;
  *dense_out = false;
  return take;
}

/// One fused pass over one segment: a single sequential sweep through the
/// active tier's dense or flat kernel.
size_t RunSegment(const uint32_t* base_ids, uint64_t base_groups,
                  const kernels::Level* levels, size_t nlevels, size_t n,
                  RefineScratch& s, uint32_t* out, const uint8_t* live,
                  uint64_t cells, bool dense) {
  const kernels::KernelSet& ks = kernels::Active();
  kernels::RefineArgs a;
  a.base_ids = base_ids;
  a.base_groups = base_groups;
  a.levels = levels;
  a.level_count = nlevels;
  a.n = n;
  a.out = out;
  a.live = live;
  if (dense) {
    if (s.dense.size() < cells) s.dense.resize(cells);
    std::fill(s.dense.begin(), s.dense.begin() + static_cast<ptrdiff_t>(cells),
              kNoId);
    return ks.dense_refine(a, s.dense.data(), 0);
  }
  s.table.Reset(n);  // a pass introduces at most n distinct packed keys
  return ks.flat_refine(a, s.table, 0);
}

/// Runs a whole refinement chain as a sequence of *fused* segments: each
/// segment combines as many remaining levels as its packed mixed-radix key
/// affords (see kernels.h) and sweeps the relation once, instead of one
/// full-relation pass per level. Chains that fit one segment — the common
/// case for the repair search's 2-4 attribute sets — touch every column
/// exactly once.
///
/// `out == nullptr` is the count-only form: intermediate segments (if the
/// chain needs more than one) materialize into `s.chain_ids`, and only the
/// final segment applies the row mask `live` — rows it clears are skipped
/// there, so the result counts groups with at least one kept row while
/// every intermediate id stays append-stable over physical rows.
size_t RunRefineChain(const uint32_t* base_ids, size_t base_groups,
                      const int* cols, size_t ncols,
                      const relation::Relation& rel, size_t n,
                      RefineScratch& s, uint32_t* out, const uint8_t* live) {
  BuildLevels(rel, cols, ncols, s.levels);
  uint64_t groups = base_groups;
  const uint32_t* ids = base_ids;
  size_t j = 0;
  while (j < ncols) {
    uint64_t cells = 0;
    bool dense = false;
    const size_t take =
        PlanSegment(groups, s.levels.data() + j, ncols - j, n, &cells, &dense);
    const bool last = (j + take == ncols);
    uint32_t* seg_out = out;
    if (last) {
      // Final segment: `out` as requested (possibly null = count-only),
      // and the only place the row mask may apply.
      seg_out = out;
    } else if (out == nullptr) {
      s.chain_ids.resize(n);
      seg_out = s.chain_ids.data();
    }
    // seg_out may alias `ids` (in-place refinement) — kernels read each
    // tuple's base id before writing its slot.
    groups = RunSegment(ids, groups, s.levels.data() + j, take, n, s, seg_out,
                        last ? live : nullptr, cells, dense);
    ids = seg_out;
    j += take;
  }
  return static_cast<size_t>(groups);
}

/// Tombstone bitmap pointer for count-only passes: nullptr when every row
/// is live, so the append-only hot loops keep their branch-free shape.
const uint8_t* LiveMask(const relation::Relation& rel) {
  return rel.has_tombstones() ? rel.live_bitmap().data() : nullptr;
}

/// Distinct values of `ids` over the rows `mask` keeps — the masked form
/// of the O(1) answers a whole relation gets for zero or one attribute.
/// Ids lie in [0, slots), except that kNullCode stands for slot
/// `slots - 1` (a NULL-bearing column's extra slot); `ids == nullptr`
/// puts every row in slot 0. Stops as soon as every slot is seen. O(n).
size_t MaskedDistinct(const uint32_t* ids, size_t slots, size_t n,
                      const uint8_t* mask) {
  std::vector<uint8_t> seen(slots, 0);
  size_t distinct = 0;
  for (size_t t = 0; t < n && distinct < slots; ++t) {
    if (mask[t] == 0) continue;
    const size_t c = ids == nullptr                   ? 0
                     : ids[t] == relation::kNullCode ? slots - 1
                                                     : ids[t];
    if (seen[c] == 0) {
      seen[c] = 1;
      ++distinct;
    }
  }
  return distinct;
}

void CheckBase(const relation::Relation& rel, const Grouping& base,
               const char* where) {
  if (base.ids.size() != rel.tuple_count()) {
    throw std::invalid_argument(std::string(where) +
                                ": grouping size mismatch");
  }
}

}  // namespace

Grouping GroupBy(const relation::Relation& rel, const relation::AttrSet& attrs,
                 RefineScratch& scratch) {
  Grouping g;
  const size_t n = rel.tuple_count();
  if (n == 0) return g;
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    g.ids.assign(n, 0);
    g.group_count = 1;
    return g;
  }
  if (cols.size() == 1 && !rel.column(cols[0]).has_nulls()) {
    // Dictionary codes are already dense ids in first-appearance order.
    g.ids = rel.column(cols[0]).codes();
    g.group_count = rel.column(cols[0]).dict_size();
    return g;
  }
  g.ids.resize(n);
  g.group_count = RunRefineChain(nullptr, 1, cols.data(), cols.size(), rel, n,
                                 scratch, g.ids.data(), nullptr);
  return g;
}

Grouping GroupBy(const relation::Relation& rel,
                 const relation::AttrSet& attrs) {
  RefineScratch scratch;
  return GroupBy(rel, attrs, scratch);
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr, RefineScratch& scratch) {
  CheckBase(rel, base, "RefineBy");
  Grouping out;
  const size_t n = base.ids.size();
  if (n == 0) return out;
  out.ids.resize(n);
  out.group_count = RunRefineChain(base.ids.data(), base.group_count, &attr, 1,
                                   rel, n, scratch, out.ids.data(), nullptr);
  return out;
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  int attr) {
  RefineScratch scratch;
  return RefineBy(rel, base, attr, scratch);
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs, RefineScratch& scratch) {
  CheckBase(rel, base, "RefineBy");
  const size_t n = base.ids.size();
  const auto cols = attrs.ToVector();
  if (cols.empty() || n == 0) {
    Grouping copy = base;
    return copy;
  }
  Grouping out;
  out.ids.resize(n);
  out.group_count =
      RunRefineChain(base.ids.data(), base.group_count, cols.data(),
                     cols.size(), rel, n, scratch, out.ids.data(), nullptr);
  return out;
}

Grouping RefineBy(const relation::Relation& rel, const Grouping& base,
                  const relation::AttrSet& attrs) {
  RefineScratch scratch;
  return RefineBy(rel, base, attrs, scratch);
}

size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, RefineScratch& scratch,
                    const uint8_t* mask) {
  const size_t n = rel.tuple_count();
  if (mask == nullptr) {
    if (rel.live_count() == 0) return 0;
    mask = LiveMask(rel);
  }
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    return mask == nullptr ? 1 : MaskedDistinct(nullptr, 1, n, mask);
  }
  if (cols.size() == 1) {
    // Over every row, |π_A| falls straight out of the dictionary: no
    // per-tuple work.
    const auto& col = rel.column(cols[0]);
    const size_t slots = col.dict_size() + (col.has_nulls() ? 1 : 0);
    return mask == nullptr ? slots
                           : MaskedDistinct(col.codes().data(), slots, n, mask);
  }
  // Count-only fused chain: when every level fits one segment — the common
  // case — this is a single sweep with no id materialization at all. The
  // mask applies only to the final segment (see RunRefineChain), which is
  // what makes the count "groups with a kept row" while any intermediate
  // ids stay append-stable.
  if (n == 0) return 0;
  return RunRefineChain(nullptr, 1, cols.data(), cols.size(), rel, n, scratch,
                        nullptr, mask);
}

size_t GroupCountBy(const relation::Relation& rel,
                    const relation::AttrSet& attrs, const uint8_t* mask) {
  RefineScratch scratch;
  return GroupCountBy(rel, attrs, scratch, mask);
}

size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs, RefineScratch& scratch,
                     const uint8_t* mask) {
  CheckBase(rel, base, "RefineCountBy");
  const size_t n = base.ids.size();
  if (n == 0) return attrs.Empty() ? base.group_count : 0;
  if (mask == nullptr) mask = LiveMask(rel);
  const auto cols = attrs.ToVector();
  if (cols.empty()) {
    if (mask == nullptr) return base.group_count;
    return MaskedDistinct(base.ids.data(), base.group_count, n, mask);
  }
  return RunRefineChain(base.ids.data(), base.group_count, cols.data(),
                        cols.size(), rel, n, scratch, nullptr, mask);
}

size_t RefineCountBy(const relation::Relation& rel, const Grouping& base,
                     const relation::AttrSet& attrs, const uint8_t* mask) {
  RefineScratch scratch;
  return RefineCountBy(rel, base, attrs, scratch, mask);
}

size_t JointGroupCount(const Grouping& a, const Grouping& b) {
  if (a.ids.size() != b.ids.size()) {
    throw std::invalid_argument("JointGroupCount: size mismatch");
  }
  const size_t n = a.ids.size();
  if (n == 0) return 0;
  size_t fresh = 0;
  const bool dense =
      b.group_count != 0 &&
      a.group_count <= DenseLimit(n) / b.group_count;
  if (dense) {
    std::vector<uint32_t> dense_map(a.group_count * b.group_count, kNoId);
    for (size_t t = 0; t < n; ++t) {
      if (a.ids[t] >= a.group_count || b.ids[t] >= b.group_count) {
        throw std::invalid_argument("JointGroupCount: group id out of range");
      }
      uint32_t& cell =
          dense_map[static_cast<size_t>(a.ids[t]) * b.group_count + b.ids[t]];
      if (cell == kNoId) cell = static_cast<uint32_t>(fresh++);
    }
  } else {
    util::FlatIdTable table;
    table.Reset(n);
    for (size_t t = 0; t < n; ++t) {
      if (a.ids[t] >= a.group_count || b.ids[t] >= b.group_count) {
        throw std::invalid_argument("JointGroupCount: group id out of range");
      }
      const uint64_t key = (static_cast<uint64_t>(a.ids[t]) << 32) | b.ids[t];
      bool inserted = false;
      table.FindOrInsert(key, static_cast<uint32_t>(fresh), &inserted);
      if (inserted) ++fresh;
    }
  }
  return fresh;
}

}  // namespace fdevolve::query
