#include "query/distinct.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace fdevolve::query {
namespace {

size_t SortDistinct(const relation::Relation& rel,
                    const relation::AttrSet& attrs) {
  const size_t n = rel.live_count();
  if (n == 0) return 0;
  const auto cols = attrs.ToVector();
  if (cols.empty()) return 1;
  const size_t k = cols.size();

  // One flat row-major key buffer + an index sort, over the live rows
  // only. This mirrors what a sort-based COUNT DISTINCT plan does in a
  // DBMS, without the per-row vector allocations a naive materialization
  // would pay.
  std::vector<uint32_t> rows;
  rows.reserve(n);
  for (size_t t = 0; t < rel.tuple_count(); ++t) {
    if (rel.is_live(t)) rows.push_back(static_cast<uint32_t>(t));
  }
  std::vector<uint32_t> keys(n * k);
  for (size_t j = 0; j < k; ++j) {
    const auto& codes = rel.column(cols[j]).codes();
    for (size_t t = 0; t < n; ++t) keys[t * k + j] = codes[rows[t]];
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  auto row = [&](uint32_t t) { return keys.data() + static_cast<size_t>(t) * k; };
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t* pa = row(a);
    const uint32_t* pb = row(b);
    for (size_t j = 0; j < k; ++j) {
      if (pa[j] != pb[j]) return pa[j] < pb[j];
    }
    return false;
  });
  size_t distinct = 1;
  for (size_t t = 1; t < n; ++t) {
    if (!std::equal(row(order[t]), row(order[t]) + k, row(order[t - 1]))) {
      ++distinct;
    }
  }
  return distinct;
}

}  // namespace

size_t DistinctCount(const relation::Relation& rel,
                     const relation::AttrSet& attrs,
                     DistinctStrategy strategy) {
  if (strategy == DistinctStrategy::kSort) return SortDistinct(rel, attrs);
  return GroupCountBy(rel, attrs);
}

DistinctEvaluator::DistinctEvaluator(const relation::Relation& rel)
    : rel_(rel), watermark_(rel.version()) {
  mutation_seen_ = rel.has_tombstones();
  tomb_pos_ = rel.deletion_log().size();
  epoch_seen_ = rel.mutation_epoch();
  compactions_seen_ = rel.compactions();
}

void DistinctEvaluator::MaybeAdvance() {
  if (rel_.version() != watermark_ || rel_.mutation_epoch() != epoch_seen_ ||
      rel_.compactions() != compactions_seen_) {
    Advance();
  }
}

void DistinctEvaluator::Advance() {
  if (rel_.compactions() != compactions_seen_) {
    // A compaction reassigned physical row ids and dictionary codes
    // wholesale — every cached grouping is meaningless now. Drop the lot
    // and restart from the compacted relation; because its encoded state
    // is bit-identical to a fresh build of the live rows, the rebuilt
    // caches reproduce fresh-rebuild results exactly.
    cache_.clear();
    counts_.clear();
    by_size_.clear();
    watermark_ = rel_.version();
    compactions_seen_ = rel_.compactions();
    epoch_seen_ = rel_.mutation_epoch();
    mutation_seen_ = rel_.has_tombstones();
    tomb_pos_ = rel_.deletion_log().size();
    return;
  }
  const size_t n = rel_.version();
  if (n < watermark_) {
    throw std::logic_error(
        "DistinctEvaluator::Advance: relation shrank below the watermark "
        "without a compaction — stale evaluator paired with a mutated "
        "relation");
  }
  const bool appended = n != watermark_;
  const bool mutated = rel_.mutation_epoch() != epoch_seen_;
  if (!appended && !mutated) return;
  if (appended) {
    // Popcount-ascending bucket order advances every grouping's base
    // before the grouping itself, so dependent chains always read
    // already-extended base ids.
    for (const auto& bucket : by_size_) {
      for (const relation::AttrSet& key : bucket) {
        AdvanceGrouping(cache_.find(key)->second, n);
      }
    }
  }
  // Appends first, then deletions: a row appended and deleted between two
  // queries is first counted live by AdvanceGrouping and then decremented
  // by its deletion-log entry — refcount updates commute, so the net
  // state is exact.
  if (mutated) FoldDeletions();
  // Count memos: grouping-backed entries are refreshed from the advanced
  // state (live-group counts once refcounts are active); count-only memos
  // have no chain to extend and are dropped (they recompute on next use —
  // O(1) for the empty/single-attribute fast paths, one refinement chain
  // otherwise).
  for (auto it = counts_.begin(); it != counts_.end();) {
    auto backing = cache_.find(it->first);
    if (backing == cache_.end()) {
      it = counts_.erase(it);
    } else {
      const CachedGrouping& cg = backing->second;
      it->second = mutation_seen_ ? cg.live_groups : cg.grouping.group_count;
      ++it;
    }
  }
  watermark_ = n;
  epoch_seen_ = rel_.mutation_epoch();
}

void DistinctEvaluator::BuildLiveRefcounts(CachedGrouping& cg) {
  const Grouping& g = cg.grouping;
  const auto& bitmap = rel_.live_bitmap();
  cg.live.assign(g.group_count, 0u);
  cg.live_groups = 0;
  for (size_t t = 0; t < g.ids.size(); ++t) {
    if (!bitmap.empty() && bitmap[t] == 0) continue;
    if (cg.live[g.ids[t]]++ == 0) ++cg.live_groups;
  }
}

void DistinctEvaluator::FoldDeletions() {
  const auto& log = rel_.deletion_log();
  if (!mutation_seen_) {
    // First observed mutation: materialize refcounts for every cached
    // grouping in one scan each. Appends were folded first, so each
    // grouping covers the full bitmap.
    mutation_seen_ = true;
    for (auto& entry : cache_) BuildLiveRefcounts(entry.second);
    tomb_pos_ = log.size();
    return;
  }
  for (auto& entry : cache_) {
    CachedGrouping& cg = entry.second;
    for (size_t p = tomb_pos_; p < log.size(); ++p) {
      if (--cg.live[cg.grouping.ids[log[p]]] == 0) --cg.live_groups;
    }
  }
  tomb_pos_ = log.size();
}

void DistinctEvaluator::AdvanceGrouping(CachedGrouping& cg, size_t n) {
  Grouping& g = cg.grouping;
  const size_t prev = g.ids.size();
  if (cg.gap.empty()) {
    // The empty attribute set: every tuple in one group.
    g.ids.resize(n, 0u);
    g.group_count = n > 0 ? 1 : 0;
    cg.tabled = n;
    ExtendLiveRefcounts(cg, prev, n);
    return;
  }
  if (cg.levels.empty()) {
    // First advance of this grouping: create the chain and replay the
    // prefix through it below (cg.tabled == 0). The replay reproduces the
    // exact ids the build assigned — every build path (dense, flat,
    // parallel, dictionary fast path) assigns first-appearance ids in
    // scan order, which is precisely what the chained table walk does.
    cg.levels.resize(cg.gap.size());
    for (size_t j = 0; j < cg.gap.size(); ++j) cg.levels[j].attr = cg.gap[j];
    cg.tabled = 0;
  }

  const std::vector<uint32_t>* base_ids = nullptr;
  if (cg.has_base) {
    base_ids = &cache_.find(cg.base)->second.grouping.ids;
  }
  const size_t k = cg.levels.size();
  std::vector<const uint32_t*> codes(k);
  for (size_t j = 0; j < k; ++j) {
    codes[j] = rel_.column(cg.levels[j].attr).codes().data();
  }

  // No reserve(n) here: an exact-size reserve would reallocate on every
  // advance (quadratic copying under frequent small batches); push_back's
  // geometric growth amortizes to O(1) per appended row.
  const size_t have = g.ids.size();
  for (size_t t = cg.tabled; t < n; ++t) {
    uint32_t id = base_ids ? (*base_ids)[t] : 0u;
    for (size_t j = 0; j < k; ++j) {
      CachedGrouping::Level& lv = cg.levels[j];
      const uint64_t key = (static_cast<uint64_t>(id) << 32) | codes[j][t];
      bool inserted = false;
      id = lv.table.FindOrInsert(key, lv.group_count, &inserted);
      if (inserted) ++lv.group_count;
    }
    if (t < have) {
      // Prefix replay: the chain walk must agree with the ids the build
      // produced; a mismatch means a refinement path broke first-
      // appearance order.
      assert(g.ids[t] == id);
    } else {
      g.ids.push_back(id);
    }
  }
  g.group_count = cg.levels.back().group_count;
  cg.tabled = n;
  ExtendLiveRefcounts(cg, prev, n);
}

void DistinctEvaluator::ExtendLiveRefcounts(CachedGrouping& cg, size_t from,
                                            size_t to) {
  if (!mutation_seen_ || to <= from) return;
  // Appended rows are always live at append time; if one was deleted again
  // before this advance, its deletion-log entry (folded after appends)
  // takes the refcount back down.
  const Grouping& g = cg.grouping;
  cg.live.resize(g.group_count, 0u);
  for (size_t t = from; t < to; ++t) {
    if (cg.live[g.ids[t]]++ == 0) ++cg.live_groups;
  }
}

size_t DistinctEvaluator::Count(const relation::AttrSet& attrs) {
  MaybeAdvance();
  if (auto memo = counts_.find(attrs); memo != counts_.end()) {
    return memo->second;
  }
  size_t result;
  if (mutation_seen_) {
    // Tombstones active: the dictionary fast path is invalid and a
    // count-only memo would be dropped on every Advance, so route every
    // nontrivial query through a refcounted cached grouping — repeated
    // monitor checks then stay O(Δ) per mutation.
    if (rel_.live_count() == 0) {
      result = 0;
    } else if (attrs.Empty()) {
      result = 1;
    } else {
      GroupFor(attrs);  // ensures a refcounted cache entry exists
      result = cache_.find(attrs)->second.live_groups;
    }
  } else if (rel_.tuple_count() == 0 || attrs.Empty() || attrs.Count() == 1) {
    // O(1) via the dictionary fast path; not worth counting as a miss.
    result = GroupCountBy(rel_, attrs, scratch_);
  } else if (auto it = cache_.find(attrs); it != cache_.end()) {
    result = it->second.grouping.group_count;
  } else {
    ++misses_;
    SubsetMatch best = BestCachedSubset(attrs);
    relation::AttrSet gap = best.key ? attrs.Minus(*best.key) : attrs;
    if (gap.Count() <= 1) {
      result = RefineCountBy(rel_, *best.grouping, gap, scratch_);
    } else {
      // Materialize all but one missing attribute: the repair search asks
      // for |π_XA_1Y|, |π_XA_2Y|, ... and this caches the shared base once
      // instead of regrouping it per sibling. Prefer dropping an attribute
      // whose complement is already cached (the shared base may sit on
      // either side of the index order); otherwise drop the largest.
      const auto gap_attrs = gap.ToVector();
      int dropped = gap_attrs.back();
      for (int a : gap_attrs) {
        relation::AttrSet head = attrs;
        head.Remove(a);
        if (cache_.find(head) != cache_.end()) {
          dropped = a;
          break;
        }
      }
      relation::AttrSet head = attrs;
      head.Remove(dropped);
      const Grouping& base = GroupFor(head);
      relation::AttrSet tail;
      tail.Add(dropped);
      result = RefineCountBy(rel_, base, tail, scratch_);
    }
  }
  counts_.emplace(attrs, result);
  return result;
}

const Grouping& DistinctEvaluator::GroupFor(const relation::AttrSet& attrs) {
  MaybeAdvance();
  if (auto it = cache_.find(attrs); it != cache_.end()) {
    return it->second.grouping;
  }
  ++misses_;
  SubsetMatch best = BestCachedSubset(attrs);
  Grouping g = best.key
                   ? RefineBy(rel_, *best.grouping, attrs.Minus(*best.key),
                              scratch_)
                   : GroupBy(rel_, attrs, scratch_);
  return Insert(attrs, std::move(g), best.key);
}

DistinctEvaluator::SubsetMatch DistinctEvaluator::BestCachedSubset(
    const relation::AttrSet& attrs) const {
  SubsetMatch m;
  int top = std::min<int>(attrs.Count(), static_cast<int>(by_size_.size()) - 1);
  for (int c = top; c >= 0 && m.key == nullptr; --c) {
    for (const relation::AttrSet& key : by_size_[static_cast<size_t>(c)]) {
      if (key.SubsetOf(attrs)) {
        auto it = cache_.find(key);
        m.key = &it->first;
        m.grouping = &it->second.grouping;
        break;
      }
    }
  }
  return m;
}

const Grouping& DistinctEvaluator::Insert(const relation::AttrSet& attrs,
                                          Grouping g,
                                          const relation::AttrSet* base_key) {
  CachedGrouping cg;
  cg.grouping = std::move(g);
  if (base_key != nullptr) {
    cg.has_base = true;
    cg.base = *base_key;
    cg.gap = attrs.Minus(*base_key).ToVector();
  } else {
    cg.gap = attrs.ToVector();
  }
  if (mutation_seen_) BuildLiveRefcounts(cg);
  counts_.emplace(attrs,
                  mutation_seen_ ? cg.live_groups : cg.grouping.group_count);
  // Level tables are not built here: Advance() replays the prefix through
  // fresh tables the first time this grouping must be extended, so static
  // workloads never pay for them (cg.tabled stays 0 until then).
  auto [it, inserted] = cache_.emplace(attrs, std::move(cg));
  if (inserted) {
    const auto bucket = static_cast<size_t>(attrs.Count());
    if (by_size_.size() <= bucket) by_size_.resize(bucket + 1);
    by_size_[bucket].push_back(attrs);
  }
  return it->second.grouping;
}

}  // namespace fdevolve::query
