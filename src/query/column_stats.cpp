#include "query/column_stats.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace fdevolve::query {
namespace {

double ValueWidth(const relation::Value& v) {
  return v.is_string() ? static_cast<double>(v.as_string().size()) : 8.0;
}

}  // namespace

std::vector<ColumnStats> ComputeColumnStats(const relation::Relation& rel) {
  return ComputeColumnStats(rel, rel.schema().AllAttrs());
}

std::vector<ColumnStats> ComputeColumnStats(const relation::Relation& rel,
                                            const relation::AttrSet& attrs) {
  std::vector<ColumnStats> out(static_cast<size_t>(rel.attr_count()));
  const size_t live_rows = rel.live_count();
  const bool tombstoned = rel.has_tombstones();
  // Scratch reused across columns when an occurrence scan is needed.
  std::vector<uint32_t> occurrences;
  for (int i : attrs.ToVector()) {
    const auto& col = rel.column(i);
    ColumnStats& s = out[static_cast<size_t>(i)];
    s.name = rel.schema().attr(i).name;
    size_t max_occurrence = 0;
    if (!tombstoned) {
      // Append-only fast path: the dictionary is exactly the live ndv.
      s.null_count = col.null_count();
      s.distinct_count = col.dict_size();
      if (col.dict_size() + col.null_count() == col.size() &&
          col.null_count() <= 1) {
        // Every row is a singleton group (at most one of them NULL).
        max_occurrence = col.size() > 0 ? 1 : 0;
      } else {
        // One occurrence pass to find the real heaviest group — the cost
        // planner's bounds want the true maximum, not the 1-vs-2 telltale
        // that uniqueness detection needs.
        occurrences.assign(col.dict_size(), 0u);
        size_t null_occurrence = 0;
        const auto& codes = col.codes();
        for (size_t t = 0; t < codes.size(); ++t) {
          const uint32_t c = codes[t];
          const size_t n = c == relation::kNullCode
                               ? ++null_occurrence
                               : static_cast<size_t>(++occurrences[c]);
          if (n > max_occurrence) max_occurrence = n;
        }
      }
      double width = 0.0;
      for (size_t c = 0; c < col.dict_size(); ++c) {
        width += ValueWidth(col.DictValue(static_cast<uint32_t>(c)));
      }
      s.avg_dict_width = col.dict_size() > 0 ? width / col.dict_size() : 0.0;
    } else {
      // One occurrence-count pass over the live rows: a dictionary entry
      // only referenced by dead rows must not count toward ndv.
      occurrences.assign(col.dict_size(), 0u);
      const auto& codes = col.codes();
      for (size_t t = 0; t < codes.size(); ++t) {
        if (!rel.is_live(t)) continue;
        const uint32_t c = codes[t];
        if (c == relation::kNullCode) {
          // Live NULLs form one shared group for max_group_rows purposes.
          const size_t n = ++s.null_count;
          if (n > max_occurrence) max_occurrence = n;
          continue;
        }
        const size_t n = ++occurrences[c];
        if (n > max_occurrence) max_occurrence = n;
      }
      double width = 0.0;
      for (size_t c = 0; c < occurrences.size(); ++c) {
        if (occurrences[c] == 0) continue;
        ++s.distinct_count;
        width += ValueWidth(col.DictValue(static_cast<uint32_t>(c)));
      }
      s.avg_dict_width =
          s.distinct_count > 0 ? width / s.distinct_count : 0.0;
    }
    s.max_group_rows = max_occurrence;
    s.null_fraction =
        live_rows > 0 ? static_cast<double>(s.null_count) / live_rows : 0.0;
    s.is_unique = live_rows > 0 && s.null_count == 0 && max_occurrence <= 1 &&
                  s.distinct_count == live_rows;
  }
  return out;
}

size_t SaturatingMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<size_t>::max() / b) {
    return std::numeric_limits<size_t>::max();
  }
  return a * b;
}

size_t ProjectionUpperBound(size_t base_distinct, const ColumnStats& added,
                            size_t live_rows) {
  return std::min(live_rows, SaturatingMul(base_distinct, added.group_slots()));
}

relation::AttrSet UniqueAttrs(const relation::Relation& rel) {
  relation::AttrSet s;
  auto stats = ComputeColumnStats(rel);
  for (int i = 0; i < rel.attr_count(); ++i) {
    if (stats[static_cast<size_t>(i)].is_unique) s.Add(i);
  }
  return s;
}

}  // namespace fdevolve::query
