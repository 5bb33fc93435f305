#include "relation/relation.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fdevolve::relation {

const Value Column::kNullValue = Value::Null();

const Value& Column::DictValue(uint32_t code) const {
  if (code == kNullCode) return kNullValue;
  return dict_.at(code);
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    codes_.push_back(kNullCode);
    ++null_count_;
    return;
  }
  if (!v.MatchesType(type_)) {
    throw std::invalid_argument("Column: value type mismatch, expected " +
                                DataTypeName(type_) + " got " + v.ToString());
  }
  if (dict_index_.size() != dict_.size()) RebuildDictIndex();
  auto it = dict_index_.find(v);
  if (it != dict_index_.end()) {
    codes_.push_back(it->second);
    return;
  }
  auto code = static_cast<uint32_t>(dict_.size());
  if (code == kNullCode) {
    throw std::length_error("Column: dictionary overflow");
  }
  dict_.push_back(v);
  dict_index_.emplace(v, code);
  codes_.push_back(code);
}

Value Column::Get(size_t t) const {
  uint32_t c = codes_.at(t);
  return c == kNullCode ? Value::Null() : dict_.at(c);
}

void Column::Compact(const std::vector<uint8_t>& live) {
  if (live.size() != codes_.size()) {
    throw std::invalid_argument("Column::Compact: bitmap size mismatch");
  }
  // Remap surviving codes to first-appearance order over the kept rows —
  // exactly the codes Append would assign when fed the kept values in
  // order — and drop dictionary entries no survivor references.
  std::vector<uint32_t> remap(dict_.size(), kNullCode);
  std::vector<Value> dict;
  std::vector<uint32_t> codes;
  size_t nulls = 0;
  for (size_t t = 0; t < codes_.size(); ++t) {
    if (live[t] == 0) continue;
    const uint32_t c = codes_[t];
    if (c == kNullCode) {
      codes.push_back(kNullCode);
      ++nulls;
      continue;
    }
    uint32_t& m = remap[c];
    if (m == kNullCode) {
      m = static_cast<uint32_t>(dict.size());
      dict.push_back(dict_[c]);
    }
    codes.push_back(m);
  }
  dict_ = std::move(dict);
  codes_ = std::move(codes);
  null_count_ = nulls;
  // Lazily rebuilt on the next Append, like the FromEncoded path.
  dict_index_.clear();
}

void Column::RebuildDictIndex() {
  dict_index_.clear();
  dict_index_.reserve(dict_.size());
  for (size_t c = 0; c < dict_.size(); ++c) {
    dict_index_.emplace(dict_[c], static_cast<uint32_t>(c));
  }
}

Column Column::FromEncoded(DataType type, std::vector<Value> dict,
                           std::vector<uint32_t> codes, size_t null_count) {
  Column col(type);
  if (dict.size() >= kNullCode) {
    throw std::invalid_argument("Column::FromEncoded: dictionary too large");
  }
  for (const Value& v : dict) {
    if (v.is_null() || !v.MatchesType(type)) {
      throw std::invalid_argument(
          "Column::FromEncoded: dictionary value type mismatch, expected " +
          DataTypeName(type) + " got " + v.ToString());
    }
  }
  // Duplicate detection without building the value→code index (which is
  // deferred to the first Append): equal values have equal hashes, so sort
  // the bare hashes and look for equal neighbors — in the overwhelmingly
  // common collision-free case that one u64 sort is the whole check. Only
  // when a run of equal hashes exists are the actual values compared
  // (second pass with codes attached). Entries that are unequal to
  // themselves (NaN) are legal — an organic Append stream mints a fresh
  // code for every NaN too.
  {
    std::vector<uint64_t> hashes;
    hashes.reserve(dict.size());
    for (const Value& v : dict) hashes.push_back(v.Hash());
    std::sort(hashes.begin(), hashes.end());
    const bool collision =
        std::adjacent_find(hashes.begin(), hashes.end()) != hashes.end();
    if (collision) {
      std::vector<std::pair<uint64_t, uint32_t>> keyed;
      keyed.reserve(dict.size());
      for (size_t c = 0; c < dict.size(); ++c) {
        keyed.emplace_back(dict[c].Hash(), static_cast<uint32_t>(c));
      }
      std::sort(keyed.begin(), keyed.end());
      for (size_t i = 0; i + 1 < keyed.size(); ++i) {
        for (size_t j = i + 1;
             j < keyed.size() && keyed[j].first == keyed[i].first; ++j) {
          if (dict[keyed[i].second] == dict[keyed[j].second]) {
            throw std::invalid_argument(
                "Column::FromEncoded: duplicate dictionary value " +
                dict[keyed[i].second].ToString());
          }
        }
      }
    }
  }
  size_t nulls = 0;
  for (uint32_t c : codes) {
    if (c == kNullCode) {
      ++nulls;
    } else if (c >= dict.size()) {
      throw std::invalid_argument(
          "Column::FromEncoded: code " + std::to_string(c) +
          " out of dictionary range " + std::to_string(dict.size()));
    }
  }
  if (nulls != null_count) {
    throw std::invalid_argument(
        "Column::FromEncoded: null count mismatch (codes have " +
        std::to_string(nulls) + ", declared " + std::to_string(null_count) +
        ")");
  }
  col.dict_ = std::move(dict);
  col.codes_ = std::move(codes);
  col.null_count_ = null_count;
  return col;
}

Relation::Relation(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.size()));
  for (const auto& a : schema_.attrs()) columns_.emplace_back(a.type);
}

void Relation::ValidateRow(const std::vector<Value>& row) const {
  if (row.size() != static_cast<size_t>(schema_.size())) {
    throw std::invalid_argument("Relation::AppendRow: arity mismatch");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (!v.is_null() && !v.MatchesType(columns_[i].type())) {
      throw std::invalid_argument(
          "Relation::AppendRow: value type mismatch in column '" +
          schema_.attr(static_cast<int>(i)).name + "', expected " +
          DataTypeName(columns_[i].type()) + " got " + v.ToString());
    }
  }
}

void Relation::AppendRow(const std::vector<Value>& row) {
  // Validate the whole row before touching any column: a mid-row type
  // mismatch must not leave columns with unequal lengths.
  ValidateRow(row);
  for (size_t i = 0; i < row.size(); ++i) {
    columns_[i].Append(row[i]);
  }
  ++tuple_count_;
  ++appends_ever_;
  if (!live_.empty()) live_.push_back(1);
}

void Relation::AppendRows(const std::vector<std::vector<Value>>& rows) {
  for (const auto& row : rows) ValidateRow(row);
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      columns_[i].Append(row[i]);
    }
    ++tuple_count_;
    ++appends_ever_;
    if (!live_.empty()) live_.push_back(1);
  }
}

void Relation::DeleteRow(size_t t) {
  if (t >= tuple_count_) {
    throw std::out_of_range("Relation::DeleteRow: row " + std::to_string(t) +
                            " out of range " + std::to_string(tuple_count_));
  }
  if (live_.empty()) live_.assign(tuple_count_, 1);
  if (live_[t] == 0) {
    throw std::invalid_argument("Relation::DeleteRow: row " +
                                std::to_string(t) + " is already deleted");
  }
  live_[t] = 0;
  deletion_log_.push_back(static_cast<uint32_t>(t));
  ++dead_count_;
  ++deletes_ever_;
}

size_t Relation::Compact() {
  const size_t removed = dead_count_;
  if (removed != 0) {
    for (auto& col : columns_) col.Compact(live_);
    tuple_count_ -= removed;
    live_.clear();
    deletion_log_.clear();
    dead_count_ = 0;
  }
  // Epoch and incarnation move even for a no-op compaction: callers that
  // trigger Compact() deterministically (the server's policy) must see
  // identical counters on replay regardless of whether rows were dead.
  ++compactions_;
  return removed;
}

Relation Relation::CompactedCopy() const {
  Relation copy = *this;
  copy.Compact();
  // The copy is a fresh instance as far as consumers are concerned: its
  // lifetime counters restart at the compacted contents.
  copy.appends_ever_ = copy.tuple_count_;
  copy.deletes_ever_ = 0;
  copy.compactions_ = 0;
  return copy;
}

AttrSet Relation::NonNullAttrs() const {
  AttrSet s;
  for (int i = 0; i < attr_count(); ++i) {
    if (!column(i).has_nulls()) s.Add(i);
  }
  return s;
}

Relation Relation::FromEncoded(std::string name, Schema schema,
                               std::vector<Column> columns) {
  if (columns.size() != static_cast<size_t>(schema.size())) {
    throw std::invalid_argument(
        "Relation::FromEncoded: column count does not match schema");
  }
  size_t rows = columns.empty() ? 0 : columns.front().size();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].type() != schema.attr(static_cast<int>(i)).type) {
      throw std::invalid_argument(
          "Relation::FromEncoded: column type mismatch at attribute '" +
          schema.attr(static_cast<int>(i)).name + "'");
    }
    if (columns[i].size() != rows) {
      throw std::invalid_argument(
          "Relation::FromEncoded: columns have unequal lengths");
    }
  }
  Relation rel(std::move(name), std::move(schema));
  rel.columns_ = std::move(columns);
  rel.tuple_count_ = rows;
  rel.appends_ever_ = rows;
  return rel;
}

void Relation::RestoreLifetimeCounters(size_t appends_ever,
                                       size_t deletes_ever,
                                       size_t compactions) {
  // The watermark counts appends since the last compaction, so lifetime
  // appends can never be below it; same for deletes vs live tombstones.
  if (appends_ever < tuple_count_) {
    throw std::invalid_argument(
        "Relation::RestoreLifetimeCounters: appends_ever " +
        std::to_string(appends_ever) + " below the watermark " +
        std::to_string(tuple_count_));
  }
  if (deletes_ever < dead_count_) {
    throw std::invalid_argument(
        "Relation::RestoreLifetimeCounters: deletes_ever " +
        std::to_string(deletes_ever) + " below the tombstone count " +
        std::to_string(dead_count_));
  }
  appends_ever_ = appends_ever;
  deletes_ever_ = deletes_ever;
  compactions_ = compactions;
}

void RequireNoTombstones(const Relation& rel, const char* where) {
  if (rel.has_tombstones()) {
    throw std::logic_error(
        std::string(where) + ": relation '" + rel.name() + "' carries " +
        std::to_string(rel.dead_count()) +
        " tombstoned rows; this consumer scans physical rows and would "
        "include deleted tuples — compact the relation (or pass "
        "CompactedCopy()) first");
  }
}

size_t Relation::EstimatedBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += col.size() * sizeof(uint32_t);
    for (size_t c = 0; c < col.dict_size(); ++c) {
      const Value& v = col.DictValue(static_cast<uint32_t>(c));
      bytes += v.is_string() ? v.as_string().size() + 16 : 8;
    }
  }
  return bytes;
}

}  // namespace fdevolve::relation
