#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace prefdb {

namespace {

using stats_internal::DistinctValues;
using stats_internal::KeySet;

/// Distinct tracking saturates at this many values per column, bounding
/// the derivation's memory independent of table size.
constexpr size_t kDistinctCap = 1 << 16;

/// The per-cell rule of TableStats::Derive. Beyond the saturation cap
/// the count freezes and the flag is set (the real count is "at least
/// the cap").
class CellCounter {
 public:
  CellCounter(ColumnStats* stats, DistinctValues* seen)
      : stats_(*stats), seen_(*seen) {}

  void Null() {
    ++stats_.null_count;
    if (!Room() || seen_.has_null) return;
    seen_.has_null = true;
    ++stats_.distinct;
  }

  void Number(double x) {
    if (std::isnan(x)) {
      // NaN != NaN under Value equality: one logical class, counted
      // once, never inserted (a NaN-heavy column would otherwise fill
      // the set with one entry per row).
      if (stats_.nan_count == 0) ++stats_.distinct;
      ++stats_.nan_count;
      return;
    }
    if (x == 0.0) x = 0.0;  // -0.0 == 0.0 under Value equality
    uint64_t key;
    std::memcpy(&key, &x, sizeof(key));
    if (Room() && seen_.numbers.Insert(key)) ++stats_.distinct;
  }

  /// Returns whether `s` is in the distinct set afterwards. `known`: an
  /// earlier call returned true for this string (a repeated dictionary
  /// code), so only the counters move, without hashing it again.
  bool String(const std::string& s, bool known) {
    ++stats_.non_numeric_count;
    if (!Room()) return known;
    if (!known && seen_.strings.insert(s).second) ++stats_.distinct;
    return true;
  }

 private:
  bool Room() {
    if (seen_.size() < kDistinctCap) return true;
    stats_.distinct_saturated = true;
    return false;
  }

  ColumnStats& stats_;
  DistinctValues& seen_;
};

/// Feeds column `col` of `r` through one CellCounter, reading the column
/// buffers: tags for NULL, the widened doubles for numerics, and each
/// distinct dictionary string once (repeated codes skip the hash).
void ScanColumn(const Relation& r, size_t col, ColumnStats* stats,
                DistinctValues* seen) {
  const ColumnStore& store = r.store();
  const Column& column = store.column(col);
  CellCounter counter(stats, seen);
  std::vector<char> code_seen;
  for (size_t i = 0; i < store.rows(); ++i) {
    const size_t row = store.PhysicalRow(i);
    switch (column.TagAt(row)) {
      case ValueType::kNull:
        counter.Null();
        break;
      case ValueType::kInt:
      case ValueType::kDouble:
        counter.Number(column.nums[row]);
        break;
      case ValueType::kString: {
        const uint32_t code = column.codes[row];
        if (code >= code_seen.size()) code_seen.resize(column.dict->size(), 0);
        if (counter.String(column.dict->At(code), code_seen[code] != 0)) {
          code_seen[code] = 1;
        }
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TableStats

TableStats TableStats::Derive(const Relation& r) {
  TableStats out;
  out.rows = r.size();
  out.columns.resize(r.schema().size());
  for (size_t c = 0; c < r.schema().size(); ++c) {
    out.names.push_back(r.schema().at(c).name);
    DistinctValues seen;
    ScanColumn(r, c, &out.columns[c], &seen);
  }
  return out;
}

namespace stats_internal {

bool KeySet::Insert(uint64_t key) {
  if ((size_ + 1) * 2 > slots_.size()) {
    // Grow (or allocate) to keep the load factor at most 1/2.
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), kEmpty);
    size_ = 0;
    for (uint64_t k : old) {
      if (k != kEmpty) Insert(k);
    }
  }
  const size_t mask = slots_.size() - 1;
  // splitmix64 finalizer: spreads the low-entropy bit patterns of small
  // integral doubles across the table.
  uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    if (slots_[i] == key) return false;
    if (slots_[i] == kEmpty) {
      slots_[i] = key;
      ++size_;
      return true;
    }
  }
}

}  // namespace stats_internal

}  // namespace prefdb
