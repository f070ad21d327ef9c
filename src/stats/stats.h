// The statistics subsystem: per-relation column statistics derived on
// demand by a columnar scan (TableStats::Derive), and the lifetime
// counters of a maintained view (ViewMaintenanceStats).
//
// No query plan reads these statistics: kAuto chooses between the
// compiled BNL and SFS kernels while it runs, from the window it
// observes (ScoreTable::Maxima, exec/score_table.h), not from an
// estimate.

#ifndef PREFDB_STATS_STATS_H_
#define PREFDB_STATS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "relation/relation.h"

namespace prefdb {

/// Per-column statistics of one relation snapshot. Distinct counts are
/// exact (hash-set based) up to a cap of 2^16 values per column, which
/// bounds the scan's memory independent of table size.
struct ColumnStats {
  size_t distinct = 0;
  /// True when distinct tracking hit the saturation cap: the real count
  /// is *at least* `distinct`.
  bool distinct_saturated = false;
  size_t null_count = 0;
  size_t nan_count = 0;
  /// Non-null values that are not numeric (strings in an INT column
  /// break the LOWEST/HIGHEST monotone fast path and score them -inf).
  size_t non_numeric_count = 0;
};

/// Statistics of one relation snapshot. Cheap to copy (plain counters).
struct TableStats {
  size_t rows = 0;
  std::vector<std::string> names;    // column names, schema order
  std::vector<ColumnStats> columns;  // aligned with names

  /// Full-scan derivation over every column, O(rows * columns). Scans the
  /// column buffers (tags, widened numerics, each distinct dictionary
  /// string once), never materialized rows.
  static TableStats Derive(const Relation& r);
};

namespace stats_internal {

/// Open-addressing set of 64-bit keys (the bit patterns of widened
/// numerics): one flat array at load factor <= 1/2 instead of one heap
/// node per value.
class KeySet {
 public:
  /// True when `key` was not present. `key` must not be kEmpty.
  bool Insert(uint64_t key);
  size_t size() const { return size_; }

  /// A NaN bit pattern: NaN cells are counted, never inserted.
  static constexpr uint64_t kEmpty = 0x7ff8000000000001ULL;

 private:
  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

/// The distinct non-NaN values seen in one column, keyed exactly like
/// Value equality: one NULL class, numerics by the bits of their widened
/// double (-0.0 folded onto 0.0, so 3 and 3.0 are one value), strings by
/// content.
struct DistinctValues {
  bool has_null = false;
  KeySet numbers;
  std::unordered_set<std::string> strings;

  size_t size() const {
    return (has_null ? 1 : 0) + numbers.size() + strings.size();
  }
};

}  // namespace stats_internal

/// Lifetime counters of one maintained view (ivm/maintained_view.h):
/// mutation mix, result-set churn, and how often delete maintenance fell
/// back to a full reseed. Inputs to EstimateViewMaintenanceNs /
/// EstimateViewReseedNs (eval/physical_plan.h) and surfaced per
/// subscription for observability.
struct ViewMaintenanceStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Rows that entered / left the maintained result set across all
  /// incremental mutations (resync snapshots are not re-counted).
  uint64_t enters = 0;
  uint64_t exits = 0;
  /// Delete passes where the cost model priced a full reseed below
  /// witness-orphan maintenance (typically: most witnesses died at once).
  uint64_t reseeds = 0;
};

}  // namespace prefdb

#endif  // PREFDB_STATS_STATS_H_
