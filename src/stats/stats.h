// The statistics subsystem: per-relation column statistics derived on
// demand by a columnar scan (TableStats::Derive), and the per-term
// statistics feeding the cost-based planner (eval/physical_plan.h):
// distinct counts, injectivity and the estimated antichain width,
// measured from the compiled score table of the block being planned
// (MeasureTermStats, including a sampled window probe).
//
// The paper's §7 outlook asks for "cost-based optimization to choose
// between direct implementations of the Pareto operator and divide &
// conquer algorithms" — these are the observed quantities the choice
// between the compiled kernels (BNL, SFS) runs on.

#ifndef PREFDB_STATS_STATS_H_
#define PREFDB_STATS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/preference.h"
#include "relation/relation.h"

namespace prefdb {

class ScoreTable;

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

/// Statistics of one preference term against one candidate pool: the
/// cost model's inputs, measured from a compiled score table
/// (MeasureTermStats).
struct TermStats {
  /// Candidate rows n (duplicates included; WHERE survivors).
  size_t input_rows = 0;
  /// Distinct projections m — what the maxima kernels actually scan.
  size_t distinct_values = 0;
  /// Compiled score columns d.
  size_t dims = 0;
  /// Lexicographic sort keys the compiled table exposes (0 = none).
  size_t table_keys = 0;
  /// The term compiles into the score-table kernels; only then does the
  /// cost model run (eval/physical_plan.h).
  bool compilable = false;
  /// The block is one score column whose ties are value ties —
  /// LOWEST/HIGHEST on a NaN-free numeric column
  /// (ScoreTable::IsScoreChain): BNL's window is one score level, so the
  /// maxima take one streaming pass.
  bool score_chain = false;
  /// Estimated maxima count w — the BNL window / SFS survivor set size.
  double est_window = 1.0;
  /// est_window came from a sampled kernel probe, not the closed form.
  bool measured_window = false;

  std::string ToString() const;
};

/// Measures term statistics from a compiled score table over the actual
/// block (the pool, or its deduplicated representatives): exact column
/// distinct counts and injectivity;
/// when the block is large enough, the window width is extrapolated from
/// maxima probes of two nested sample prefixes (a two-point fit of the
/// Pareto-front growth exponent), which is what distinguishes
/// anti-correlated from independent data — the closed form cannot.
TermStats MeasureTermStats(const ScoreTable& table, const PrefPtr& p,
                           size_t input_rows);

/// The (ln m)^(d-1) / (d-1)! skyline-cardinality closed form for
/// independent dimensions, clamped to [1, m].
double WindowClosedForm(size_t m, size_t eff_dims);

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
