// The statistics subsystem feeding the cost-based planner
// (eval/physical_plan.h): per-relation column statistics maintained
// incrementally on the engine's versioned snapshots, and per-term
// statistics (distinct counts, injectivity, estimated antichain width)
// derived either from table statistics alone (estimation, before any
// data is materialized) or from a compiled score table (measurement,
// including a sampled window probe).
//
// The paper's §7 outlook asks for "cost-based optimization to choose
// between direct implementations of the Pareto operator and divide &
// conquer algorithms" — these are the observed quantities that choice
// runs on.

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
/// exact (hash-set based); the builder keeps the sets so Insert-time
/// maintenance is O(columns) per row instead of a rescan.
struct ColumnStats {
  size_t distinct = 0;
  /// True when distinct tracking hit the builder's saturation cap: the
  /// real count is *at least* `distinct`; estimation falls back to
  /// pool-scale cardinality.
  bool distinct_saturated = false;
  size_t null_count = 0;
  size_t nan_count = 0;
  /// Non-null values that are not numeric (strings in an INT column
  /// break the LOWEST/HIGHEST monotone fast path and score them -inf).
  size_t non_numeric_count = 0;

  bool AllNumeric(size_t rows) const {
    return null_count == 0 && nan_count == 0 && non_numeric_count == 0 &&
           rows > 0;
  }
};

/// Statistics of one relation snapshot. Cheap to copy (plain counters);
/// the engine shares one instance per (table, version) across plans.
struct TableStats {
  size_t rows = 0;
  std::vector<std::string> names;    // column names, schema order
  std::vector<ColumnStats> columns;  // aligned with names

  /// Stats for `name`, or nullptr when the column is unknown (planning
  /// then falls back to worst-case assumptions).
  const ColumnStats* Column(const std::string& name) const;

  /// Full-scan derivation for standalone callers (the free-function BMO
  /// paths and tests). `attrs` restricts the scan to the named columns
  /// (empty = all), so per-term derivation costs O(rows * |A|).
  static TableStats Derive(const Relation& r,
                           const std::vector<std::string>& attrs = {});
};

/// Incremental maintainer of TableStats: the engine keeps one per table
/// and feeds Insert rows through AddRow, so statistics stay exact across
/// mutations without rescanning the relation. Per-column distinct
/// tracking saturates at 2^16 values (the count then reads "at least
/// 65536"), bounding the builder's memory independent of table size.
class TableStatsBuilder {
 public:
  explicit TableStatsBuilder(const Schema& schema);
  explicit TableStatsBuilder(const Relation& r);

  void AddRow(const Tuple& row);
  /// Current statistics (copies the counters, not the hash sets).
  TableStats Snapshot() const;

 private:
  TableStats stats_;
  std::vector<std::unordered_set<Value, ValueHash>> distinct_;
};

/// Statistics of one preference term against one candidate pool: the
/// cost model's inputs. Derived by estimation (EstimateTermStats, from
/// TableStats + term structure) or measurement (MeasureTermStats, from a
/// compiled score table, including a sampled window probe).
struct TermStats {
  /// Candidate rows n (duplicates included; WHERE survivors).
  size_t input_rows = 0;
  /// Distinct projections m — what the maxima kernels actually scan.
  size_t distinct_values = 0;
  /// Compiled score columns d (term attribute count on the closure path).
  size_t dims = 0;
  /// Lexicographic sort keys the compiled table exposes (0 = none).
  size_t table_keys = 0;
  /// The term compiles into the score-table kernels.
  bool compilable = false;
  /// Coordinatewise score dominance is (predicted to be) exact: flat
  /// Pareto with every column injective — the KLP75 precondition.
  bool dc_exact = false;
  /// Prioritized accumulation with a chain head over disjoint attributes
  /// (the Prop 11 cascade structure).
  bool chain_head = false;
  /// Distinct values of the chain head's attribute (0 = unknown).
  size_t head_distinct = 0;
  /// Estimated maxima count w — the BNL window / SFS survivor set size.
  double est_window = 1.0;
  /// est_window came from a sampled kernel probe, not the closed form.
  bool measured_window = false;

  std::string ToString() const;
};

/// Estimates term statistics from table statistics alone (no data
/// materialized): distinct projections from per-column distinct counts,
/// window width from the independence closed form, injectivity from
/// leaf kinds + column numeric-ness. `pool_rows` is the candidate pool
/// (WHERE survivors); pass stats.rows when unfiltered.
TermStats EstimateTermStats(const TableStats& stats, const PrefPtr& p,
                            size_t pool_rows);

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
