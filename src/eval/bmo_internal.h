// Internals shared by eval/bmo.cc, the engine and the exec/ parallel
// engine: the one BMO block pipeline (compile -> plan -> run) and the
// maxima dispatch over a block of distinct projected values. Not part of
// the public API surface.

#ifndef PREFDB_EVAL_BMO_INTERNAL_H_
#define PREFDB_EVAL_BMO_INTERNAL_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "exec/score_table.h"
#include "relation/relation.h"

namespace prefdb::internal {

template <typename T>
size_t VectorBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// σ[P] over one candidate pool, compiled and planned: everything a run
/// reads, and nothing else. The engine caches one per ungrouped statement
/// and one per GROUPING group; Bmo/BmoGroupBy build them transiently.
struct CompiledBlock {
  /// The 32-bit row map from pool positions to table rows (or to
  /// `proj.values` on the closure path). Empty means identity: table row
  /// i is pool position i. `proj.values` and `proj.proj_schema` are set
  /// only when nothing compiled — the closure kernels read them.
  ProjectionIndex proj;
  std::optional<ScoreTable> table;
  PhysicalPlan plan;
  /// Part of CompileBlock's wall time spent planning (statistics + cost
  /// model), so callers can report it apart from compilation.
  uint64_t plan_ns = 0;

  /// True when the table was compiled over the pool's rows as they are
  /// (identity row map), false when over deduplicated representatives.
  bool identity() const { return proj.row_to_value.empty(); }
  /// Label of the kernel a run executes (QueryStats.kernel): the table's
  /// variant for the planned algorithm, "parallel+<partition variant>"
  /// under kParallel, "closure" when nothing compiled.
  std::string KernelVariant() const;
  /// Heap bytes: row map, the closure path's Tuples and their Value
  /// cells (string payloads past the inline buffer not counted) and the
  /// table.
  size_t HeapBytes() const;
};

/// Compiles and plans σ[P](R) over `rows` of `r` (null = every row):
///   1. when the request vectorizes and the term compiles, one
///      ScoreTable::Compile over the column store. Its one decision,
///      observed from the data by LikelyMostlyDistinct: compile the pool
///      as it is (identity row map), or deduplicate first — the pool is
///      then ComputeGroupCoding's representatives and the row map its
///      codes;
///   2. otherwise the closure path: the distinct projected Tuples of the
///      projection index;
///   3. kAuto plans with measured table statistics (a structural estimate
///      on the closure path) under `scope`; an explicit algorithm is a
///      pass-through plan. Without scope.allow_parallel, kParallel
///      becomes kAuto (the caller already fans out across blocks).
/// kDecomposition is relation-level: callers route it before this.
CompiledBlock CompileBlock(const Relation& r, const PrefPtr& p,
                           const std::vector<size_t>* rows,
                           const BmoOptions& options, const PlanScope& scope);

/// Runs a compiled block and appends the qualifying pool positions to
/// `out` as global rows through `rows` (null = identity), ascending.
void AppendMaximalRows(const PrefPtr& p, const CompiledBlock& block,
                       const std::vector<size_t>* rows,
                       std::vector<size_t>* out);

/// The grouped fan-out of σ[P groupby A](R): calls `group_maxima(g, out)`
/// for each of `num_groups` groups — across the shared pool when there is
/// more than one group, more than one thread, and the caller is not a
/// pool worker — and returns the union of the appended rows, sorted.
std::vector<size_t> GroupMaximalRows(
    size_t num_groups, size_t num_threads,
    const std::function<void(size_t, std::vector<size_t>*)>& group_maxima);

/// Closure-path maximal-value flags for the `count` values at `values`,
/// under p bound against proj_schema: the naive oracle for kNaive, the
/// BNL window for every other algorithm. Takes a raw range so
/// partition-parallel callers can evaluate contiguous slices without
/// copying tuples.
std::vector<bool> ComputeMaximaBlock(const Tuple* values, size_t count,
                                     const PrefPtr& p,
                                     const Schema& proj_schema,
                                     BmoAlgorithm algo);

/// Executes a planned block over an (optionally) compiled table — the
/// one dispatch every consumer shares: kParallel routes to the
/// partition-and-merge engine (handing the table in), a compiled table
/// runs its kernels directly, and a null table runs the closure path.
/// `values` may be null when `table` is non-null; every table-backed
/// path reads only `count`.
std::vector<bool> ExecuteBlockPlan(const Tuple* values, size_t count,
                                   const PrefPtr& p, const Schema& proj_schema,
                                   const ScoreTable* table,
                                   const PhysicalPlan& plan);

}  // namespace prefdb::internal

#endif  // PREFDB_EVAL_BMO_INTERNAL_H_
