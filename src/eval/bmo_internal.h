// Internals shared by eval/bmo.cc and the engine: the one BMO block
// pipeline (compile -> plan -> run). Not part of the public API surface.

#ifndef PREFDB_EVAL_BMO_INTERNAL_H_
#define PREFDB_EVAL_BMO_INTERNAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "exec/score_table.h"
#include "relation/relation.h"

namespace prefdb::internal {

/// σ[P] over one candidate pool, compiled and planned: everything a run
/// reads, and nothing else. Built transiently, one per pool or group, by
/// Bmo/BmoGroupBy and by the engine's exec-cache build, which keeps only
/// the rows the run returns.
struct CompiledBlock {
  /// The 32-bit row map from pool positions to table rows (or to
  /// `proj.values` on the closure path). Empty means identity: table row
  /// i is pool position i. `proj.values` and `proj.proj_schema` are set
  /// only when nothing compiled — the closure kernels read them.
  ProjectionIndex proj;
  std::optional<ScoreTable> table;
  PhysicalPlan plan;

  /// True when the table was compiled over the pool's rows as they are
  /// (identity row map), false when over deduplicated representatives.
  bool identity() const { return proj.row_to_value.empty(); }
  /// Label of the kernel that finished `run` (QueryStats.kernel): the
  /// table's variant, "closure" when nothing compiled.
  std::string KernelVariant(const MaximaRun& run) const;
};

/// Compiles and plans σ[P](R) over `rows` of `r` (null = every row):
///   1. unless the request is kNaive or the term does not compile
///      (ScoreTable::CompilableTerm), one ScoreTable::Compile over the
///      column store. Its one decision, observed from the data by
///      LikelyMostlyDistinct: compile the pool as it is (identity row
///      map), or deduplicate first — the pool is then
///      ComputeGroupCoding's representatives and the row map its codes;
///   2. otherwise the closure path: the distinct projected Tuples of the
///      projection index, with a pass-through plan;
///   3. kAuto stays kAuto on a table that can switch from BNL to SFS
///      while it runs (ScoreTable::SwitchBound), and is BNL otherwise; an
///      explicit algorithm is a pass-through plan.
CompiledBlock CompileBlock(const Relation& r, const PrefPtr& p,
                           const std::vector<size_t>* rows,
                           const BmoOptions& options);

/// Runs a compiled block on the caller's thread — the table's kernels
/// when it compiled, else the closure path (MaximaNaive for kNaive,
/// MaximaBnl for every other request) — and appends the
/// qualifying pool positions to `out` as global rows through `rows`
/// (null = identity), ascending. Returns what the pass ran.
MaximaRun AppendMaximalRows(const PrefPtr& p, const CompiledBlock& block,
                            const std::vector<size_t>* rows,
                            std::vector<size_t>* out);

}  // namespace prefdb::internal

#endif  // PREFDB_EVAL_BMO_INTERNAL_H_
