// Internals shared by eval/bmo.cc and the exec/ parallel engine: maxima
// computation over a block of distinct projected values, steered by a
// PhysicalPlan. Not part of the public API surface.

#ifndef PREFDB_EVAL_BMO_INTERNAL_H_
#define PREFDB_EVAL_BMO_INTERNAL_H_

#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"

namespace prefdb {
class ScoreTable;
}  // namespace prefdb

namespace prefdb::internal {

/// Maximal-value flags for the `count` values at `values`, under p bound
/// against proj_schema, executing `plan`: its algorithm (kAuto resolves
/// data-aware per block via the compiled table when plan.vectorize and
/// the term compiles), its vectorize switch and its kernel fields (SIMD
/// mode, BNL tile size). The closure path runs kNaive as requested and
/// BNL for everything else. Takes a raw range so partition-parallel
/// callers can evaluate contiguous slices without copying tuples.
/// kParallel and kDecomposition are relation-level strategies, not block
/// algorithms; they fall back to BNL here.
std::vector<bool> ComputeMaximaBlock(const Tuple* values, size_t count,
                                     const PrefPtr& p,
                                     const Schema& proj_schema,
                                     const PhysicalPlan& plan);

inline std::vector<bool> ComputeMaximaBlock(const std::vector<Tuple>& values,
                                            const PrefPtr& p,
                                            const Schema& proj_schema,
                                            const PhysicalPlan& plan) {
  return ComputeMaximaBlock(values.data(), values.size(), p, proj_schema,
                            plan);
}

/// Executes a planned block over an (optionally) precompiled table — the
/// one dispatch every consumer shares: kParallel routes to the
/// partition-and-merge engine (handing the table in), a compiled table
/// runs its kernels directly, and a null table falls back to the closure
/// path without re-attempting compilation. `values` may be null when
/// `table` is non-null (the zero-copy columnar compile has no
/// materialized value block); every table-backed path reads only `count`.
std::vector<bool> ExecuteBlockPlan(const Tuple* values, size_t count,
                                   const PrefPtr& p, const Schema& proj_schema,
                                   const ScoreTable* table,
                                   const PhysicalPlan& plan);

std::vector<bool> ExecuteBlockPlan(const std::vector<Tuple>& values,
                                   const PrefPtr& p, const Schema& proj_schema,
                                   const ScoreTable* table,
                                   const PhysicalPlan& plan);

}  // namespace prefdb::internal

#endif  // PREFDB_EVAL_BMO_INTERNAL_H_
