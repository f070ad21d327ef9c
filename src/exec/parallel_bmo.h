// Parallel partitioned BMO evaluation: split the distinct-value set into P
// contiguous partitions, compute local maxima per partition on the worker
// pool, then merge the union of local maxima with one final window pass.
//
// Correct for arbitrary strict partial orders:
//  - local maxima are a superset of global maxima (a globally maximal value
//    has no dominator anywhere, in particular none in its own partition);
//  - the merge pass removes every globally dominated candidate: if y <P x
//    held for any x in the input, walking x's dominator chain within its
//    partition ends at a local maximum that, by transitivity, still
//    dominates y.
//
// Execution shape (worker budget, partition floor, per-partition
// algorithm, kernel fields) comes from the PhysicalPlan
// (eval/physical_plan.h) — the same planned artifact every other
// execution path consumes.

#ifndef PREFDB_EXEC_PARALLEL_BMO_H_
#define PREFDB_EXEC_PARALLEL_BMO_H_

#include <string>
#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "relation/relation.h"

namespace prefdb {

class ScoreTable;

/// Maximal flags over `count` block rows, partition-parallel: the rows of
/// the caller's compiled `table`, or — when `table` is null — the closure
/// order over the distinct values at `values` bound against
/// `proj_schema`. `values` may be null when `table` is non-null: every
/// partition and merge pass then runs off the compiled matrix. Nothing
/// is compiled here. Consulted plan fields: num_threads (0 = hardware),
/// min_partition_size (inputs below two partitions run sequentially),
/// partition_algorithm (kAuto resolves data-aware), simd, bnl_tile_rows.
std::vector<bool> MaximaParallel(const Tuple* values, size_t count,
                                 const PrefPtr& p, const Schema& proj_schema,
                                 const PhysicalPlan& plan,
                                 const ScoreTable* table);

/// Kernel label of a kParallel plan over `table`: "parallel+" and the
/// variant each partition runs, resolved exactly as MaximaParallel
/// resolves partition_algorithm (kAuto via ScoreTable::ResolveAlgorithm).
std::string ParallelKernelVariant(const ScoreTable& table,
                                  const PhysicalPlan& plan);

/// σ[P](R) row indices (ascending) evaluated with the parallel engine
/// over one internal::CompileBlock block (plan.vectorize = false keeps
/// the closure path); same contract as BmoIndices().
std::vector<size_t> ParallelBmoIndices(const Relation& r, const PrefPtr& p,
                                       const PhysicalPlan& plan = {});

/// σ[P](R) evaluated with the parallel engine; preserves input row order
/// and duplicates like Bmo().
Relation ParallelBmo(const Relation& r, const PrefPtr& p,
                     const PhysicalPlan& plan = {});

}  // namespace prefdb

#endif  // PREFDB_EXEC_PARALLEL_BMO_H_
