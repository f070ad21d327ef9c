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

/// Maximal-value flags over a distinct-value set, partition-parallel.
/// Consulted plan fields: num_threads (0 = hardware), min_partition_size
/// (inputs below two partitions run sequentially), partition_algorithm
/// (kAuto resolves data-aware), vectorize, simd, bnl_tile_rows.
std::vector<bool> MaximaParallel(const std::vector<Tuple>& values,
                                 const PrefPtr& p, const Schema& proj_schema,
                                 const PhysicalPlan& plan = {});

/// Same, over a caller-supplied score table already compiled for exactly
/// these `values` (the engine's per-(relation version, term) cache hands
/// its table in so repeated runs skip recompilation). `precompiled` may be
/// null, in which case the table is compiled locally per plan.vectorize.
std::vector<bool> MaximaParallel(const std::vector<Tuple>& values,
                                 const PrefPtr& p, const Schema& proj_schema,
                                 const PhysicalPlan& plan,
                                 const ScoreTable* precompiled);

/// Raw-range core shared by both overloads. `values` may be null when
/// `precompiled` is non-null: with a table every partition and merge pass
/// runs off the compiled matrix, so the value block is never read (the
/// zero-copy columnar compile path has none).
std::vector<bool> MaximaParallel(const Tuple* values, size_t count,
                                 const PrefPtr& p, const Schema& proj_schema,
                                 const PhysicalPlan& plan,
                                 const ScoreTable* precompiled);

/// Kernel label of a kParallel plan over `table`: "parallel+" and the
/// variant each partition runs, resolved exactly as MaximaParallel
/// resolves partition_algorithm (kAuto via ScoreTable::ResolveAlgorithm).
std::string ParallelKernelVariant(const ScoreTable& table,
                                  const PhysicalPlan& plan);

/// σ[P](R) row indices (ascending) evaluated with the parallel engine;
/// same contract as BmoIndices().
std::vector<size_t> ParallelBmoIndices(const Relation& r, const PrefPtr& p,
                                       const PhysicalPlan& plan = {});

/// σ[P](R) evaluated with the parallel engine; preserves input row order
/// and duplicates like Bmo().
Relation ParallelBmo(const Relation& r, const PrefPtr& p,
                     const PhysicalPlan& plan = {});

}  // namespace prefdb

#endif  // PREFDB_EXEC_PARALLEL_BMO_H_
