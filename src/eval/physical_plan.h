// The physical plan: the single planned artifact the whole execution
// pipeline consumes — the algorithm, the kernel fields (SIMD mode, BNL
// tile size) and why the algorithm was picked. Every BMO block is planned
// from its own compiled table (internal::CompileBlock,
// eval/bmo_internal.h); eval/bmo + exec/score_table execute the plan on
// the caller's thread, and the engine's exec cache keeps the answer it
// produced per (statement, table version, options).
//
// The paper's §7 outlook asks the optimizer to choose between direct
// implementations of the Pareto operator. prefdb makes that choice while
// the kernel runs, not from an estimate: a kAuto plan on a compiled table
// with sort keys streams BNL and, once its window passes bounds derived
// from the block's row count and the rows streamed so far, presorts the
// window plus the rows not yet streamed and finishes as SFS
// (ScoreTable::Maxima, exec/score_table.h).
// What the pass ran (ScoreTable's MaximaRun) is what EXPLAIN reports. A
// term that does not compile has one kernel, the closure BNL window. The
// divide & conquer side of the §7 quote is the library evaluator in
// eval/decomposition.h, which no plan routes to.
//
// The cost constants left here price incremental view maintenance
// (ivm/maintained_view.h) against a reseed.

#ifndef PREFDB_EVAL_PHYSICAL_PLAN_H_
#define PREFDB_EVAL_PHYSICAL_PLAN_H_

#include <cstddef>
#include <string>

#include "eval/bmo.h"

namespace prefdb {

/// The planned physical execution of one BMO evaluation.
struct PhysicalPlan {
  /// kAuto: decided while the kernel runs (see above). CompileBlock
  /// resolves kAuto to kBlockNestedLoop on a block that cannot switch —
  /// a score chain, a table without sort keys, a term that does not
  /// compile. An explicit request is kept verbatim.
  BmoAlgorithm algorithm = BmoAlgorithm::kAuto;
  /// Batch dominance kernel selection (exec/simd/dominance.h).
  SimdMode simd = SimdMode::kAuto;
  /// Blocked-BNL tile size (and engagement threshold): candidates stream
  /// against the window while it holds fewer rows than this; beyond it,
  /// tiles are reduced to their local maxima in cache before touching the
  /// global window. 0 = auto (L2-sized via BnlTileBudgetBytes); >= the
  /// input size disables tiling. No request sets it: kernel benches and
  /// tests set it on the plan they hand to ScoreTable::Maxima.
  size_t bnl_tile_rows = 0;
  std::string rationale;

  /// Pass-through plan carrying the request's algorithm and kernel
  /// fields.
  static PhysicalPlan FromOptions(const BmoOptions& options);
};

/// Constants of the view-maintenance cost estimates below.
struct CostConstants {
  /// Per-(row pair, column) dominance test of the portable batch kernels.
  double pair_scalar_ns = 0.65;
  /// Per-row streaming overhead of a window scan.
  double stream_row_ns = 25.0;

  static const CostConstants& Get();
};

/// Estimated cost of one incremental view-maintenance pass
/// (ivm/maintained_view.h): a batch-kernel dominance pass of `batch`
/// touched rows (the inserted row, or the witness orphans of a delete)
/// against an antichain of `window` rows, plus witness re-assignment for
/// the dominated remainder. Scales with the *touched* set, not the table.
double EstimateViewMaintenanceNs(size_t window, size_t batch,
                                 const CostConstants& c = CostConstants::Get());

/// Estimated cost of reseeding the view from scratch instead: a full
/// maxima pass over all `rows` live candidates (window `window`). Delete
/// maintenance compares this against EstimateViewMaintenanceNs and takes
/// the cheaper path — when most witnesses die at once, orphan maintenance
/// degenerates to exactly this scan and reseeding is honest about it.
double EstimateViewReseedNs(size_t rows, size_t window,
                            const CostConstants& c = CostConstants::Get());

}  // namespace prefdb

#endif  // PREFDB_EVAL_PHYSICAL_PLAN_H_
