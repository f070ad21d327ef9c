// The physical plan: the single planned artifact the whole execution
// pipeline consumes — the algorithm, the kernel fields (SIMD mode, BNL
// tile size) and the cost model's report. Every BMO block is planned
// from its own compiled table (internal::CompileBlock,
// eval/bmo_internal.h); eval/bmo + exec/score_table execute the plan on
// the caller's thread, and the engine's exec cache keeps the answer it
// produced per (statement, table version, options).
//
// Plans are produced by a calibrated cost model (the paper's §7 outlook:
// "cost-based optimization to choose between direct implementations of
// the Pareto operator and divide & conquer algorithms"): per-algorithm
// cost formulas for the compiled score-table kernels (BNL, SFS) over
// TermStats (stats/stats.h), with constants calibrated from measured
// kernel times (re-validated continuously by bench_planner's
// misprediction gate). The divide & conquer side of that quote is the
// library evaluator in eval/decomposition.h, which the planner does not
// route to; a term that does not compile has one kernel, the closure
// BNL window, and gets a pass-through plan.

#ifndef PREFDB_EVAL_PHYSICAL_PLAN_H_
#define PREFDB_EVAL_PHYSICAL_PLAN_H_

#include <string>
#include <vector>

#include "eval/bmo.h"
#include "stats/stats.h"

namespace prefdb {

/// One row of the cost model's comparison table: the estimate (or the
/// reason for ineligibility) of a candidate algorithm.
struct AlgorithmCost {
  BmoAlgorithm algorithm = BmoAlgorithm::kBlockNestedLoop;
  bool eligible = false;
  double est_ns = 0.0;
  std::string note;  // ineligibility reason or formula driver summary
};

/// The planned physical execution of one BMO evaluation.
struct PhysicalPlan {
  /// Chosen algorithm. kAuto only in pass-through plans built by
  /// FromOptions (per-block resolution then happens data-aware inside
  /// the kernels, exactly like the pre-plan behavior).
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

  /// The statistics the plan was costed against.
  TermStats stats;
  /// Estimated cost of the chosen algorithm (0 when not costed, e.g.
  /// explicit algorithm requests or pass-through plans).
  double estimated_ns = 0.0;
  /// The cost model's full comparison table (empty when not costed).
  std::vector<AlgorithmCost> considered;
  std::string rationale;

  /// Pass-through plan for callers that resolve the algorithm per block
  /// (explicit algorithm requests, direct kernel tests): carries the
  /// request's execution knobs, costs nothing.
  static PhysicalPlan FromOptions(const BmoOptions& options);

  /// Multi-line cost report: the stats line plus one line per considered
  /// algorithm (estimate or ineligibility), marking the choice. Empty
  /// string when the plan was not costed.
  std::string ExplainCosts() const;
};

/// Builds the plan for evaluating a term over a pool described by
/// `stats` (MeasureTermStats over the block's compiled table; default
/// stats for a block that did not compile).
/// An explicit `request.algorithm` (!= kAuto) short-circuits the cost
/// comparison and is honored verbatim (kernels still degrade ineligible
/// requests exactly as before). kAuto on a compilable term runs the
/// calibrated cost model over BNL and SFS and picks the cheaper; on a
/// term that does not compile it plans the closure BNL window, uncosted.
PhysicalPlan PlanPhysical(const TermStats& stats, const BmoOptions& request);

/// Cost-model constants, calibrated from measured kernel times at 4096 and
/// 100k rows (see physical_plan.cc for the per-constant derivation).
/// Exposed for bench_planner and tests.
struct CostConstants {
  /// Per-(row pair, column) dominance test, by kernel class.
  double pair_scalar_ns = 0.65;   // portable batch kernels
  double pair_avx2_ns = 0.32;     // AVX2 batch kernels
  /// Per-(element, key) presort comparison (SFS, compiled keys), plus
  /// the one-sided scan's per-row cost that does not grow with the
  /// window.
  double sort_key_ns = 41.0;
  /// Early-exit window probes a presorted (dominated) candidate pays.
  double sfs_probe_rows = 6.0;
  /// Per-row streaming overhead of a window scan.
  double stream_row_ns = 25.0;
  /// The blocked-BNL tile budget measured from the machine's L2 cache at
  /// startup (exec/hardware.h). Windows wider than the rows this budget
  /// holds pay the tile-reduce-then-merge passes, modeled as extra
  /// survivor merges per tile.
  size_t bnl_tile_budget_bytes = 256 * 1024;

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
