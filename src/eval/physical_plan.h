// The physical plan: the single planned artifact the whole execution
// pipeline consumes. One PhysicalPlan replaces the planning state that
// used to be smeared across AlgorithmChoice (the optimizer's pick),
// KernelPolicy (SIMD mode + BNL tile size), ParallelBmoConfig (worker
// and partition shape) and the planning fields of BmoOptions: the
// optimizer emits it, eval/bmo + exec/score_table + exec/parallel_bmo
// execute it, and engine/engine caches it per (statement, table version,
// options).
//
// Plans are produced by a calibrated cost model (the paper's §7 outlook:
// "cost-based optimization to choose between direct implementations of
// the Pareto operator and divide & conquer algorithms"): per-algorithm
// cost formulas over TermStats (stats/stats.h) with constants calibrated
// from the PR 4 benchmark families (bench_skyline_algorithms kernel
// families; re-validated continuously by bench_planner's misprediction
// gate).

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

/// Which algorithm families the planner may consider. Block-level
/// planning (a single distinct-value block) excludes the relation-level
/// strategies; per-group and per-partition planning additionally exclude
/// nested parallelism.
struct PlanScope {
  bool allow_parallel = true;
  bool allow_decomposition = true;
};

/// The planned physical execution of one BMO evaluation.
struct PhysicalPlan {
  /// Chosen algorithm. kAuto only in pass-through plans built by
  /// FromOptions (per-block resolution then happens data-aware inside
  /// the kernels, exactly like the pre-plan behavior).
  BmoAlgorithm algorithm = BmoAlgorithm::kAuto;
  /// Compile into the score-table kernels when the term allows it.
  bool vectorize = true;
  /// Batch dominance kernel selection (exec/simd/dominance.h).
  SimdMode simd = SimdMode::kAuto;
  /// Blocked-BNL tile size; 0 = auto (L2-sized via BnlTileBudgetBytes).
  size_t bnl_tile_rows = 0;
  /// Worker budget (0 = hardware concurrency; FromOptions and the
  /// planner resolve it to a concrete count).
  size_t num_threads = 0;
  /// Advisory partition shape the cost model assumed for kParallel
  /// (1 = sequential). The executor re-derives the actual count from
  /// num_threads / min_partition_size / the live value count with the
  /// same formula; explicit pass-through requests leave this at 1.
  size_t partitions = 1;
  size_t min_partition_size = 4096;
  /// Per-partition algorithm for kParallel (kAuto = data-aware per
  /// partition, the default).
  BmoAlgorithm partition_algorithm = BmoAlgorithm::kAuto;

  /// The statistics the plan was costed against.
  TermStats stats;
  /// Estimated cost of the chosen algorithm (0 when not costed, e.g.
  /// explicit algorithm requests or pass-through plans).
  double estimated_ns = 0.0;
  /// The cost model's full comparison table (empty when not costed).
  std::vector<AlgorithmCost> considered;
  std::string rationale;

  /// Pass-through plan for callers that resolve the algorithm per block
  /// (per-group evaluation, partition fallbacks, direct kernel tests):
  /// carries the request's execution knobs, costs nothing.
  static PhysicalPlan FromOptions(const BmoOptions& options);

  /// Multi-line cost report: the stats line plus one line per considered
  /// algorithm (estimate or ineligibility), marking the choice. Empty
  /// string when the plan was not costed.
  std::string ExplainCosts() const;
};

/// Light structural statistics for a materialized distinct-value block
/// on the closure path (no compiled table): exact m and the closed-form
/// window estimate.
TermStats EstimateClosureBlockStats(size_t distinct_values,
                                    size_t input_rows, const PrefPtr& p);

/// Builds the plan for evaluating a term over a pool described by
/// `stats` (derive stats with EstimateTermStats or MeasureTermStats).
/// An explicit `request.algorithm` (!= kAuto) short-circuits the cost
/// comparison and is honored verbatim (kernels still degrade ineligible
/// requests exactly as before); kAuto runs the calibrated cost model
/// over every algorithm `scope` allows and picks the cheapest.
PhysicalPlan PlanPhysical(const TermStats& stats, const BmoOptions& request,
                          const PlanScope& scope = {});

/// Cost-model constants, calibrated from the PR 4 bench families on the
/// reference machine (see physical_plan.cc for the per-constant
/// derivation). Exposed for bench_planner and tests.
struct CostConstants {
  /// Per-(row pair, column) dominance test, by kernel class.
  double pair_closure_ns = 45.0;  // LessFn closure dispatch, per pair
  double pair_scalar_ns = 0.65;   // portable batch kernels
  double pair_avx2_ns = 0.32;     // AVX2 batch kernels
  /// Per-(element, key) presort comparison (SFS, compiled keys).
  double sort_key_ns = 20.0;
  /// Per-element closure sort (decomposition cascade's chain sort).
  double closure_sort_ns = 40.0;
  /// Early-exit window probes a presorted (dominated) candidate pays.
  double sfs_probe_rows = 6.0;
  /// KLP75 per-(element, log-level) constant (batch-kernel base cases).
  double dc_batch_ns = 3.2;
  /// Per-row streaming overhead of a window scan.
  double stream_row_ns = 2.0;
  /// Per-partition spawn/collect overhead of the parallel engine.
  double spawn_ns = 30000.0;
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
