// The preference query optimizer front-end (the paper's §7 outlook:
// "heuristic transformations ..., cost-based optimization to choose
// between direct implementations of the Pareto operator and divide &
// conquer algorithms exploiting the decomposition principles"). The cost
// model chooses between the compiled kernels (BNL, SFS); the divide &
// conquer evaluator is a library function, eval/decomposition.h.
//
// Pipeline: algebraic simplification (Props 3/4a/6 rewrites, which
// preserve the BMO answer by Prop 7) -> statistics derivation
// (stats/stats.h: distinct counts, injectivity, estimated window width)
// -> the calibrated cost model (eval/physical_plan.h) -> one
// PhysicalPlan the whole execution pipeline consumes -> EXPLAIN report
// with the per-algorithm cost table.

#ifndef PREFDB_EVAL_OPTIMIZER_H_
#define PREFDB_EVAL_OPTIMIZER_H_

#include <string>
#include <vector>

#include "algebra/simplifier.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "stats/stats.h"

namespace prefdb {

/// Plans σ[P](R) from term structure and relation statistics: derives
/// TableStats (restricted to P's attributes), estimates TermStats, and
/// runs the cost model over every eligible algorithm (tiled-SIMD BNL,
/// SFS). A term that does not compile gets the uncosted closure BNL
/// plan. `options` supplies the kernel fields.
PhysicalPlan ChooseAlgorithm(const Relation& r, const PrefPtr& p,
                             const BmoOptions& options = {});

/// Same, over statistics the caller already maintains (the engine's
/// incremental per-table stats). `pool_rows` is the candidate pool size
/// (WHERE survivors; pass stats.rows when unfiltered).
/// A TableStats carrying only `rows` plans statistics-free: column
/// distinct counts then fall back to worst-case assumptions.
PhysicalPlan ChooseAlgorithm(const TableStats& stats, size_t pool_rows,
                             const PrefPtr& p, const BmoOptions& options = {});

/// A fully optimized query: simplified term, rewrite trace, physical
/// plan.
struct OptimizedQuery {
  PrefPtr original;
  PrefPtr simplified;
  std::vector<RewriteStep> rewrites;
  PhysicalPlan plan;

  /// Multi-line EXPLAIN text: rewrites, statistics, the per-algorithm
  /// cost table and the chosen algorithm with its rationale.
  std::string Explain() const;
};

OptimizedQuery Optimize(const Relation& r, const PrefPtr& p,
                        const BmoOptions& options = {});

/// Stats-based overload (see ChooseAlgorithm above).
OptimizedQuery Optimize(const TableStats& stats, size_t pool_rows,
                        const PrefPtr& p, const BmoOptions& options = {});

/// Optimizes and evaluates in one step (equivalent to Bmo() by Prop 7,
/// validated in optimizer_test). `options.algorithm` is ignored — the
/// cost model picks it — but the thread budget and kernel fields are
/// honored.
Relation BmoOptimized(const Relation& r, const PrefPtr& p,
                      const BmoOptions& options = {});

}  // namespace prefdb

#endif  // PREFDB_EVAL_OPTIMIZER_H_
