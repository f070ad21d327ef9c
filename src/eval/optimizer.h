// The preference query optimizer front-end (the paper's §7 outlook:
// "heuristic transformations ..., cost-based optimization to choose
// between direct implementations of the Pareto operator and divide &
// conquer algorithms exploiting the decomposition principles"). The cost
// model chooses between the compiled kernels (BNL, SFS); the divide &
// conquer evaluator is a library function, eval/decomposition.h.
//
// Pipeline: algebraic simplification (Props 3/4a/6 rewrites, which
// preserve the BMO answer by Prop 7) -> the block pipeline every BMO
// evaluation runs (internal::CompileBlock, eval/bmo_internal.h): compile
// the score table, measure its statistics (stats/stats.h: distinct
// counts, injectivity, sampled window width), run the calibrated cost
// model (eval/physical_plan.h) -> one PhysicalPlan -> EXPLAIN report with
// the per-algorithm cost table. The plan EXPLAIN shows is the plan that
// runs.

#ifndef PREFDB_EVAL_OPTIMIZER_H_
#define PREFDB_EVAL_OPTIMIZER_H_

#include <string>
#include <vector>

#include "algebra/simplifier.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"

namespace prefdb {

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

/// Simplifies `p`, then plans σ[simplified](R) exactly as Bmo does: the
/// plan of the compiled block over every row of `r`. An explicit
/// `options.algorithm` is honored verbatim (uncosted pass-through plan).
OptimizedQuery Optimize(const Relation& r, const PrefPtr& p,
                        const BmoOptions& options = {});

/// Simplifies and evaluates in one step (equivalent to Bmo() by Prop 7,
/// validated in optimizer_test). `options.algorithm` is ignored — the
/// cost model picks it — but the kernel fields are honored.
Relation BmoOptimized(const Relation& r, const PrefPtr& p,
                      const BmoOptions& options = {});

}  // namespace prefdb

#endif  // PREFDB_EVAL_OPTIMIZER_H_
