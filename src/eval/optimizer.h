// The preference query optimizer front-end (the paper's §7 outlook:
// "heuristic transformations ..., cost-based optimization to choose
// between direct implementations of the Pareto operator and divide &
// conquer algorithms exploiting the decomposition principles"). The
// choice between the compiled kernels (BNL, SFS) is made while the
// kernel runs (ScoreTable::Maxima under kAuto, exec/score_table.h); the
// divide & conquer evaluator is a library function, eval/decomposition.h.
//
// Pipeline: algebraic simplification (Props 3/4a/6 rewrites, which
// preserve the BMO answer by Prop 7) -> the block pipeline every BMO
// evaluation runs (internal::CompileBlock, eval/bmo_internal.h): compile
// the score table and plan it -> one PhysicalPlan -> EXPLAIN report. The
// plan EXPLAIN shows is the plan that runs; the engine's EXPLAIN adds
// where the run switched from BNL to SFS.

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

  /// Multi-line EXPLAIN text: rewrites and the planned algorithm with
  /// its rationale.
  std::string Explain() const;
};

/// Simplifies `p`, then plans σ[simplified](R) exactly as Bmo does: the
/// plan of the compiled block over every row of `r`. An explicit
/// `options.algorithm` is honored verbatim (pass-through plan).
OptimizedQuery Optimize(const Relation& r, const PrefPtr& p,
                        const BmoOptions& options = {});

/// Simplifies and evaluates in one step (equivalent to Bmo() by Prop 7,
/// validated in optimizer_test). `options.algorithm` is ignored — kAuto
/// picks the kernel while it runs — but the kernel fields are honored.
Relation BmoOptimized(const Relation& r, const PrefPtr& p,
                      const BmoOptions& options = {});

}  // namespace prefdb

#endif  // PREFDB_EVAL_OPTIMIZER_H_
