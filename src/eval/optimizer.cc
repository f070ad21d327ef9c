#include "eval/optimizer.h"

#include <functional>
#include <stdexcept>

#include "core/complex_preferences.h"

namespace prefdb {

PhysicalPlan ChooseAlgorithm(const Relation& r, const PrefPtr& p,
                             const BmoOptions& options) {
  TableStats stats = TableStats::Derive(r, p->attributes());
  return ChooseAlgorithm(stats, r.size(), p, options);
}

PhysicalPlan ChooseAlgorithm(const TableStats& stats, size_t pool_rows,
                             const PrefPtr& p, const BmoOptions& options) {
  return PlanPhysical(EstimateTermStats(stats, p, pool_rows), options);
}

std::string OptimizedQuery::Explain() const {
  std::string out = "preference: " + original->ToString() + "\n";
  if (!rewrites.empty()) {
    out += "rewrites:\n";
    for (const RewriteStep& step : rewrites) {
      out += "  " + step.rule + ": " + step.before + " -> " + step.after +
             "\n";
    }
    out += "simplified: " + simplified->ToString() + "\n";
  } else {
    out += "rewrites: (none)\n";
  }
  out += plan.ExplainCosts();
  out += "algorithm: " + std::string(BmoAlgorithmName(plan.algorithm)) +
         " -- " + plan.rationale + "\n";
  return out;
}

namespace {

OptimizedQuery OptimizeWith(
    const PrefPtr& p,
    const std::function<PhysicalPlan(const PrefPtr&)>& choose) {
  OptimizedQuery out;
  out.original = p;
  out.simplified = Simplify(p, &out.rewrites);
  out.plan = choose(out.simplified);
  return out;
}

}  // namespace

OptimizedQuery Optimize(const Relation& r, const PrefPtr& p,
                        const BmoOptions& options) {
  return OptimizeWith(p, [&](const PrefPtr& simplified) {
    return ChooseAlgorithm(r, simplified, options);
  });
}

OptimizedQuery Optimize(const TableStats& stats, size_t pool_rows,
                        const PrefPtr& p, const BmoOptions& options) {
  return OptimizeWith(p, [&](const PrefPtr& simplified) {
    return ChooseAlgorithm(stats, pool_rows, simplified, options);
  });
}

Relation BmoOptimized(const Relation& r, const PrefPtr& p,
                      const BmoOptions& options) {
  OptimizedQuery optimized = Optimize(r, p, options);
  BmoOptions exec_options = options;
  exec_options.algorithm = optimized.plan.algorithm;
  return Bmo(r, optimized.simplified, exec_options);
}

}  // namespace prefdb
