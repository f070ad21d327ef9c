#include "eval/optimizer.h"

#include "eval/bmo_internal.h"

namespace prefdb {

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
  out += "algorithm: " + std::string(BmoAlgorithmName(plan.algorithm)) +
         " -- " + plan.rationale + "\n";
  return out;
}

OptimizedQuery Optimize(const Relation& r, const PrefPtr& p,
                        const BmoOptions& options) {
  OptimizedQuery out;
  out.original = p;
  out.simplified = Simplify(p, &out.rewrites);
  out.plan = internal::CompileBlock(r, out.simplified, nullptr, options).plan;
  return out;
}

Relation BmoOptimized(const Relation& r, const PrefPtr& p,
                      const BmoOptions& options) {
  BmoOptions auto_options = options;
  auto_options.algorithm = BmoAlgorithm::kAuto;
  return Bmo(r, Simplify(p), auto_options);
}

}  // namespace prefdb
