#include "eval/physical_plan.h"

namespace prefdb {

const CostConstants& CostConstants::Get() {
  static const CostConstants constants;
  return constants;
}

double EstimateViewMaintenanceNs(size_t window, size_t batch,
                                 const CostConstants& c) {
  // Pairwise dominance of the touched batch against the antichain plus
  // among itself (the orphan set can contain mutual dominators), at the
  // batch-kernel rate, plus per-row stream overhead and one witness probe
  // (expected half-window scan) per dominated batch row.
  const double pairs = static_cast<double>(batch) *
                       (static_cast<double>(window) +
                        static_cast<double>(batch) / 2.0);
  return pairs * c.pair_scalar_ns +
         static_cast<double>(batch) *
             (c.stream_row_ns + static_cast<double>(window) / 2.0 *
                                    c.pair_scalar_ns);
}

double EstimateViewReseedNs(size_t rows, size_t window,
                            const CostConstants& c) {
  // A BNL-shaped full pass: every live candidate streams against the
  // window, dominated candidates additionally pay a witness probe.
  const double n = static_cast<double>(rows);
  const double w = static_cast<double>(window == 0 ? 1 : window);
  return n * w * c.pair_scalar_ns + n * c.stream_row_ns +
         n * w / 2.0 * c.pair_scalar_ns;
}

PhysicalPlan PhysicalPlan::FromOptions(const BmoOptions& options) {
  PhysicalPlan plan;
  plan.algorithm = options.algorithm;
  plan.simd = options.simd;
  return plan;
}

}  // namespace prefdb
