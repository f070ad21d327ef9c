// Cost formulas and constants.
//
// Calibration (PR 4 bench families, bench/baselines/BENCH_kernels.json,
// Release, one core; m = 4096 distinct values):
//   BNL anti d4:  scalar 8.04ms / AVX2 4.05ms with a measured window
//                 ~1.5k rows -> per-(pair, column) costs of ~0.65 /
//                 0.32 ns (cost = c * d * m * w/2).
//   DC indep d4:  AVX2 base cases 1.88ms
//                 -> c_dc * m * log2(m)^(d-2) with c_dc ~3.2 ns.
//   SFS anti d4:  AVX2 1.46ms = presort (~20 ns per (element, key)
//                 comparison at m log2 m) + the one-sided scan, which
//                 costs early-exit probes for dominated candidates plus
//                 ~w^2/4 survivor cross-tests.
// bench_planner re-validates these continuously: the chosen plan must
// stay within 1.3x of the best measured algorithm on each family.

#include "eval/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "exec/hardware.h"
#include "exec/simd/dominance.h"

namespace prefdb {

namespace {

enum class KernelClass { kClosure, kScalar, kAvx2 };

const char* KernelClassName(KernelClass k) {
  switch (k) {
    case KernelClass::kClosure: return "closure";
    case KernelClass::kScalar: return "scalar";
    case KernelClass::kAvx2: return "avx2";
  }
  return "?";
}

KernelClass ResolveKernelClass(const TermStats& stats,
                               const BmoOptions& request) {
  if (!request.vectorize || !stats.compilable) return KernelClass::kClosure;
  return std::string(simd::ResolveKernel(request.simd).name) == "avx2"
             ? KernelClass::kAvx2
             : KernelClass::kScalar;
}

/// Cost of one dominance test between two rows, by kernel class. The
/// compiled kernels scale with the column count; the closure path pays
/// per-node std::function dispatch with a milder tree-size factor.
double PairNs(const CostConstants& c, KernelClass k, double d) {
  switch (k) {
    case KernelClass::kClosure: return c.pair_closure_ns + 8.0 * d;
    case KernelClass::kScalar: return c.pair_scalar_ns * d;
    case KernelClass::kAvx2: return c.pair_avx2_ns * d;
  }
  return c.pair_closure_ns;
}

double Log2(double x) { return std::log2(std::max(2.0, x)); }

std::string FmtMs(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", ns / 1e6);
  return buf;
}

}  // namespace

const CostConstants& CostConstants::Get() {
  static const CostConstants constants = [] {
    CostConstants c;
    c.bnl_tile_budget_bytes = BnlTileBudgetBytes();
    return c;
  }();
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

TermStats EstimateClosureBlockStats(size_t distinct_values,
                                    size_t input_rows, const PrefPtr& p) {
  TermStats stats;
  stats.input_rows = input_rows;
  stats.distinct_values = distinct_values;
  stats.dims = std::max<size_t>(1, p->attributes().size());
  stats.est_window = WindowClosedForm(distinct_values, stats.dims);
  return stats;
}

PhysicalPlan PhysicalPlan::FromOptions(const BmoOptions& options) {
  PhysicalPlan plan;
  plan.algorithm = options.algorithm;
  plan.vectorize = options.vectorize;
  plan.simd = options.simd;
  plan.bnl_tile_rows = options.bnl_tile_rows;
  return plan;
}

std::string PhysicalPlan::ExplainCosts() const {
  if (considered.empty()) return "";
  std::string out = "stats: " + stats.ToString() + "\n";
  out += "cost model:\n";
  for (const AlgorithmCost& c : considered) {
    out += "  " + std::string(BmoAlgorithmName(c.algorithm)) + ": ";
    if (c.eligible) {
      out += "est " + FmtMs(c.est_ns);
      if (c.algorithm == algorithm) out += "  <- chosen";
      if (!c.note.empty()) out += "  (" + c.note + ")";
    } else {
      out += "not eligible (" + c.note + ")";
    }
    out += "\n";
  }
  return out;
}

PhysicalPlan PlanPhysical(const TermStats& stats, const BmoOptions& request,
                          const PlanScope& scope) {
  PhysicalPlan plan = PhysicalPlan::FromOptions(request);
  plan.stats = stats;

  if (request.algorithm != BmoAlgorithm::kAuto) {
    plan.rationale = "algorithm explicitly requested";
    return plan;
  }

  const CostConstants& c = CostConstants::Get();
  const KernelClass kc = ResolveKernelClass(stats, request);
  const double m = static_cast<double>(std::max<size_t>(1, stats.distinct_values));
  const double d = static_cast<double>(std::max<size_t>(1, stats.dims));
  const double w = std::max(1.0, stats.est_window);
  const double pair = PairNs(c, kc, d);
  const bool compiled = kc != KernelClass::kClosure;

  std::vector<AlgorithmCost>& costs = plan.considered;

  // --- BNL: every candidate streams against a window of current maxima
  // (average size ~w/2). Once the window outgrows the machine's measured
  // tile budget (runtime-detected L2, exec/hardware.h), the blocked loop
  // pays one reduce-then-merge pass per tile: ~w survivor cross-tests
  // each, on top of the cache-resident streaming.
  // Mirrors ScoreTable::ResolveTileRows, including its [1024, 16384]
  // clamp, so the modeled tiling penalty matches the kernel's real tile.
  const double tile_rows = std::min(
      16384.0,
      std::max(1024.0,
               static_cast<double>(c.bnl_tile_budget_bytes) /
                   (d * (sizeof(double) + sizeof(uint32_t)) + sizeof(size_t))));
  double bnl_ns = pair * m * std::max(1.0, w) / 2.0 + c.stream_row_ns * m;
  if (w > tile_rows) bnl_ns += pair * (m / tile_rows) * w;
  costs.push_back({BmoAlgorithm::kBlockNestedLoop, true, bnl_ns,
                   compiled ? "tiled SIMD batch window" : "window scan"});

  // --- SFS: presort by the table's topologically compatible keys, then
  // a one-sided scan — dominated candidates exit after a few probes,
  // survivors cross-test against the whole window.
  if (!compiled) {
    costs.push_back({BmoAlgorithm::kSortFilter, false, 0.0,
                     "closure path runs BNL only"});
  } else if (stats.table_keys > 0) {
    const double sort_ns = c.sort_key_ns *
                           static_cast<double>(stats.table_keys) * m *
                           Log2(m);
    const double scan_ns = pair * (m * c.sfs_probe_rows + w * w / 4.0);
    costs.push_back({BmoAlgorithm::kSortFilter, true, sort_ns + scan_ns,
                     "presort + one-sided window"});
  } else {
    costs.push_back({BmoAlgorithm::kSortFilter, false, 0.0,
                     "no topologically compatible sort keys"});
  }

  // --- KLP75 divide & conquer: exact only when coordinatewise score
  // dominance is the preference order (flat Pareto, injective columns).
  if (!compiled) {
    costs.push_back({BmoAlgorithm::kDivideConquer, false, 0.0,
                     "closure path runs BNL only"});
  } else if (stats.dc_exact) {
    const double dc_ns =
        c.dc_batch_ns * m * std::pow(Log2(m), std::max(1.0, d - 2.0));
    costs.push_back({BmoAlgorithm::kDivideConquer, true, dc_ns,
                     "KLP75 recursion"});
  } else {
    costs.push_back({BmoAlgorithm::kDivideConquer, false, 0.0,
                     "score dominance not exact (non-injective or "
                     "prioritized term)"});
  }

  // --- Prop 11 decomposition cascade: sort once by the chain head, then
  // evaluate the submodel only on the head's best block (closure path).
  if (!scope.allow_decomposition) {
    costs.push_back({BmoAlgorithm::kDecomposition, false, 0.0,
                     "relation-level strategy not available here"});
  } else if (stats.chain_head) {
    const double m_sub =
        m / static_cast<double>(std::max<size_t>(1, stats.head_distinct));
    const double decomp_ns =
        c.closure_sort_ns * m * Log2(m) +
        PairNs(c, KernelClass::kClosure, d) * std::max(1.0, m_sub) *
            std::max(1.0, w) / 2.0 +
        c.stream_row_ns * m;
    costs.push_back({BmoAlgorithm::kDecomposition, true, decomp_ns,
                     "Prop 11 cascade (chain head)"});
  } else {
    costs.push_back({BmoAlgorithm::kDecomposition, false, 0.0,
                     "no prioritized chain head"});
  }

  // Pick the cheapest eligible algorithm.
  const AlgorithmCost* chosen = nullptr;
  for (const AlgorithmCost& cost : costs) {
    if (cost.eligible && (chosen == nullptr || cost.est_ns < chosen->est_ns)) {
      chosen = &cost;
    }
  }
  plan.algorithm = chosen->algorithm;
  plan.estimated_ns = chosen->est_ns;

  char summary[192];
  std::snprintf(summary, sizeof(summary),
                "m=%zu window~%.0f%s, %s kernels: est %s", stats.distinct_values,
                w, stats.measured_window ? " (sampled)" : "",
                KernelClassName(kc), FmtMs(plan.estimated_ns).c_str());
  switch (plan.algorithm) {
    case BmoAlgorithm::kBlockNestedLoop:
      plan.rationale =
          std::string(compiled
                          ? "tiled SIMD BNL window beats the alternatives"
                          : "generic BNL window scan is cheapest") +
          " (" + summary + ")";
      break;
    case BmoAlgorithm::kSortFilter:
      plan.rationale =
          "large window favors presorting: SFS one-sided scan (" +
          std::string(summary) + ")";
      break;
    case BmoAlgorithm::kDivideConquer:
      plan.rationale =
          "KLP75 divide & conquer wins on exact score dominance (" +
          std::string(summary) + ")";
      break;
    case BmoAlgorithm::kDecomposition:
      plan.rationale =
          "selective chain head: Prop 11 cascade evaluation (" +
          std::string(summary) + ")";
      break;
    default:
      plan.rationale = summary;
      break;
  }
  return plan;
}

}  // namespace prefdb
