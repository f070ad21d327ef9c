// Cost formulas and constants.
//
// Calibration: kernel time of ScoreTable::Maxima (AVX2, one core, Release,
// a shared 4-vCPU Xeon host; min of 3-7 repetitions, median of 3 runs) on
// the bench_planner skylines (GenerateVectors, seed 42, d = 2..4) and the
// generated car and trip tables, at m = 4096, 8192, 20000 and 100000. w is
// the planner's window estimate, the sampled probe of MeasureTermStats.
//   BNL, narrow windows (w < 30): 0.10-0.26 ms at 4096 and 2.6-7.9 ms at
//     100k, i.e. 25-80 ns per candidate row whatever d -> stream_row_ns 25
//     (the scan call, the evict words and the Row() gather dominate).
//   BNL anti d4 at 100k: 125 ms with a final window of 2148 rows
//     -> ~0.3 ns per (pair, column) at the window's mean half-width:
//     pair_avx2_ns stays 0.32 (pair_scalar_ns keeps its 2x ratio).
//   SFS, narrow windows: 0.47-0.68 ms at 4096 and 24-29 ms at 100k, i.e.
//     ~13 ns per (element, key) comparison at m log2 m for the presort
//     alone. The one-sided scan's probes are data-dependent: a dominated
//     candidate pays 40-80 window probes on anti-correlated d3, 240-300
//     on anti d4, and nearly the whole window (0.7-1.4 w) on the car
//     3-d Pareto, whose summed key is ruled by its widest column.
//     sort_key_ns = 41 (with sfs_probe_rows 6) is the value that puts the
//     BNL/SFS crossover between the measured families with the widest
//     margin (1.14x):
//       anti d4, 4096:    BNL 6.76 ms, SFS 2.27 ms; est 2.72 / 2.37 -> sfs
//       anti d4, 100k:    BNL 125 ms,  SFS 53.7 ms; est 352 / 78.4 -> sfs
//       anti d3, 100k:    BNL 14.4 ms, SFS 31.1 ms; est 60.0 / 69.0 -> bnl
//       car 3-d, 100k:    BNL 32.8 ms, SFS 113 ms;  est 60.4 / 69.0 -> bnl
//     with the previous 20 ns the last two went to SFS. The one family the
//     formulas cannot place is anti d3 at 4096 (BNL 1.16 ms, SFS 0.86 ms):
//     it runs BNL.
//   A score chain (one LOWEST/HIGHEST column) runs BNL's one-level window:
//     0.03 ms at 4096 and 0.83 ms at 100k with 14,210 rows tied at the
//     top, priced as one streaming pass (stream_row_ns per row).
// bench_planner re-validates these continuously: the chosen plan must
// stay within 1.3x of the best measured algorithm on each family, at 4096
// rows and at 100k.

#include "eval/physical_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "exec/hardware.h"
#include "exec/simd/dominance.h"

namespace prefdb {

namespace {

enum class KernelClass { kScalar, kAvx2 };

const char* KernelClassName(KernelClass k) {
  switch (k) {
    case KernelClass::kScalar: return "scalar";
    case KernelClass::kAvx2: return "avx2";
  }
  return "?";
}

KernelClass ResolveKernelClass(const BmoOptions& request) {
  return std::string(simd::ResolveKernel(request.simd).name) == "avx2"
             ? KernelClass::kAvx2
             : KernelClass::kScalar;
}

/// Cost of one dominance test between two rows, by kernel class: the
/// compiled kernels scale with the column count.
double PairNs(const CostConstants& c, KernelClass k, double d) {
  return (k == KernelClass::kAvx2 ? c.pair_avx2_ns : c.pair_scalar_ns) * d;
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

PhysicalPlan PhysicalPlan::FromOptions(const BmoOptions& options) {
  PhysicalPlan plan;
  plan.algorithm = options.algorithm;
  plan.simd = options.simd;
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

PhysicalPlan PlanPhysical(const TermStats& stats, const BmoOptions& request) {
  PhysicalPlan plan = PhysicalPlan::FromOptions(request);
  plan.stats = stats;

  if (request.algorithm != BmoAlgorithm::kAuto) {
    plan.rationale = "algorithm explicitly requested";
    return plan;
  }
  if (!stats.compilable) {
    // Nothing compiled: the closure BNL window is the one kernel left.
    plan.algorithm = BmoAlgorithm::kBlockNestedLoop;
    plan.rationale = "no compiled table: closure BNL window";
    return plan;
  }

  const CostConstants& c = CostConstants::Get();
  const KernelClass kc = ResolveKernelClass(request);
  const double m = static_cast<double>(std::max<size_t>(1, stats.distinct_values));
  const double d = static_cast<double>(std::max<size_t>(1, stats.dims));
  const double w = std::max(1.0, stats.est_window);
  const double pair = PairNs(c, kc, d);

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
  // On a score chain the compiled window is one score level, decided
  // against one member: a single streaming pass, whatever the tie count.
  const bool one_level = stats.score_chain;
  double bnl_ns = c.stream_row_ns * m;
  if (!one_level) {
    bnl_ns += pair * m * w / 2.0;
    if (w > tile_rows) bnl_ns += pair * (m / tile_rows) * w;
  }
  costs.push_back({BmoAlgorithm::kBlockNestedLoop, true, bnl_ns,
                   one_level ? "one score level, one pass"
                             : "tiled SIMD batch window"});

  // --- SFS: presort by the table's topologically compatible keys, then
  // a one-sided scan — dominated candidates exit after a few probes,
  // survivors cross-test against the whole window.
  if (stats.table_keys > 0) {
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
          std::string(one_level ? "score chain: one-level BNL window, one pass"
                                : "tiled SIMD BNL window beats the alternatives") +
          " (" + summary + ")";
      break;
    case BmoAlgorithm::kSortFilter:
      plan.rationale =
          "large window favors presorting: SFS one-sided scan (" +
          std::string(summary) + ")";
      break;
    default:
      plan.rationale = summary;
      break;
  }
  return plan;
}

}  // namespace prefdb
