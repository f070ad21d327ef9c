// BMO ("Best Matches Only") preference query evaluation (Kießling §5):
//   σ[P](R)            = { t in R | t[A] in max(P_R) }          (Def. 15)
//   σ[P groupby A](R)  = σ[A<-> & P](R)                          (Def. 16)
//
// Algorithms:
//   kNaive           exhaustive O(m^2) better-than tests over distinct
//                    projections (the paper's baseline, §5.1)
//   kBlockNestedLoop BNL window algorithm [BKS01], generalized to arbitrary
//                    strict partial orders
//   kSortFilter      SFS-style: presort by the compiled score table's
//                    topologically compatible sort keys, then a one-sided
//                    window scan; falls back to BNL when no keys exist
//   kDivideConquer   the maxima algorithm of [KLP75] over compiled score
//                    columns; applies when coordinatewise score dominance
//                    is the preference order (the 'SKYLINE OF' fragment,
//                    §6.1); falls back to BNL otherwise
//   kDecomposition   divide & conquer via the decomposition theorems
//                    Props 8-12 (see eval/decomposition.h)
//   kParallel        partition-and-merge parallel evaluation on a worker
//                    pool (see exec/parallel_bmo.h); each partition runs
//                    the table's data-aware algorithm (D&C on exact
//                    flat-Pareto tables)
//   kAuto            cost-based: the statistics subsystem (stats/stats.h)
//                    measures the block (distinct counts, injectivity, a
//                    sampled window probe) and the calibrated cost model
//                    (eval/physical_plan.h) picks the cheapest eligible
//                    plan. (kDecomposition is never auto-picked at block
//                    level; the optimizer in eval/optimizer.h routes it
//                    before the block is materialized.)
//
// kSortFilter and kDivideConquer run only on compiled score tables
// (exec/score_table.h). Terms that do not compile, and vectorize = false,
// evaluate through the preference's closures with two algorithms: kNaive
// (the reference oracle every other path is tested against) and BNL, to
// which every other request degrades.
//
// One pipeline: every evaluation — Bmo, each group of BmoGroupBy, and the
// engine's cached statements (engine/engine.h) — compiles one block per
// candidate pool through internal::CompileBlock (eval/bmo_internal.h):
// one score-table compile over the column store — of the pool as it is,
// or of its deduplicated representatives under heavy duplication — then
// plans it.
// Grouping is that evaluation run once per group, fanned out across the
// worker pool.

#ifndef PREFDB_EVAL_BMO_H_
#define PREFDB_EVAL_BMO_H_

#include <cstdint>
#include <vector>

#include "core/preference.h"
#include "relation/relation.h"

namespace prefdb {

enum class BmoAlgorithm {
  kAuto,
  kNaive,
  kBlockNestedLoop,
  kSortFilter,
  kDivideConquer,
  kDecomposition,
  kParallel,
};

/// The algorithm's SQL/wire name ("auto", "bnl", "dc", ...); "?" for a
/// value past the last enumerator.
const char* BmoAlgorithmName(BmoAlgorithm algo);

/// Which batch dominance kernel the compiled score-table paths run
/// (exec/simd/dominance.h). Only meaningful when `vectorize` is on; the
/// closure path is always scalar.
enum class SimdMode : uint8_t {
  /// Runtime dispatch: AVX2 when the build and CPU support it, else the
  /// portable batch kernels.
  kAuto,
  /// Force the portable 4-lane batch kernels (no AVX2 even if available).
  kScalar,
  /// Force AVX2; degrades to kScalar when the build or CPU lacks it.
  kAvx2,
};

/// The mode's SQL/wire name ("auto", "scalar", "avx2"); "?" for a value
/// past the last enumerator.
const char* SimdModeName(SimdMode mode);

/// The caller-facing execution *request*. These knobs are inputs to the
/// planner: every execution path consumes them only through the
/// PhysicalPlan (eval/physical_plan.h) the cost model derives from them
/// (PhysicalPlan::FromOptions for explicit algorithms / pass-through
/// paths).
struct BmoOptions {
  BmoAlgorithm algorithm = BmoAlgorithm::kAuto;
  /// Worker threads for kParallel (0 = hardware concurrency).
  size_t num_threads = 0;
  /// kParallel becomes *eligible* for kAuto at/above this many distinct
  /// values (the cost model still compares it against the sequential
  /// plans); set to SIZE_MAX to opt out of auto-parallelism.
  size_t parallel_threshold = 32768;
  /// Compile the term into the vectorized score-table kernels
  /// (exec/score_table.h) when possible; terms that do not compile fall
  /// back to the closure path regardless. Off = always closures (naive
  /// or BNL; the baseline for equivalence tests and benchmarks).
  bool vectorize = true;
  /// Dominance-kernel implementation for the compiled paths.
  SimdMode simd = SimdMode::kAuto;
  /// Tile size (and engagement threshold) for the blocked BNL window
  /// loop: candidates stream against the window while it holds fewer
  /// rows than this; beyond it, tiles are reduced to their local maxima
  /// in cache before touching the global window. 0 = auto-size so the
  /// window stays L2-resident; >= the input size disables tiling.
  size_t bnl_tile_rows = 0;
};

/// Evaluates σ[P](R); preserves input row order and duplicates (a tuple
/// qualifies iff its projection onto P's attributes is maximal).
Relation Bmo(const Relation& r, const PrefPtr& p, const BmoOptions& options = {});

/// Same, returning the qualifying row indices sorted ascending.
std::vector<size_t> BmoIndices(const Relation& r, const PrefPtr& p,
                               const BmoOptions& options = {});

/// Evaluates σ[P groupby A](R) (Def. 16): grouping by equal A-values
/// (GroupRowsBy), then σ[P] per group — in parallel across groups when
/// there are several (a single group keeps kParallel inside its block).
Relation BmoGroupBy(const Relation& r, const PrefPtr& p,
                    const std::vector<std::string>& group_attrs,
                    const BmoOptions& options = {});
std::vector<size_t> BmoGroupByIndices(const Relation& r, const PrefPtr& p,
                                      const std::vector<std::string>& group_attrs,
                                      const BmoOptions& options = {});

/// size(P, R) = card(π_A(σ[P](R))) (Def. 18): the number of distinct
/// best-matching value combinations.
size_t ResultSize(const Relation& r, const PrefPtr& p,
                  const BmoOptions& options = {});

/// True iff tuple t is a *perfect match* for P in R (Def. 14b): its
/// projection is maximal in the full domain order, i.e. no conceivable
/// value combination beats it. Checked over the candidate universe
/// `universe` (pass domain enumerations for exact semantics).
bool IsPerfectMatch(const Tuple& t, const Relation& r, const PrefPtr& p,
                    const std::vector<Tuple>& universe);

// --- Internals shared by the algorithm implementations and benchmarks. ---

/// Distinct projections of R onto P's attributes plus row mapping. When
/// `rows` is given, only that row subset is indexed (row_to_value then
/// maps positions within `rows`), used by per-group evaluation. The row
/// map holds the 32-bit equality codes ComputeGroupCoding assigns.
struct ProjectionIndex {
  Schema proj_schema;                   // schema of the projected columns
  std::vector<Tuple> values;            // distinct projections ("R[A]")
  std::vector<uint32_t> row_to_value;   // row index -> values index
};

ProjectionIndex BuildProjectionIndex(const Relation& r, const Preference& p,
                                     const std::vector<size_t>* rows = nullptr);

/// Maximal-value flags over a distinct-value set under a bound order.
std::vector<bool> MaximaNaive(const std::vector<Tuple>& values,
                              const LessFn& less);
std::vector<bool> MaximaBnl(const std::vector<Tuple>& values,
                            const LessFn& less);

namespace simd {
struct KernelOps;
}  // namespace simd

/// [KLP75] divide & conquer over a flat row-major matrix of to-maximize
/// scores: row i is the `d` doubles at `scores + i * stride`. Exact iff
/// the preference order equals coordinatewise score dominance
/// (ScoreTable::CanDivideConquer). The quadratic base-case blocks run
/// through the batch dominance `kernel` (exec/simd/dominance.h).
std::vector<bool> MaximaDivideConquerFlat(const double* scores, size_t n,
                                          size_t d, size_t stride,
                                          const simd::KernelOps& kernel);

}  // namespace prefdb

#endif  // PREFDB_EVAL_BMO_H_
