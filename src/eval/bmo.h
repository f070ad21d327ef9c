// BMO ("Best Matches Only") preference query evaluation (Kießling §5):
//   σ[P](R)            = { t in R | t[A] in max(P_R) }          (Def. 15)
//   σ[P groupby A](R)  = σ[A<-> & P](R)                          (Def. 16)
//
// Algorithms:
//   kNaive           exhaustive O(m^2) better-than tests through the
//                    preference's closures over distinct projections (the
//                    paper's baseline, §5.1): the reference oracle every
//                    other path is tested against
//   kBlockNestedLoop BNL window algorithm [BKS01], generalized to arbitrary
//                    strict partial orders
//   kSortFilter      SFS-style: presort by the compiled score table's
//                    topologically compatible sort keys, then a one-sided
//                    window scan; falls back to BNL when no keys exist
//   kAuto            decided while it runs: BNL streams, and once its
//                    window is wide it hands the window plus the rows not
//                    yet streamed to SFS (ScoreTable::Maxima,
//                    exec/score_table.h); BNL throughout where SFS does
//                    not apply.
//
// Every request but kNaive runs on a compiled score table
// (exec/score_table.h) when the term compiles. A term that does not
// compile (SUBSET, LINEAR_SUM, non-weak-order EXPLICIT, user subclasses)
// runs the closure BNL window (MaximaBnl) whatever the request. The
// paper's divide & conquer evaluator (Props 8-12) is a library function
// of its own, eval/decomposition.h.
//
// One pipeline: every evaluation — Bmo, each group of BmoGroupBy, and the
// engine's exec-cache builds (engine/engine.h) — compiles one block per
// candidate pool through internal::CompileBlock (eval/bmo_internal.h):
// one score-table compile over the column store — of the pool as it is,
// or of its deduplicated representatives under heavy duplication — then
// plans it.
// Grouping is that evaluation run once per group, in a plain loop.
// Every evaluation runs on its caller's thread: a server's workers are
// its only parallelism.

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
};

/// The algorithm's SQL/wire name ("auto", "bnl", "sfs", ...); "?" for a
/// value past the last enumerator.
const char* BmoAlgorithmName(BmoAlgorithm algo);

/// Which batch dominance kernel the compiled score-table paths run
/// (exec/simd/dominance.h). The closure paths (kNaive, terms that do not
/// compile) ignore it.
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
/// PhysicalPlan (eval/physical_plan.h) built from them.
struct BmoOptions {
  BmoAlgorithm algorithm = BmoAlgorithm::kAuto;
  /// Dominance-kernel implementation for the compiled paths.
  SimdMode simd = SimdMode::kAuto;
};

/// Evaluates σ[P](R); preserves input row order and duplicates (a tuple
/// qualifies iff its projection onto P's attributes is maximal).
Relation Bmo(const Relation& r, const PrefPtr& p, const BmoOptions& options = {});

/// Same, returning the qualifying row indices sorted ascending.
std::vector<size_t> BmoIndices(const Relation& r, const PrefPtr& p,
                               const BmoOptions& options = {});

/// Evaluates σ[P groupby A](R) (Def. 16): grouping by equal A-values
/// (GroupRowsBy), then σ[P] per group.
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

/// Maximal-value flags over a distinct-value set under a bound order:
/// MaximaNaive is the exhaustive oracle (kNaive), MaximaBnl the window
/// every term that does not compile runs.
std::vector<bool> MaximaNaive(const std::vector<Tuple>& values,
                              const LessFn& less);
std::vector<bool> MaximaBnl(const std::vector<Tuple>& values,
                            const LessFn& less);

}  // namespace prefdb

#endif  // PREFDB_EVAL_BMO_H_
