// Decomposition-based BMO evaluation (Kießling §5.2-5.4): a divide &
// conquer evaluator that recursively applies
//   Prop 8    σ[P1 + P2](R)  = σ[P1](R) ∩ σ[P2](R)
//   Prop 9    σ[P1 <> P2](R) = σ[P1](R) ∪ σ[P2](R) ∪ YY(P1, P2)_R
//   Prop 10   σ[P1 & P2](R)  = σ[P1](R) ∩ σ[P2 groupby A1](R)   (A1 ∩ A2 = ∅)
//   Prop 11   σ[P1 & P2](R)  = σ[P2](σ[P1](R))                  (P1 a chain)
//   Prop 12   σ[P1 (x) P2](R) = σ[P1&P2](R) ∪ σ[P2&P1](R)
//                                ∪ YY(P1&P2, P2&P1)_R
// down to base preferences, which are evaluated in a single pass.

#ifndef PREFDB_EVAL_DECOMPOSITION_H_
#define PREFDB_EVAL_DECOMPOSITION_H_

#include <string>
#include <vector>

#include "core/preference.h"
#include "relation/relation.h"

namespace prefdb {

/// σ[P](R) via the decomposition theorems; returns qualifying row indices,
/// sorted ascending. Constructors without a decomposition rule (duals,
/// subset preferences, rank(F), partially overlapping accumulations) fall
/// back to a generic window algorithm.
std::vector<size_t> BmoDecompositionIndices(const Relation& r,
                                            const PrefPtr& p);

/// σ[P groupby A](R) (Def. 16) with the decomposition evaluator run inside
/// each group; row indices sorted ascending.
std::vector<size_t> BmoDecompositionGroupByIndices(
    const Relation& r, const PrefPtr& p,
    const std::vector<std::string>& attrs);

/// YY(P1, P2)_R of Def. 17c: rows whose projection is non-maximal in both
/// (P1)_R and (P2)_R yet has no common dominator within R[A]. The two
/// preferences must share one attribute set A (as in Props 9/12).
std::vector<size_t> YYIndices(const Relation& r, const PrefPtr& p1,
                              const PrefPtr& p2);

/// Nmax((P)_R) of Def. 17a as row indices: rows whose projection is
/// dominated by some other projection in R[A].
std::vector<size_t> NonMaximalIndices(const Relation& r, const PrefPtr& p);

}  // namespace prefdb

#endif  // PREFDB_EVAL_DECOMPOSITION_H_
