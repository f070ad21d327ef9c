// Translation of Preference SQL ASTs into the core preference model and
// executable predicates:
//   condition atoms   ->  POS / NEG (Def. 6a/b)
//   ELSE chains       ->  layered preferences (POS/POS, POS/NEG pattern)
//   AND               ->  Pareto accumulation (x)  (Def. 8, as in [KiK01])
//   PRIOR TO          ->  prioritized accumulation & (Def. 9)
//   CASCADE p1 ... pn ->  p0 & p1 & ... & pn
//   AROUND/BETWEEN/LOWEST/HIGHEST -> the numerical base preferences

#ifndef PREFDB_PSQL_TRANSLATOR_H_
#define PREFDB_PSQL_TRANSLATOR_H_

#include <functional>
#include <vector>

#include "core/preference.h"
#include "psql/ast.h"
#include "relation/relation.h"

namespace prefdb::psql {

/// Translates one PREFERRING expression into a preference term.
PrefPtr TranslatePreference(const PrefExpr& expr);

/// Translates the full PREFERRING + CASCADE chain. Returns nullptr when the
/// statement carries no preference.
PrefPtr TranslatePreferenceChain(const std::vector<PrefExprPtr>& chain);

/// Compiles a WHERE tree into a row predicate for the given schema.
/// Unknown attributes raise std::out_of_range.
std::function<bool(const Tuple&)> CompileCondition(const Condition& cond,
                                                   const Schema& schema);

/// The schema columns a CompileCondition predicate reads, ascending and
/// deduplicated: what a cell-only scan (Relation::SelectWhere) refreshes
/// per row. Unknown attributes raise std::out_of_range.
std::vector<size_t> ConditionColumns(const Condition& cond,
                                     const Schema& schema);

/// Compiles a BUT ONLY tree into a row predicate; LEVEL/DISTANCE resolve
/// against base preferences found in `preference` (std::invalid_argument
/// if an attribute has no matching base preference or lacks the quality
/// function).
std::function<bool(const Tuple&)> CompileQualityCondition(
    const QualityCondition& cond, const PrefPtr& preference,
    const Schema& schema);

/// The schema columns a CompileQualityCondition predicate reads (the
/// LEVEL/DISTANCE attributes), ascending and deduplicated.
std::vector<size_t> QualityConditionColumns(const QualityCondition& cond,
                                            const Schema& schema);

}  // namespace prefdb::psql

#endif  // PREFDB_PSQL_TRANSLATOR_H_
