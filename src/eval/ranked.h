// The ranked ("k-best") query model of Kießling §6.2: rank(F) preferences
// usually form chains, so BMO would return a single best object; instead,
// multi-feature and full-text engines return the top k objects by the
// combined utility. This module provides that retrieval mode.
//
// Reachable from Preference SQL via `SELECT TOP k ...` / `SELECT RANKED
// ...` (psql/parser.h), routed here by the engine (engine/engine.h).

#ifndef PREFDB_EVAL_RANKED_H_
#define PREFDB_EVAL_RANKED_H_

#include <vector>

#include "core/complex_preferences.h"
#include "relation/relation.h"

namespace prefdb {

/// Result of a k-best query: rows in descending utility order, with the
/// utilities aligned 1:1.
struct RankedResult {
  Relation relation;
  std::vector<double> utilities;
};

/// Row-index form of RankedResult: positions into the queried row set in
/// rank order — descending utility, ties broken by input order, NaN
/// utilities after every number (a total order, so deterministic).
struct RankedRows {
  std::vector<size_t> rows;
  std::vector<double> utilities;
};

/// A bound single utility plus the schema columns it reads (the term's
/// attributes): TopKRows refreshes only those cells of one scratch row
/// per candidate instead of materializing whole rows.
struct RankedUtility {
  ScoreFn score;
  std::vector<size_t> cols;
};

/// Derives the single combined utility of `p`: RankPreference's F, or the
/// single topologically compatible sort key any numerical base preference
/// (and Pareto combinations thereof) exposes. Throws std::invalid_argument
/// when no single-key utility is derivable (e.g. prioritized chains).
RankedUtility BindRankedUtility(const PrefPtr& p, const Schema& schema);

/// Top k of the rows of R listed in `rows` (all rows when `rows` is
/// null), in rank order (see RankedRows). k = 0 returns everything
/// ranked. The returned indices are positions into `rows` order (global
/// row indices when `rows` is null). Selects the k survivors first, so
/// only they are sorted.
RankedRows TopKRows(const Relation& r, const RankedUtility& utility, size_t k,
                    const std::vector<size_t>* rows = nullptr);

/// Top k rows of R by the rank(F) combined utility (rank order as in
/// RankedRows). k = 0 returns everything ranked.
RankedResult TopK(const Relation& r, const RankPreference& rank, size_t k);

/// Top k rows by any preference exposing a single utility (see
/// BindRankedUtility). Throws std::invalid_argument when no single-key
/// utility is derivable.
RankedResult TopK(const Relation& r, const PrefPtr& p, size_t k);

}  // namespace prefdb

#endif  // PREFDB_EVAL_RANKED_H_
