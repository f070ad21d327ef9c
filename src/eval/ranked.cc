#include "eval/ranked.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace prefdb {

namespace {

/// Schema columns of the term's attributes: all a bound utility reads.
std::vector<size_t> TermColumns(const Preference& p, const Schema& schema) {
  std::vector<size_t> cols;
  for (const std::string& attr : p.attributes()) {
    if (auto idx = schema.IndexOf(attr)) cols.push_back(*idx);
  }
  return cols;
}

RankedResult Materialize(const Relation& r, const RankedRows& ranked) {
  return RankedResult{r.SelectRows(ranked.rows), ranked.utilities};
}

}  // namespace

RankedUtility BindRankedUtility(const PrefPtr& p, const Schema& schema) {
  if (const auto* rank = dynamic_cast<const RankPreference*>(p.get())) {
    return {rank->BindUtility(schema), TermColumns(*p, schema)};
  }
  auto keys = p->BindSortKeys(schema);
  if (!keys || keys->size() != 1) {
    throw std::invalid_argument(
        "ranked retrieval requires a single-utility preference (rank(F) or "
        "one derivable sort key), got " +
        p->ToString());
  }
  return {(*keys)[0], TermColumns(*p, schema)};
}

RankedRows TopKRows(const Relation& r, const RankedUtility& utility, size_t k,
                    const std::vector<size_t>* rows) {
  const size_t n = rows ? rows->size() : r.size();
  std::vector<double> scores;
  scores.reserve(n);
  Tuple scratch;
  for (size_t i = 0; i < n; ++i) {
    r.LoadCells(rows ? (*rows)[i] : i, utility.cols, &scratch);
    scores.push_back(utility.score(scratch));
  }
  // Rank order: descending utility, NaN after every number, then input
  // position — a strict total order, so the selection is deterministic.
  auto before = [&scores](uint32_t a, uint32_t b) {
    const double sa = scores[a];
    const double sb = scores[b];
    const bool nan_a = std::isnan(sa);
    const bool nan_b = std::isnan(sb);
    if (nan_a != nan_b) return nan_b;
    if (!nan_a && sa != sb) return sa > sb;
    return a < b;
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (k > 0 && k < n) {
    std::nth_element(order.begin(), order.begin() + k, order.end(), before);
    order.resize(k);
  }
  std::sort(order.begin(), order.end(), before);
  RankedRows out;
  out.rows.reserve(order.size());
  out.utilities.reserve(order.size());
  for (uint32_t i : order) {
    out.rows.push_back(i);
    out.utilities.push_back(scores[i]);
  }
  return out;
}

RankedResult TopK(const Relation& r, const RankPreference& rank, size_t k) {
  const RankedUtility utility{rank.BindUtility(r.schema()),
                              TermColumns(rank, r.schema())};
  return Materialize(r, TopKRows(r, utility, k));
}

RankedResult TopK(const Relation& r, const PrefPtr& p, size_t k) {
  return Materialize(r, TopKRows(r, BindRankedUtility(p, r.schema()), k));
}

}  // namespace prefdb
