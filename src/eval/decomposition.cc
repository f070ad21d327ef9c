#include "eval/decomposition.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "eval/bmo.h"

namespace prefdb {

namespace {

// Single-pass evaluation of a score-induced base preference: the maxima are
// exactly the rows attaining the maximum score (x <P y iff f(x) < f(y)).
std::vector<size_t> ScoredBaseIndices(const Relation& r,
                                      const ScoredBasePreference& p) {
  auto idx = r.schema().IndexOf(p.attribute());
  std::vector<size_t> out;
  if (!idx) {
    throw std::out_of_range("attribute '" + p.attribute() +
                            "' not found in schema");
  }
  double best = -std::numeric_limits<double>::infinity();
  bool seen = false;
  for (const Tuple& t : r.tuples()) {
    double s = p.ScoreOf(t[*idx]);
    if (!seen || s > best) {
      best = s;
      seen = true;
    }
  }
  for (size_t i = 0; i < r.size(); ++i) {
    if (p.ScoreOf(r.at(i)[*idx]) == best) out.push_back(i);
  }
  return out;
}

std::vector<size_t> FallbackIndices(const Relation& r, const PrefPtr& p) {
  return BmoIndices(r, p, {BmoAlgorithm::kBlockNestedLoop});
}

std::vector<size_t> Remap(const std::vector<size_t>& outer,
                          const std::vector<size_t>& inner) {
  std::vector<size_t> out;
  out.reserve(inner.size());
  for (size_t i : inner) out.push_back(outer[i]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::vector<size_t> BmoDecompositionGroupByIndices(
    const Relation& r, const PrefPtr& p,
    const std::vector<std::string>& attrs) {
  std::vector<size_t> out;
  for (const std::vector<size_t>& rows :
       GroupRowsBy(r, r.ResolveColumns(attrs))) {
    Relation group = r.SelectRows(rows);
    for (size_t local : BmoDecompositionIndices(group, p)) {
      out.push_back(rows[local]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> NonMaximalIndices(const Relation& r, const PrefPtr& p) {
  std::vector<size_t> max_rows = BmoIndices(r, p, {});
  std::vector<size_t> out;
  out.reserve(r.size() - max_rows.size());
  size_t k = 0;
  for (size_t i = 0; i < r.size(); ++i) {
    if (k < max_rows.size() && max_rows[k] == i) {
      ++k;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> YYIndices(const Relation& r, const PrefPtr& p1,
                              const PrefPtr& p2) {
  if (r.empty()) return {};
  std::vector<std::string> attrs =
      AttributeUnion(p1->attributes(), p2->attributes());
  std::vector<size_t> cols = r.ResolveColumns(attrs);
  Schema proj_schema = r.schema().Project(attrs);
  // Distinct value combinations R[A].
  std::vector<Tuple> values;
  std::vector<size_t> row_to_value(r.size());
  {
    std::unordered_map<Tuple, size_t, TupleHash> ids;
    for (size_t i = 0; i < r.size(); ++i) {
      Tuple proj = r.at(i).Project(cols);
      auto [it, inserted] = ids.emplace(std::move(proj), values.size());
      if (inserted) values.push_back(it->first);
      row_to_value[i] = it->second;
    }
  }
  LessFn l1 = p1->Bind(proj_schema);
  LessFn l2 = p2->Bind(proj_schema);
  const size_t m = values.size();
  std::vector<bool> in_yy(m, false);
  for (size_t i = 0; i < m; ++i) {
    bool nonmax1 = false, nonmax2 = false, common_dominator = false;
    for (size_t j = 0; j < m && !common_dominator; ++j) {
      if (i == j) continue;
      bool b1 = l1(values[i], values[j]);
      bool b2 = l2(values[i], values[j]);
      nonmax1 |= b1;
      nonmax2 |= b2;
      common_dominator = b1 && b2;
    }
    // Def. 17c: non-maximal in both orders, but the 'better-than' sets
    // within R[A] do not intersect.
    in_yy[i] = nonmax1 && nonmax2 && !common_dominator;
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < r.size(); ++i) {
    if (in_yy[row_to_value[i]]) out.push_back(i);
  }
  return out;
}

std::vector<size_t> BmoDecompositionIndices(const Relation& r,
                                            const PrefPtr& p) {
  if (r.empty()) return {};
  switch (p->kind()) {
    case PreferenceKind::kPrioritized: {
      auto kids = p->children();
      const PrefPtr& p1 = kids[0];
      const PrefPtr& p2 = kids[1];
      if (SameAttributeSet(p1->attributes(), p2->attributes())) {
        // Prop 4a: P1 & P2 == P1 on shared attributes.
        return BmoDecompositionIndices(r, p1);
      }
      if (!DisjointAttributeSets(p1->attributes(), p2->attributes())) {
        return FallbackIndices(r, p);
      }
      if (p1->IsChain()) {
        // Prop 11: a cascade of preference queries.
        std::vector<size_t> first = BmoDecompositionIndices(r, p1);
        Relation sub = r.SelectRows(first);
        return Remap(first, BmoDecompositionIndices(sub, p2));
      }
      // Prop 10: σ[P1](R) ∩ σ[P2 groupby A1](R).
      std::vector<size_t> left = BmoDecompositionIndices(r, p1);
      std::vector<size_t> right =
          BmoDecompositionGroupByIndices(r, p2, p1->attributes());
      return Relation::IndexIntersect(left, right);
    }
    case PreferenceKind::kPareto: {
      auto kids = p->children();
      const PrefPtr& p1 = kids[0];
      const PrefPtr& p2 = kids[1];
      // Prop 12 (via Props 5 + 9): the union of both prioritized views
      // plus the YY compromise set.
      PrefPtr pr12 = Prioritized(p1, p2);
      PrefPtr pr21 = Prioritized(p2, p1);
      std::vector<size_t> t1 = BmoDecompositionIndices(r, pr12);
      std::vector<size_t> t2 = BmoDecompositionIndices(r, pr21);
      std::vector<size_t> yy = YYIndices(r, pr12, pr21);
      return Relation::IndexUnion(Relation::IndexUnion(t1, t2), yy);
    }
    case PreferenceKind::kIntersection: {
      auto kids = p->children();
      // Prop 9.
      std::vector<size_t> t1 = BmoDecompositionIndices(r, kids[0]);
      std::vector<size_t> t2 = BmoDecompositionIndices(r, kids[1]);
      std::vector<size_t> yy = YYIndices(r, kids[0], kids[1]);
      return Relation::IndexUnion(Relation::IndexUnion(t1, t2), yy);
    }
    case PreferenceKind::kDisjointUnion: {
      auto kids = p->children();
      // Prop 8.
      return Relation::IndexIntersect(BmoDecompositionIndices(r, kids[0]),
                                      BmoDecompositionIndices(r, kids[1]));
    }
    case PreferenceKind::kAntiChain: {
      std::vector<size_t> all(r.size());
      for (size_t i = 0; i < r.size(); ++i) all[i] = i;
      return all;
    }
    case PreferenceKind::kAround:
    case PreferenceKind::kBetween:
    case PreferenceKind::kLowest:
    case PreferenceKind::kHighest:
    case PreferenceKind::kScore:
      return ScoredBaseIndices(
          r, dynamic_cast<const ScoredBasePreference&>(*p));
    default:
      return FallbackIndices(r, p);
  }
}

}  // namespace prefdb
