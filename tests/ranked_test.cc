// Tests for the k-best ranked query model (§6.2).

#include "eval/ranked.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/numeric_preferences.h"
#include "test_support.h"

namespace prefdb {
namespace {

using ::prefdb::testing::IntRelation;

Relation XY() {
  Relation r(Schema{{"x", ValueType::kInt}, {"y", ValueType::kInt}});
  r.Add({1, 9});
  r.Add({5, 5});
  r.Add({9, 1});
  r.Add({9, 9});
  return r;
}

TEST(TopKTest, OrdersByCombinedUtilityDescending) {
  auto rank = std::make_shared<RankPreference>(
      [](const std::vector<double>& s) { return s[0] + s[1]; }, "sum",
      std::vector<PrefPtr>{Highest("x"), Highest("y")});
  RankedResult res = TopK(XY(), *rank, 2);
  ASSERT_EQ(res.relation.size(), 2u);
  EXPECT_EQ(res.relation.at(0), Tuple({9, 9}));
  EXPECT_EQ(res.utilities[0], 18.0);
  EXPECT_EQ(res.utilities[1], 10.0);
}

TEST(TopKTest, KZeroReturnsFullRanking) {
  auto rank = std::make_shared<RankPreference>(
      [](const std::vector<double>& s) { return s[0]; }, "first",
      std::vector<PrefPtr>{Highest("x")});
  RankedResult res = TopK(XY(), *rank, 0);
  EXPECT_EQ(res.relation.size(), 4u);
  EXPECT_GE(res.utilities[0], res.utilities[3]);
}

TEST(TopKTest, KLargerThanInputReturnsAll) {
  RankedResult res = TopK(IntRelation("x", {3, 1}), Highest("x"), 10);
  EXPECT_EQ(res.relation.size(), 2u);
}

TEST(TopKTest, StableTieBreakByInputOrder) {
  Relation r = IntRelation("x", {5, 5, 5});
  RankedResult res = TopK(r, Highest("x"), 2);
  EXPECT_EQ(res.relation.size(), 2u);
  EXPECT_EQ(res.utilities[0], res.utilities[1]);
}

TEST(TopKTest, WorksWithAnySingleKeyPreference) {
  // AROUND is a SCORE sub-constructor, so it ranks directly.
  RankedResult res = TopK(IntRelation("x", {1, 7, 10}), Around("x", 8), 1);
  ASSERT_EQ(res.relation.size(), 1u);
  EXPECT_EQ(res.relation.at(0)[0], Value(7));
}

TEST(TopKTest, RejectsNonScorablePreference) {
  EXPECT_THROW(
      TopK(XY(), Pareto(Pos("x", {Value(1)}), Highest("y")), 1),
      std::invalid_argument);
}

TEST(TopKTest, KBestVsBmoOnChain) {
  // §6.2: for a chain, BMO returns exactly one best object — "definitely
  // too small a set to choose from"; k-best returns k.
  Relation r = IntRelation("x", {4, 8, 15, 16, 23});
  RankedResult res = TopK(r, Highest("x"), 3);
  EXPECT_EQ(res.relation.size(), 3u);
  EXPECT_EQ(res.relation.at(0)[0], Value(23));
}

// Brute-force rank order: the numbers by descending utility (a stable
// sort keeps input order on ties), then every NaN in input order.
std::vector<size_t> ReferenceRankOrder(const std::vector<double>& scores) {
  std::vector<size_t> numbers;
  std::vector<size_t> nans;
  for (size_t i = 0; i < scores.size(); ++i) {
    (std::isnan(scores[i]) ? nans : numbers).push_back(i);
  }
  std::stable_sort(numbers.begin(), numbers.end(),
                   [&scores](size_t a, size_t b) {
                     return scores[a] > scores[b];
                   });
  numbers.insert(numbers.end(), nans.begin(), nans.end());
  return numbers;
}

TEST(TopKTest, TopKRowsMatchesBruteForceOrderWithNaNAndTies) {
  // AROUND over a NaN cell scores NaN; 3 and 7 tie at distance 2, and
  // 1 and 9 at distance 4, so several k cut through a tie.
  const double nan = std::nan("");
  Relation r(Schema{{"id", ValueType::kInt}, {"x", ValueType::kDouble}});
  const std::vector<double> xs = {7, nan, 3, 5, 9, nan, 3, 1,
                                  7, 5, nan, 9, 2, 8, 3};
  for (size_t i = 0; i < xs.size(); ++i) {
    r.Add({Value(static_cast<int64_t>(i)), Value(xs[i])});
  }
  const RankedUtility utility = BindRankedUtility(Around("x", 5), r.schema());
  EXPECT_EQ(utility.cols, std::vector<size_t>{1});
  // Pools: every row, and a reordered subset (positions are pool order).
  const std::vector<size_t> subset = {14, 1, 12, 6, 2, 10, 0, 8, 3};
  for (const std::vector<size_t>* pool :
       {static_cast<const std::vector<size_t>*>(nullptr), &subset}) {
    const size_t n = pool ? pool->size() : r.size();
    std::vector<double> scores;
    for (size_t i = 0; i < n; ++i) {
      scores.push_back(utility.score(r.RowAt(pool ? (*pool)[i] : i)));
    }
    const std::vector<size_t> order = ReferenceRankOrder(scores);
    for (size_t k = 0; k <= n + 1; ++k) {
      RankedRows got = TopKRows(r, utility, k, pool);
      const size_t want_n = k == 0 ? n : std::min(k, n);
      ASSERT_EQ(got.rows.size(), want_n) << "k=" << k;
      for (size_t i = 0; i < want_n; ++i) {
        EXPECT_EQ(got.rows[i], order[i]) << "k=" << k << " rank " << i;
        const double want = scores[order[i]];
        EXPECT_TRUE(std::isnan(want) ? std::isnan(got.utilities[i])
                                     : got.utilities[i] == want);
      }
    }
  }
}

TEST(TopKTest, MaterializedResultReadsCellsOnly) {
  Relation r = IntRelation("x", {4, 8, 15, 16, 23});
  RankedResult res = TopK(r, Highest("x"), 2);
  EXPECT_EQ(res.relation.RowAt(0), Tuple({23}));
  EXPECT_EQ(res.relation.RowAt(1), Tuple({16}));
}

}  // namespace
}  // namespace prefdb
