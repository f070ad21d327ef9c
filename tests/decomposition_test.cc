// Verification of the decomposition theorems (Props 8-12) as *set
// equalities over query results*, on randomized relations — the paper's
// §5.2-5.4, including the YY compromise set of Def. 17.

#include "eval/decomposition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "eval/bmo.h"
#include "psql/parser.h"
#include "psql/translator.h"
#include "test_support.h"

namespace prefdb {
namespace {

using ::prefdb::testing::RandomPreferenceGen;

Relation RandomXY(uint64_t seed, size_t n = 60) {
  std::mt19937_64 rng(seed);
  Relation r(Schema{{"x", ValueType::kInt}, {"y", ValueType::kInt}});
  for (size_t i = 0; i < n; ++i) {
    r.Add({Value(static_cast<int>(rng() % 9) - 4),
           Value(static_cast<int>(rng() % 9) - 4)});
  }
  return r;
}

class DecompositionPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(DecompositionPropertyTest, Prop8DisjointUnionIsIntersection) {
  // sigma[P1+P2](R) = sigma[P1](R) ∩ sigma[P2](R) for range-disjoint
  // pieces.
  Relation r = RandomXY(GetParam());
  RandomPreferenceGen gen("x", {Value(-4), Value(-2), Value(0), Value(2)},
                          GetParam());
  PrefPtr u1 = Subset(gen.Term(1), {Tuple({Value(-4)}), Tuple({Value(-2)})});
  PrefPtr u2 = Subset(gen.Term(1), {Tuple({Value(0)}), Tuple({Value(2)})});
  PrefPtr u = DisjointUnion(u1, u2);
  std::vector<size_t> direct = BmoIndices(r, u, {BmoAlgorithm::kNaive});
  std::vector<size_t> decomposed = Relation::IndexIntersect(
      BmoIndices(r, u1, {BmoAlgorithm::kNaive}),
      BmoIndices(r, u2, {BmoAlgorithm::kNaive}));
  EXPECT_EQ(direct, decomposed) << u->ToString();
}

TEST_P(DecompositionPropertyTest, Prop9IntersectionIsUnionPlusYY) {
  Relation r = RandomXY(GetParam() + 5);
  RandomPreferenceGen gen("x", {Value(-4), Value(-2), Value(0), Value(2)},
                          GetParam() + 5);
  PrefPtr p1 = gen.Term(1);
  PrefPtr p2 = gen.Term(1);
  PrefPtr isect = Intersection(p1, p2);
  std::vector<size_t> direct = BmoIndices(r, isect, {BmoAlgorithm::kNaive});
  std::vector<size_t> decomposed = Relation::IndexUnion(
      Relation::IndexUnion(BmoIndices(r, p1, {BmoAlgorithm::kNaive}),
                           BmoIndices(r, p2, {BmoAlgorithm::kNaive})),
      YYIndices(r, p1, p2));
  EXPECT_EQ(direct, decomposed)
      << "P1=" << p1->ToString() << " P2=" << p2->ToString();
}

TEST_P(DecompositionPropertyTest, Prop10PrioritizedViaGrouping) {
  // sigma[P1 & P2](R) = sigma[P1](R) ∩ sigma[P2 groupby A1](R).
  Relation r = RandomXY(GetParam() + 11);
  RandomPreferenceGen gx("x", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 11);
  RandomPreferenceGen gy("y", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 12);
  PrefPtr p1 = gx.Term(1);
  PrefPtr p2 = gy.Term(1);
  std::vector<size_t> direct =
      BmoIndices(r, Prioritized(p1, p2), {BmoAlgorithm::kNaive});
  std::vector<size_t> decomposed = Relation::IndexIntersect(
      BmoIndices(r, p1, {BmoAlgorithm::kNaive}),
      BmoGroupByIndices(r, p2, p1->attributes(), {BmoAlgorithm::kNaive}));
  EXPECT_EQ(direct, decomposed)
      << "P1=" << p1->ToString() << " P2=" << p2->ToString();
}

TEST_P(DecompositionPropertyTest, Prop11ChainCascade) {
  // sigma[P1 & P2](R) = sigma[P2](sigma[P1](R)) when P1 is a chain.
  Relation r = RandomXY(GetParam() + 21);
  RandomPreferenceGen gy("y", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 21);
  for (const PrefPtr& p1 : {Lowest("x"), Highest("x")}) {
    PrefPtr p2 = gy.Term(1);
    std::vector<size_t> direct =
        BmoIndices(r, Prioritized(p1, p2), {BmoAlgorithm::kNaive});
    std::vector<size_t> first = BmoIndices(r, p1, {BmoAlgorithm::kNaive});
    Relation sub = r.SelectRows(first);
    std::vector<size_t> inner = BmoIndices(sub, p2, {BmoAlgorithm::kNaive});
    std::vector<size_t> cascade;
    for (size_t i : inner) cascade.push_back(first[i]);
    std::sort(cascade.begin(), cascade.end());
    EXPECT_EQ(direct, cascade) << "P2=" << p2->ToString();
  }
}

TEST_P(DecompositionPropertyTest, Prop12ParetoDecomposition) {
  // sigma[P1 (x) P2](R) = sigma[P1&P2] ∪ sigma[P2&P1] ∪ YY(P1&P2, P2&P1).
  Relation r = RandomXY(GetParam() + 31);
  RandomPreferenceGen gx("x", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 31);
  RandomPreferenceGen gy("y", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 32);
  PrefPtr p1 = gx.Term(1);
  PrefPtr p2 = gy.Term(1);
  PrefPtr pr12 = Prioritized(p1, p2);
  PrefPtr pr21 = Prioritized(p2, p1);
  std::vector<size_t> direct =
      BmoIndices(r, Pareto(p1, p2), {BmoAlgorithm::kNaive});
  std::vector<size_t> decomposed = Relation::IndexUnion(
      Relation::IndexUnion(BmoIndices(r, pr12, {BmoAlgorithm::kNaive}),
                           BmoIndices(r, pr21, {BmoAlgorithm::kNaive})),
      YYIndices(r, pr12, pr21));
  EXPECT_EQ(direct, decomposed)
      << "P1=" << p1->ToString() << " P2=" << p2->ToString();
}

TEST_P(DecompositionPropertyTest, DecompositionEvaluatorMatchesNaive) {
  Relation r = RandomXY(GetParam() + 41);
  RandomPreferenceGen gx("x", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 41);
  RandomPreferenceGen gy("y", {Value(-4), Value(-2), Value(0), Value(2)},
                         GetParam() + 42);
  for (int round = 0; round < 6; ++round) {
    PrefPtr p1 = gx.Term(1);
    PrefPtr p2 = gy.Term(1);
    for (const PrefPtr& p :
         {Pareto(p1, p2), Prioritized(p1, p2),
          Prioritized(Pareto(p1, p2), gx.Term(1))}) {
      EXPECT_EQ(BmoDecompositionIndices(r, p),
                BmoIndices(r, p, {BmoAlgorithm::kNaive}))
          << p->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionPropertyTest,
                         ::testing::Values(1, 3, 7, 15, 31, 63));

// --- Targeted cases ---

TEST(YYTest, EmptyWhenEverythingHasCommonDominators) {
  Relation r = ::prefdb::testing::IntRelation("x", {1, 2, 3});
  // P1 = P2 = LOWEST: every non-maximum has a common dominator.
  EXPECT_TRUE(YYIndices(r, Lowest("x"), Lowest("x")).empty());
}

TEST(YYTest, CapturesCompromiseCandidates) {
  // Example 11's {6}.
  Relation r = ::prefdb::testing::IntRelation("x", {3, 6, 9});
  PrefPtr pr12 = Prioritized(Lowest("x"), Highest("x"));
  PrefPtr pr21 = Prioritized(Highest("x"), Lowest("x"));
  std::vector<size_t> yy = YYIndices(r, pr12, pr21);
  ASSERT_EQ(yy.size(), 1u);
  EXPECT_EQ(r.at(yy[0])[0], Value(6));
}

TEST(NonMaximalTest, ComplementOfBmo) {
  Relation r = ::prefdb::testing::IntRelation("x", {5, 1, 3, 1});
  std::vector<size_t> nonmax = NonMaximalIndices(r, Lowest("x"));
  EXPECT_EQ(nonmax, (std::vector<size_t>{0, 2}));
}

TEST(DecompositionTest, ScoredBaseSinglePass) {
  Relation r = ::prefdb::testing::IntRelation("x", {4, 2, 9, 2});
  EXPECT_EQ(BmoDecompositionIndices(r, Lowest("x")),
            (std::vector<size_t>{1, 3}));
  EXPECT_EQ(BmoDecompositionIndices(r, Highest("x")),
            (std::vector<size_t>{2}));
  EXPECT_EQ(BmoDecompositionIndices(r, Around("x", 3)),
            (std::vector<size_t>{0, 1, 3}));  // distance 1 each
}

TEST(DecompositionTest, SharedAttributePrioritizedUsesProp4a) {
  Relation r = ::prefdb::testing::IntRelation("x", {1, 2, 3});
  PrefPtr p = Prioritized(Lowest("x"), Highest("x"));
  EXPECT_EQ(BmoDecompositionIndices(r, p),
            BmoIndices(r, Lowest("x"), {BmoAlgorithm::kNaive}));
}

TEST(DecompositionTest, PartialOverlapFallsBackCorrectly) {
  Relation r(Schema{{"x", ValueType::kInt}, {"y", ValueType::kInt}});
  r.Add({1, 1});
  r.Add({2, 0});
  r.Add({0, 2});
  PrefPtr p = Prioritized(Pareto(Lowest("x"), Lowest("y")), Highest("x"));
  EXPECT_EQ(BmoDecompositionIndices(r, p),
            BmoIndices(r, p, {BmoAlgorithm::kNaive}));
}

TEST(DecompositionTest, NaNCellsBreakTheChainButNotTheAnswer) {
  // A NaN cell compares with nothing, so LOWEST(x) keeps every NaN row
  // beside the minimum and is no chain on this data: the cascade of
  // Prop 11 would drop rows, Prop 10 must not.
  Relation r(Schema{{"x", ValueType::kDouble}, {"y", ValueType::kInt}});
  const double nan = std::nan("");
  r.Add({Value(nan), Value(3)});
  r.Add({Value(1.0), Value(1)});
  r.Add({Value(nan), Value(5)});
  r.Add({Value(1.0), Value(4)});
  r.Add({Value(2.0), Value(9)});
  r.Add({Value(), Value(7)});
  const BmoOptions oracle{BmoAlgorithm::kNaive};
  EXPECT_EQ(BmoDecompositionIndices(r, Lowest("x")),
            (std::vector<size_t>{0, 1, 2, 3}));
  for (const PrefPtr& p :
       {Prioritized(Lowest("x"), Highest("y")),
        Pareto(Lowest("x"), Highest("y")),
        Prioritized(Highest("y"), Lowest("x"))}) {
    EXPECT_EQ(BmoDecompositionIndices(r, p), BmoIndices(r, p, oracle))
        << p->ToString();
  }
}

TEST(DecompositionTest, EvaluatorMatchesTheNaiveOracle) {
  // The evaluator, grouped and ungrouped, on the whole relation and on a
  // WHERE-style subset, must return the naive oracle's rows, NaN and NULL
  // cells included. (A small pool: the evaluator's YY sets are quadratic
  // in the distinct projections.)
  std::mt19937_64 rng(91);
  const char* groups[] = {"north", "south", "east"};
  const char* kinds[] = {"a", "b", "c", "d"};
  Relation r(Schema{{"id", ValueType::kInt},
                    {"g", ValueType::kString},
                    {"c", ValueType::kString},
                    {"x", ValueType::kDouble},
                    {"y", ValueType::kInt}});
  std::vector<size_t> y_below_70;
  for (int64_t i = 0; i < 600; ++i) {
    const uint64_t dice = rng() % 20;
    const Value x = dice == 0   ? Value()
                    : dice == 1 ? Value(std::nan(""))
                                : Value(double(rng() % 200) / 4);
    const int64_t y = int64_t(rng() % 100);
    if (y < 70) y_below_70.push_back(r.size());
    r.Add({Value(i), groups[rng() % 3], kinds[rng() % 4], x, Value(y)});
  }
  const Relation& whole = r;
  const Relation subset = r.SelectRows(y_below_70);
  const BmoOptions oracle{BmoAlgorithm::kNaive};
  for (const char* preferring :
       {"LOWEST(x) AND HIGHEST(y)", "LOWEST(x) CASCADE HIGHEST(y)",
        "(c = 'a' ELSE c <> 'b') AND y AROUND 50 CASCADE LOWEST(x)"}) {
    const PrefPtr p = psql::TranslatePreferenceChain(
        psql::Parse(std::string("SELECT * FROM t PREFERRING ") + preferring)
            .preferring);
    for (const Relation* input : {&whole, &subset}) {
      SCOPED_TRACE(std::string(preferring) +
                   (input == &whole ? "" : " WHERE y < 70"));
      const std::vector<size_t> expected = BmoIndices(*input, p, oracle);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(BmoDecompositionIndices(*input, p), expected);
      const std::vector<size_t> grouped =
          BmoGroupByIndices(*input, p, {"g"}, oracle);
      ASSERT_FALSE(grouped.empty());
      EXPECT_EQ(BmoDecompositionGroupByIndices(*input, p, {"g"}), grouped);
    }
  }
}

}  // namespace
}  // namespace prefdb
