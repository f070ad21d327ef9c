// Tests for the vectorized score-table execution layer
// (exec/score_table.h): the compiled kernels must return exactly the
// naive closure oracle's answer for every compilable term — randomized
// across Pareto/prioritized nestings of layered, pos/neg and numerical
// leaves — and non-compilable terms must fall back to the closure BNL
// window, which must agree with the oracle too. Plus the NaN / -inf
// sort-key guards for the SFS comparator and the data-dependent
// score-chain fast path of the BNL window.

#include "exec/score_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "test_support.h"

namespace prefdb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// The reference every compiled kernel is checked against: the
// exhaustive closure test over distinct projections.
const BmoOptions kOracle{BmoAlgorithm::kNaive};

// A relation with level-friendly string columns and numeric columns,
// including NULLs and int/double mixtures in the numeric ones.
Relation MixedRelation(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Schema s({{"color", ValueType::kString},
            {"make", ValueType::kString},
            {"price", ValueType::kInt},
            {"score", ValueType::kDouble}});
  const std::vector<Value> colors = {"red", "blue", "green", "black", ""};
  const std::vector<Value> makes = {"Audi", "BMW", "Opel"};
  Relation r(s);
  for (size_t i = 0; i < n; ++i) {
    Value color = colors[rng() % colors.size()];
    Value make = makes[rng() % makes.size()];
    Value price = rng() % 17 == 0 ? Value() : Value(int64_t(rng() % 50));
    Value score = rng() % 13 == 0 ? Value() : Value(double(rng() % 40) / 4);
    r.Add(Tuple({color, make, price, score}));
  }
  return r;
}

// Random compilable terms: level-based and numerical leaves under
// Pareto/prioritized nesting (the fragment the table compiles).
class CompilableTermGen {
 public:
  explicit CompilableTermGen(uint64_t seed) : rng_(seed) {}

  PrefPtr Leaf() {
    switch (rng_() % 8) {
      case 0: return Pos("color", {"red", "blue"});
      case 1: return Neg("color", {"black"});
      case 2: return PosNeg("color", {"red"}, {"green"});
      case 3: return PosPos("make", {"Audi"}, {"BMW"});
      case 4:
        return Layered("color", {{{Value("red")}, false},
                                 LayeredPreference::Others(),
                                 {{Value("black")}, false}});
      case 5: return Lowest("price");
      case 6: return Around("score", 5.0);
      default: return Between("price", 10, 30);
    }
  }

  PrefPtr Term(int depth) {
    if (depth <= 0) return Leaf();
    switch (rng_() % 5) {
      case 0: return Pareto(Term(depth - 1), Term(depth - 1));
      case 1: return Prioritized(Term(depth - 1), Term(depth - 1));
      case 2: return Dual(Leaf());
      case 3: return Dual(Term(depth - 1));  // dual of accumulations too
      default: return Leaf();
    }
  }

 private:
  std::mt19937_64 rng_;
};

TEST(ScoreTableTest, CompilableTermCoverage) {
  EXPECT_TRUE(ScoreTable::CompilableTerm(Pos("a", {"x"})));
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      Pareto(Prioritized(Neg("a", {"x"}), Lowest("b")), Around("c", 3))));
  EXPECT_TRUE(ScoreTable::CompilableTerm(Dual(Highest("a"))));
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      Prioritized(AntiChain("g"), Lowest("a"))));
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      RankWeightedSum({0.5, 0.5}, {Lowest("a"), Highest("b")})));
  // Dual of an accumulation compiles via the descriptor-level order
  // flip (dual distributes over Pareto/prioritized onto the leaves).
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      Dual(Pareto(Lowest("a"), Lowest("b")))));
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      Dual(Prioritized(Pos("a", {"x"}), Dual(Lowest("b"))))));
  // Intersection / disjoint union compile as general descriptor nodes.
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      Intersection(Pos("a", {"x"}), Neg("a", {"y"}))));
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      DisjointUnion(Pos("a", {"x"}), Neg("b", {"y"}))));
  EXPECT_TRUE(ScoreTable::CompilableTerm(
      Dual(Intersection(Around("a", 1.0), Lowest("a")))));
  // Subsets: closure path.
  EXPECT_FALSE(ScoreTable::CompilableTerm(
      Subset(Lowest("a"), {Tuple({Value(1)})})));
}

TEST(ScoreTableTest, IntersectionTermsMatchClosure) {
  Relation r = MixedRelation(400, 77);
  // Intersections of strict partial orders are strict partial orders, so
  // every kernel must agree (SFS degrades to BNL: intersection nodes
  // derive no sort keys).
  PrefPtr isect =
      Intersection(Pos("color", {"red", "blue"}), Neg("color", {"black"}));
  PrefPtr numeric_isect =
      Intersection(Around("score", 5.0), Dual(Lowest("score")));
  for (const PrefPtr& p :
       {isect, numeric_isect, Dual(isect), Pareto(isect, Lowest("price")),
        Prioritized(Lowest("price"), numeric_isect),
        Prioritized(isect, Highest("score"))}) {
    ASSERT_TRUE(ScoreTable::CompilableTerm(p)) << p->ToString();
    std::vector<size_t> expected = BmoIndices(r, p, kOracle);
    for (BmoAlgorithm algo :
         {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
          BmoAlgorithm::kSortFilter}) {
      EXPECT_EQ(BmoIndices(r, p, {algo}), expected)
          << p->ToString() << " algo=" << BmoAlgorithmName(algo);
    }
  }
}

TEST(ScoreTableTest, DisjointUnionCompilesTheClosureFormula) {
  Relation r = MixedRelation(400, 78);
  // Order-disjointness (Def. 4) is the caller's contract and cannot hold
  // for compilable pieces (weak orders have full range), so window
  // algorithms are order-dependent here — exactly as with the closure.
  // The compiled descriptor must still encode the same *formula*
  // (l1 || l2): the table's pairwise test must equal the closure's on
  // every row pair.
  PrefPtr uni =
      DisjointUnion(Explicit("color", {{Value("red"), Value("blue")}}),
                    Explicit("color", {{Value("green"), Value("black")}}));
  for (const PrefPtr& p :
       {uni, Dual(uni), Prioritized(uni, Highest("score")),
        DisjointUnion(Lowest("price"), Around("score", 5.0)),
        Intersection(uni, Pos("color", {"blue", "black"}))}) {
    ASSERT_TRUE(ScoreTable::CompilableTerm(p)) << p->ToString();
    const std::optional<ScoreTable> table = ScoreTable::Compile(p, r);
    const LessFn less = p->Bind(r.schema().Project(p->attributes()));
    const std::vector<size_t> cols = r.ResolveColumns(p->attributes());
    std::vector<Tuple> projs;
    for (size_t i = 0; i < r.size(); ++i) {
      projs.push_back(r.RowAt(i).Project(cols));
    }
    size_t mismatches = 0;
    for (size_t x = 0; x < r.size(); ++x) {
      for (size_t y = 0; y < r.size(); ++y) {
        if (table->Less(x, y) != less(projs[x], projs[y])) ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0u) << p->ToString();
  }
}

TEST(ScoreTableTest, ExplicitGraphsCompileOnlyWhenLevelable) {
  // a < b < c is a chain: its order equals its level order.
  PrefPtr chain = Explicit("g", {{Value("a"), Value("b")},
                                 {Value("b"), Value("c")}});
  EXPECT_TRUE(ScoreTable::CompilableTerm(chain));
  // Two unrelated edges: d (level 1) is incomparable to a (level 2), but
  // level comparison would order them — must not compile.
  PrefPtr forest = Explicit("g", {{Value("a"), Value("b")},
                                  {Value("c"), Value("d")}});
  EXPECT_FALSE(ScoreTable::CompilableTerm(forest));
  // The non-levelable graph still evaluates correctly via closures.
  Relation r = testing::StringRelation("g", {"a", "b", "c", "d", "z"});
  EXPECT_TRUE(Bmo(r, forest).SameRows(Bmo(r, forest, kOracle)));
}

TEST(ScoreTableTest, RandomizedTermsMatchClosureBnl) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    CompilableTermGen gen(seed);
    Relation r = MixedRelation(400, seed * 101);
    for (int round = 0; round < 8; ++round) {
      PrefPtr p = gen.Term(2 + round % 2);
      std::vector<size_t> expected = BmoIndices(r, p, kOracle);
      for (BmoAlgorithm algo :
           {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
            BmoAlgorithm::kSortFilter}) {
        EXPECT_EQ(BmoIndices(r, p, {algo}), expected)
            << p->ToString() << " algo=" << BmoAlgorithmName(algo);
      }
    }
  }
}

TEST(ScoreTableTest, ClosureBnlMatchesTheOracle) {
  // MaximaBnl is the one kernel of terms that do not compile; it must
  // agree with MaximaNaive over the distinct projections, NULL cells
  // included. It runs here on the projection index directly, over the
  // generator's terms and over a forest EXPLICIT that does not compile.
  const PrefPtr forest =
      Explicit("color", {{Value("red"), Value("blue")},
                         {Value("green"), Value("black")}});
  ASSERT_FALSE(ScoreTable::CompilableTerm(forest));
  for (uint64_t seed : {11u, 12u, 13u}) {
    CompilableTermGen gen(seed);
    Relation r = MixedRelation(300, seed * 7);
    for (int round = 0; round < 8; ++round) {
      PrefPtr p = round < 6 ? gen.Term(2)
                            : Prioritized(forest, gen.Term(round - 6));
      const ProjectionIndex index = BuildProjectionIndex(r, *p);
      const LessFn less = p->Bind(index.proj_schema);
      EXPECT_EQ(MaximaBnl(index.values, less),
                MaximaNaive(index.values, less))
          << p->ToString();
    }
  }
}

TEST(ScoreTableTest, ScoreChainIsOneColumnWithoutIds) {
  // AROUND(10) ties 5 and 15 in score although the values are distinct
  // (Def. 8 equality is value equality), so its column keeps equality ids
  // and is no score chain; neither is any two-column term.
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Relation r(s);
  r.Add({5, 2});
  r.Add({15, 1});
  r.Add({15, 1});
  for (const PrefPtr& p :
       {Around("a", 10), Pareto(Around("a", 10), Highest("b"))}) {
    auto table = ScoreTable::Compile(p, r);
    ASSERT_TRUE(table.has_value());
    EXPECT_FALSE(table->IsScoreChain()) << p->ToString();
    for (BmoAlgorithm algo :
         {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
          BmoAlgorithm::kSortFilter}) {
      EXPECT_EQ(BmoIndices(r, p, {algo}), (std::vector<size_t>{0, 1, 2}))
          << p->ToString() << " algo=" << BmoAlgorithmName(algo);
    }
  }
  // LOWEST/HIGHEST on a NaN-free numeric column are chains: the answer is
  // the whole top score level, ties included.
  for (const PrefPtr& p : {Highest("a"), Dual(Lowest("a")), Lowest("b")}) {
    auto table = ScoreTable::Compile(p, r);
    ASSERT_TRUE(table.has_value());
    EXPECT_TRUE(table->IsScoreChain()) << p->ToString();
    for (BmoAlgorithm algo :
         {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
          BmoAlgorithm::kSortFilter, BmoAlgorithm::kNaive}) {
      EXPECT_EQ(BmoIndices(r, p, {algo}), (std::vector<size_t>{1, 2}))
          << p->ToString() << " algo=" << BmoAlgorithmName(algo);
    }
  }
}

TEST(ScoreTableTest, NanScoresKeepSfsSoundAndCrashFree) {
  // A SCORE function yielding NaN for some values used to make the SFS
  // sort comparator inconsistent (strict-weak-ordering violation). Blocks
  // with non-finite key values now run the exact BNL window instead.
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  Relation r(s);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 200; ++i) {
    r.Add({Value(int64_t(rng() % 10)), Value(int64_t(rng() % 10))});
  }
  PrefPtr nan_score = Score(
      "a", [](const Value& v) { return *v.numeric() >= 5 ? kNaN : 1.0; },
      "nan_above_5");
  PrefPtr p = Pareto(nan_score, Highest("b"));
  std::vector<size_t> expected = BmoIndices(r, p, kOracle);
  EXPECT_EQ(BmoIndices(r, p, {BmoAlgorithm::kSortFilter}), expected);
  EXPECT_EQ(BmoIndices(r, p, {BmoAlgorithm::kAuto}), expected);
}

TEST(ScoreTableTest, NonNumericMinusInfKeysTieSoundly) {
  // LOWEST scores every non-numeric value -inf; under a Pareto key sum
  // two NULL-price rows share the key although one dominates the other.
  // Regression for the one-sided SFS window missing the tied dominator
  // (non-finite keys demote the block to the exact BNL window).
  Schema s({{"price", ValueType::kInt}, {"power", ValueType::kInt}});
  Relation r(s);
  r.Add({Value(), 10});
  r.Add({Value(), 20});
  r.Add({Value(5), 1});
  PrefPtr p = Pareto(Lowest("price"), Highest("power"));
  std::vector<size_t> expected = BmoIndices(r, p, kOracle);
  EXPECT_EQ(BmoIndices(r, p, {BmoAlgorithm::kSortFilter}), expected);
}

TEST(ScoreTableTest, MinusInfKeyPrefixTiesCannotReorderLaterKeys) {
  // Harder -inf case: the *first* key (a Pareto sum) ties at -inf while a
  // later key sorts the dominatee before its dominator — an inversion,
  // not just a tie, so only the BNL fallback is sound. Row 0 is dominated
  // by row 1 via the Pareto head (NULL p equal, 5 < 7 on b) although its
  // second key (c = 9) sorts it first.
  Schema s({{"p", ValueType::kInt},
            {"b", ValueType::kInt},
            {"c", ValueType::kInt}});
  Relation r(s);
  r.Add({Value(), 5, 9});
  r.Add({Value(), 7, 1});
  r.Add({3, 0, 0});
  PrefPtr p = Prioritized(Pareto(Lowest("p"), Highest("b")), Highest("c"));
  std::vector<size_t> expected = BmoIndices(r, p, kOracle);
  EXPECT_EQ(expected, (std::vector<size_t>{1, 2}));
  EXPECT_EQ(BmoIndices(r, p, {BmoAlgorithm::kSortFilter}), expected);
  EXPECT_EQ(BmoIndices(r, p, {BmoAlgorithm::kAuto}), expected);
}

TEST(ScoreTableTest, DualOfAccumulationsMatchClosure) {
  // The descriptor-level order flip: dual(P (x) Q) = dual(P) (x) dual(Q)
  // (and likewise for &), compiled as per-leaf score negation. Every
  // kernel must agree with the closure evaluation of the outer DUAL.
  Relation r = MixedRelation(400, 77);
  const std::vector<PrefPtr> terms = {
      Dual(Pareto(Lowest("price"), Around("score", 5.0))),
      Dual(Prioritized(Pos("color", {"red"}), Lowest("price"))),
      Prioritized(Dual(Pareto(Lowest("price"), Pos("color", {"blue"}))),
                  Highest("score")),
      Dual(Dual(Pareto(Lowest("price"), Highest("score")))),
      Dual(Pareto(Dual(Lowest("price")), AntiChain("make"))),
  };
  for (const PrefPtr& p : terms) {
    ASSERT_TRUE(ScoreTable::CompilableTerm(p)) << p->ToString();
    std::vector<size_t> expected = BmoIndices(r, p, kOracle);
    for (BmoAlgorithm algo :
         {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
          BmoAlgorithm::kSortFilter}) {
      EXPECT_EQ(BmoIndices(r, p, {algo}), expected)
          << p->ToString() << " algo=" << BmoAlgorithmName(algo);
    }
  }
}

TEST(ScoreTableTest, GroupingTermsCompileViaAntiChain) {
  // Def. 16 grouping device A<-> & P as one compiled term.
  Relation r = MixedRelation(300, 7);
  PrefPtr p = Prioritized(AntiChain("make"), Lowest("price"));
  EXPECT_EQ(BmoIndices(r, p), BmoIndices(r, p, kOracle));
  EXPECT_EQ(BmoIndices(r, p),
            BmoGroupByIndices(r, Lowest("price"), {"make"}, kOracle));
  // Multi-attribute grouping keys groups on value combinations.
  for (const PrefPtr& q :
       {Lowest("price"), Pareto(Lowest("price"), Pos("color", {"red"}))}) {
    EXPECT_EQ(BmoGroupByIndices(r, q, {"make", "color"}),
              BmoGroupByIndices(r, q, {"make", "color"}, kOracle))
        << q->ToString();
  }
}

TEST(ScoreTableTest, FallbackTermsStillEvaluate) {
  // LINEAR_SUM and SUBSET don't compile; every request must
  // transparently run the closure BNL window and agree with the oracle.
  Relation r = testing::IntRelation("x", {1, 2, 3, 4, 5, 6});
  PrefPtr sub = Subset(Lowest("x"), {Tuple({Value(2)}), Tuple({Value(4)}),
                                     Tuple({Value(5)})});
  EXPECT_TRUE(Bmo(r, sub).SameRows(Bmo(r, sub, kOracle)));
  PrefPtr lin =
      LinearSum("x", Lowest("x"), Highest("x"),
                {Value(1), Value(2), Value(3)}, {Value(4), Value(5), Value(6)});
  EXPECT_TRUE(Bmo(r, lin).SameRows(Bmo(r, lin, kOracle)));
}

}  // namespace
}  // namespace prefdb
