// Tests for the preference query optimizer (eval/optimizer.h): rewrites
// preserve answers (Prop 7), the cost model picks the measured-winner
// plans across statistics regimes, EXPLAIN reports the per-algorithm
// cost table.

#include "eval/optimizer.h"

#include <gtest/gtest.h>

#include <set>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "datagen/random_terms.h"
#include "datagen/vectors.h"
#include "engine/engine.h"
#include "psql/parser.h"
#include "psql/translator.h"

namespace prefdb {
namespace {

TEST(ChooserTest, SmallInputsUseBnl) {
  Relation r = GenerateCars(100, 1);
  PhysicalPlan c = Optimize(r, Lowest("price")).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, SkylineFragmentPrefersTiledSimdBnl) {
  // Independent 3-d data keeps the measured window narrow: the tiled
  // SIMD BNL window beats a presort.
  Relation r = GenerateVectors(5000, 3, Correlation::kIndependent, 1);
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Lowest("d2")});
  PhysicalPlan c = Optimize(r, p).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_NE(c.rationale.find("SIMD"), std::string::npos);
  EXPECT_GT(c.estimated_ns, 0.0);
}

TEST(ChooserTest, ChainHeadPlansACompiledKernel) {
  // A prioritized chain head (the Prop 11 structure) compiles like any
  // other term: the cost model compares the compiled kernels only, and
  // the BNL window over the lex descriptor stays near the head's best
  // block, so it wins.
  Relation r = GenerateCars(5000, 2);
  PrefPtr p = Prioritized(Lowest("price"), Pos("color", {"red"}));
  PhysicalPlan c = Optimize(r, p).plan;
  ASSERT_EQ(c.considered.size(), 2u);
  EXPECT_EQ(c.considered[0].algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_EQ(c.considered[1].algorithm, BmoAlgorithm::kSortFilter);
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, LevelTermsStayEligibleForVectorizedSfs) {
  // POS leaves have no closure sort keys, but they dict-encode as level
  // columns in the score table, which keeps SFS eligible; with the tiny
  // window of a 2-level x 2-level term, the BNL window is still the
  // cheaper plan.
  Relation r = GenerateCars(5000, 4);
  PrefPtr p = Pareto(Pos("color", {"red"}), Pos("make", {"Audi"}));
  PhysicalPlan c = Optimize(r, p).plan;
  bool sfs_eligible = false;
  for (const AlgorithmCost& cost : c.considered) {
    if (cost.algorithm == BmoAlgorithm::kSortFilter) {
      sfs_eligible = cost.eligible;
    }
  }
  EXPECT_TRUE(sfs_eligible);
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, UnstructuredTermsFallBackToBnl) {
  Relation r = GenerateCars(5000, 4);
  // Intersection aggregations compile but derive no sort keys and are
  // never flat-Pareto, so BNL is the only eligible kernel.
  PrefPtr hard = Intersection(Pos("color", {"red"}), Neg("color", {"blue"}));
  EXPECT_EQ(Optimize(r, hard).plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, ExplicitAlgorithmShortCircuitsTheCostModel) {
  Relation r = GenerateCars(2000, 9);
  BmoOptions forced;
  forced.algorithm = BmoAlgorithm::kSortFilter;
  PhysicalPlan c = Optimize(r, Lowest("price"), forced).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kSortFilter);
  EXPECT_TRUE(c.considered.empty());
  EXPECT_NE(c.rationale.find("explicitly"), std::string::npos);
}

TEST(OptimizeTest, RewritesAreReportedAndSound) {
  Relation r = GenerateCars(2000, 5);
  PrefPtr messy = Pareto(Dual(Dual(Lowest("price"))), Lowest("price"));
  OptimizedQuery q = Optimize(r, messy);
  EXPECT_FALSE(q.rewrites.empty());
  EXPECT_TRUE(q.simplified->StructurallyEquals(*Lowest("price")));
  EXPECT_TRUE(Bmo(r, messy).SameRows(BmoOptimized(r, messy)));
}

TEST(OptimizeTest, ExplainMentionsEverything) {
  Relation r = GenerateCars(2000, 5);
  OptimizedQuery q =
      Optimize(r, Pareto(Dual(Highest("price")), Lowest("mileage")));
  std::string text = q.Explain();
  EXPECT_NE(text.find("preference:"), std::string::npos);
  EXPECT_NE(text.find("algorithm:"), std::string::npos);
  EXPECT_NE(text.find("rewrites"), std::string::npos);
  // The cost model's comparison table: statistics plus one estimate per
  // considered algorithm, marking the choice.
  EXPECT_NE(text.find("stats:"), std::string::npos);
  EXPECT_NE(text.find("cost model:"), std::string::npos);
  EXPECT_NE(text.find("<- chosen"), std::string::npos);
  EXPECT_NE(text.find("est "), std::string::npos);
}

TEST(OptimizeTest, PlanIsTheOneTheEngineExplains) {
  // Optimize plans the same compiled block a query runs, so its algorithm
  // (and the rationale quoting its estimate) is the one the engine's
  // EXPLAIN reports for the same term and table.
  const std::vector<std::pair<Relation, std::string>> cases = {
      {GenerateCars(5000, 2), "LOWEST(price) AND LOWEST(mileage)"},
      {GenerateCars(5000, 2), "LOWEST(price)"},
      {GenerateVectors(8192, 4, Correlation::kAntiCorrelated, 42),
       "HIGHEST(d0) AND HIGHEST(d1) AND HIGHEST(d2) AND HIGHEST(d3)"},
      {GenerateVectors(8192, 4, Correlation::kIndependent, 42),
       "HIGHEST(d0) AND HIGHEST(d1) AND HIGHEST(d2) AND HIGHEST(d3)"},
  };
  std::set<BmoAlgorithm> chosen;
  for (const auto& [r, term] : cases) {
    Engine engine;
    engine.RegisterTable("t", r);
    const psql::QueryResult res =
        engine.Execute("EXPLAIN SELECT * FROM t PREFERRING " + term);
    const PhysicalPlan plan =
        Optimize(r, psql::TranslatePreferenceChain(
                        psql::Parse("SELECT * FROM t PREFERRING " + term)
                            .preferring))
            .plan;
    const std::string line = "algorithm: " +
                             std::string(BmoAlgorithmName(plan.algorithm)) +
                             " -- " + plan.rationale + "\n";
    EXPECT_NE(res.plan_details.find(line), std::string::npos)
        << term << "\n" << res.plan_details;
    chosen.insert(plan.algorithm);
  }
  // The anti-correlated block's sampled window sends it to SFS.
  EXPECT_EQ(chosen, (std::set<BmoAlgorithm>{BmoAlgorithm::kBlockNestedLoop,
                                            BmoAlgorithm::kSortFilter}));
}

class OptimizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerPropertyTest, OptimizedAnswerEqualsDirectAnswer) {
  RandomTermGen gx("price", {Value(1000), Value(2000), Value(4000)},
                   GetParam());
  RandomTermGen gy("mileage", {Value(10), Value(20), Value(40)},
                   GetParam() + 5);
  Relation cars = GenerateCars(700, GetParam());
  for (int round = 0; round < 8; ++round) {
    PrefPtr p;
    switch (round % 4) {
      case 0: p = Pareto(gx.Term(1), gy.Term(1)); break;
      case 1: p = Prioritized(gx.Term(1), gy.Term(1)); break;
      case 2: p = Pareto(gx.Term(2), gy.Term(1)); break;
      default: p = Prioritized(Pareto(gx.Term(1), gy.Term(1)), gx.Term(1));
    }
    EXPECT_TRUE(Bmo(cars, p, {BmoAlgorithm::kNaive})
                    .SameRows(BmoOptimized(cars, p)))
        << p->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace prefdb
