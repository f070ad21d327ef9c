// Tests for the preference query optimizer (eval/optimizer.h): rewrites
// preserve answers (Prop 7), kAuto plans an adaptive BNL -> SFS pass
// where the table can switch and BNL elsewhere, EXPLAIN reports the plan
// and, from the engine, where the pass switched.

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
#include "exec/score_table.h"
#include "psql/parser.h"
#include "psql/translator.h"

namespace prefdb {
namespace {

TEST(ChooserTest, SmallInputsUseBnl) {
  Relation r = GenerateCars(100, 1);
  PhysicalPlan c = Optimize(r, Lowest("price")).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, SkylineFragmentPlansTheAdaptivePass) {
  // A compiled Pareto skyline with sort keys: kAuto stays kAuto, and the
  // kernel picks BNL or SFS while it runs. Independent 3-d data keeps the
  // window narrow, so the pass never leaves BNL.
  Relation r = GenerateVectors(5000, 3, Correlation::kIndependent, 1);
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Lowest("d2")});
  PhysicalPlan c = Optimize(r, p).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kAuto);
  EXPECT_NE(c.rationale.find("SFS presort"), std::string::npos);
  auto table = ScoreTable::Compile(p, r);
  ASSERT_TRUE(table.has_value());
  MaximaRun run;
  table->Maxima(c.algorithm, c, &run);
  EXPECT_FALSE(run.switched());
  EXPECT_EQ(run.finished, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, ChainHeadPlansACompiledKernel) {
  // A prioritized chain head (the Prop 11 structure) compiles like any
  // other term, with two sort keys, so kAuto plans the adaptive pass; the
  // BNL window over the lex descriptor stays near the head's best block,
  // so it never switches.
  Relation r = GenerateCars(5000, 2);
  PrefPtr p = Prioritized(Lowest("price"), Pos("color", {"red"}));
  PhysicalPlan c = Optimize(r, p).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kAuto);
  auto table = ScoreTable::Compile(p, r);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->num_sort_keys(), 2u);
  MaximaRun run;
  table->Maxima(c.algorithm, c, &run);
  EXPECT_FALSE(run.switched());
}

TEST(ChooserTest, LevelTermsStayEligibleForVectorizedSfs) {
  // POS leaves have no closure sort keys, but they dict-encode as level
  // columns in the score table, which keeps SFS eligible: kAuto plans the
  // adaptive pass. With the tiny window of a 2-level x 2-level term, it
  // never leaves BNL.
  Relation r = GenerateCars(5000, 4);
  PrefPtr p = Pareto(Pos("color", {"red"}), Pos("make", {"Audi"}));
  PhysicalPlan c = Optimize(r, p).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kAuto);
  EXPECT_EQ(Bmo(r, p).size(), Bmo(r, p, {BmoAlgorithm::kNaive}).size());
}

TEST(ChooserTest, UnstructuredTermsFallBackToBnl) {
  Relation r = GenerateCars(5000, 4);
  // A disjoint union derives no sort key (one side's strict improvement
  // leaves the summed key unordered), so BNL is the only kernel.
  PrefPtr split = DisjointUnion(Pos("color", {"red"}), Neg("make", {"Audi"}));
  EXPECT_EQ(Optimize(r, split).plan.algorithm,
            BmoAlgorithm::kBlockNestedLoop);
  // An intersection keys like Pareto (both sides improve strictly), so
  // kAuto plans the adaptive pass.
  PrefPtr hard = Intersection(Pos("color", {"red"}), Neg("color", {"blue"}));
  EXPECT_EQ(Optimize(r, hard).plan.algorithm, BmoAlgorithm::kAuto);
  EXPECT_TRUE(Bmo(r, hard).SameRows(Bmo(r, hard, {BmoAlgorithm::kNaive})));
}

TEST(ChooserTest, ExplicitAlgorithmShortCircuitsTheCostModel) {
  Relation r = GenerateCars(2000, 9);
  BmoOptions forced;
  forced.algorithm = BmoAlgorithm::kSortFilter;
  PhysicalPlan c = Optimize(r, Lowest("price"), forced).plan;
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kSortFilter);
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
  // The planned algorithm and why: an adaptive pass, no estimate.
  EXPECT_NE(text.find("algorithm: auto -- BNL window, finished by an SFS "
                      "presort once it holds more than "),
            std::string::npos)
      << text;
}

TEST(OptimizeTest, PlanIsTheOneTheEngineExplains) {
  // Optimize plans the same compiled block a query runs, so its algorithm
  // (and the rationale quoting its switch bound) is the one the engine's
  // EXPLAIN reports for the same term and table. The engine adds what
  // the pass ran.
  const std::vector<std::pair<Relation, std::string>> cases = {
      {GenerateCars(5000, 2), "LOWEST(price) AND LOWEST(mileage)"},
      {GenerateCars(5000, 2), "LOWEST(price)"},
      {GenerateVectors(8192, 4, Correlation::kAntiCorrelated, 42),
       "HIGHEST(d0) AND HIGHEST(d1) AND HIGHEST(d2) AND HIGHEST(d3)"},
      {GenerateVectors(8192, 4, Correlation::kIndependent, 42),
       "HIGHEST(d0) AND HIGHEST(d1) AND HIGHEST(d2) AND HIGHEST(d3)"},
  };
  std::set<BmoAlgorithm> chosen;
  size_t switched = 0;
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
    if (res.plan_details.find("switch: bnl→sfs") != std::string::npos) {
      ++switched;
      EXPECT_NE(res.plan.find(", sfs, kernel=sfs["), std::string::npos)
          << res.plan;
    }
  }
  // The LOWEST chain plans BNL, the others the adaptive pass; of those,
  // only the anti-correlated block's window grows wide enough to switch.
  EXPECT_EQ(chosen, (std::set<BmoAlgorithm>{BmoAlgorithm::kBlockNestedLoop,
                                            BmoAlgorithm::kAuto}));
  EXPECT_EQ(switched, 1u);
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
