// Tests for the preference query optimizer (eval/optimizer.h): rewrites
// preserve answers (Prop 7), the cost model picks the measured-winner
// plans across statistics regimes, EXPLAIN reports the per-algorithm
// cost table.

#include "eval/optimizer.h"

#include <gtest/gtest.h>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "datagen/random_terms.h"
#include "datagen/vectors.h"

namespace prefdb {
namespace {

TEST(ChooserTest, SmallInputsUseBnl) {
  Relation r = GenerateCars(100, 1);
  PhysicalPlan c = ChooseAlgorithm(r, Lowest("price"));
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, SkylineFragmentPrefersTiledSimdBnl) {
  // With the batch dominance kernels, the tiled SIMD BNL window beats
  // the KLP75 recursion on the estimated windows of every measured
  // workload.
  Relation r = GenerateVectors(5000, 3, Correlation::kIndependent, 1);
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Lowest("d2")});
  PhysicalPlan c = ChooseAlgorithm(r, p);
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_NE(c.rationale.find("SIMD"), std::string::npos);
  EXPECT_GT(c.estimated_ns, 0.0);
}

TEST(ChooserTest, ChainHeadMakesDecompositionEligible) {
  // A prioritized chain head is the Prop 11 structure: the cascade is
  // always *considered* with a cost estimate. With the compiled kernels
  // the BNL window over the lex descriptor is far cheaper (the window
  // stays near the head's best block), so the cascade is not chosen —
  // the cost model's honest correction of the old structural heuristic.
  Relation r = GenerateCars(5000, 2);
  PrefPtr p = Prioritized(Lowest("price"), Pos("color", {"red"}));
  PhysicalPlan c = ChooseAlgorithm(r, p);
  bool decomposition_considered = false;
  for (const AlgorithmCost& cost : c.considered) {
    if (cost.algorithm == BmoAlgorithm::kDecomposition) {
      decomposition_considered = cost.eligible && cost.est_ns > 0.0;
    }
  }
  EXPECT_TRUE(decomposition_considered);
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kBlockNestedLoop);
  // Non-chain heads are not eligible at all.
  PhysicalPlan d = ChooseAlgorithm(r, Pareto(Lowest("price"), Lowest("mileage")));
  for (const AlgorithmCost& cost : d.considered) {
    if (cost.algorithm == BmoAlgorithm::kDecomposition) {
      EXPECT_FALSE(cost.eligible);
    }
  }
}

TEST(ChooserTest, SelectiveChainHeadOverClosureTailUsesDecomposition) {
  // The cascade's winning regime: a selective chain head in front of a
  // term that only evaluates through closures (non-compilable tail) with
  // a wide estimated window — sorting once and cascading into the best
  // block beats paying closure dominance tests across the whole pool.
  // That is the sequential regime: one worker.
  TermStats stats;
  stats.input_rows = 50000;
  stats.distinct_values = 50000;
  stats.dims = 4;
  stats.compilable = false;
  stats.chain_head = true;
  stats.head_distinct = 5;
  stats.est_window = 130.0;
  BmoOptions sequential;
  sequential.num_threads = 1;
  PhysicalPlan plan = PlanPhysical(stats, sequential);
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kDecomposition);
  EXPECT_NE(plan.rationale.find("Prop 11"), std::string::npos);

  // With four workers, splitting the closure BNL across partitions beats
  // the cascade's single-threaded sort.
  BmoOptions four_workers;
  four_workers.num_threads = 4;
  EXPECT_EQ(PlanPhysical(stats, four_workers).algorithm,
            BmoAlgorithm::kParallel);
}

TEST(ChooserTest, LevelTermsStayEligibleForVectorizedSfs) {
  // POS leaves have no closure sort keys, but they dict-encode as level
  // columns in the score table, which keeps SFS eligible; with the tiny
  // estimated window of a 2-level x 2-level term, the BNL window is
  // still the cheaper plan.
  Relation r = GenerateCars(5000, 4);
  PrefPtr p = Pareto(Pos("color", {"red"}), Pos("make", {"Audi"}));
  PhysicalPlan c = ChooseAlgorithm(r, p);
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
  // With vectorization disabled the same level term has no sort keys.
  PrefPtr p = Pareto(Pos("color", {"red"}), Pos("make", {"Audi"}));
  BmoOptions no_vector;
  no_vector.vectorize = false;
  EXPECT_EQ(ChooseAlgorithm(r, p, no_vector).algorithm,
            BmoAlgorithm::kBlockNestedLoop);
  // Intersection aggregations compile but derive no sort keys and are
  // never flat-Pareto, so BNL is the only eligible kernel.
  PrefPtr hard = Intersection(Pos("color", {"red"}), Neg("color", {"blue"}));
  EXPECT_EQ(ChooseAlgorithm(r, hard).algorithm,
            BmoAlgorithm::kBlockNestedLoop);
}

TEST(ChooserTest, ExplicitAlgorithmShortCircuitsTheCostModel) {
  Relation r = GenerateCars(2000, 9);
  BmoOptions forced;
  forced.algorithm = BmoAlgorithm::kSortFilter;
  PhysicalPlan c = ChooseAlgorithm(r, Lowest("price"), forced);
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
