// Tests for the cost-based physical planner (eval/physical_plan.h):
// golden plan choices across statistics regimes (correlation, distinct
// counts, injectivity), randomized "chosen plan == reference answer"
// equality, and the pass-through/override semantics every execution
// layer relies on.

#include "eval/physical_plan.h"

#include <gtest/gtest.h>

#include <random>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "datagen/random_terms.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "eval/optimizer.h"
#include "exec/score_table.h"

namespace prefdb {
namespace {

PrefPtr SkylinePref(size_t d) {
  std::vector<PrefPtr> prefs;
  for (size_t i = 0; i < d; ++i) {
    prefs.push_back(Highest("d" + std::to_string(i)));
  }
  return Pareto(prefs);
}

// Plans a workload through the measured path (compile + sampled window
// probe), exactly what BmoIndices and the engine's exec builder do.
PhysicalPlan PlanMeasured(const Relation& r, const PrefPtr& p,
                          const BmoOptions& options = {}) {
  auto table = ScoreTable::Compile(p, r);
  EXPECT_TRUE(table.has_value());
  return PlanPhysical(MeasureTermStats(*table, p, r.size()), options);
}

TEST(PlannerGoldenTest, AntiCorrelatedWideWindowPicksSfs) {
  // PR 4 measured winner on the gated anti-correlated d4 family: the
  // presorted one-sided SFS scan (1.46ms) beats the BNL window (4.05ms)
  // once the window is wide. The sampled probe is what reveals the wide
  // window.
  Relation r = GenerateVectors(8192, 4, Correlation::kAntiCorrelated, 42);
  PhysicalPlan plan = PlanMeasured(r, SkylinePref(4));
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kSortFilter);
  EXPECT_TRUE(plan.stats.measured_window);
}

TEST(PlannerGoldenTest, IndependentNarrowWindowPicksBnl) {
  // PR 4 measured winner on the independent d4 family: tiled SIMD BNL
  // (0.22ms) over SFS, whose presort alone costs ~1ms.
  Relation r = GenerateVectors(8192, 4, Correlation::kIndependent, 42);
  PhysicalPlan plan = PlanMeasured(r, SkylinePref(4));
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(PlannerGoldenTest, CorrelatedDataPicksBnl) {
  // Correlated data has near-singleton windows: nothing amortizes a sort.
  Relation r = GenerateVectors(8192, 4, Correlation::kCorrelated, 42);
  PhysicalPlan plan = PlanMeasured(r, SkylinePref(4));
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
}

TEST(PlannerGoldenTest, ScoreChainPlansOneBnlPass) {
  // LOWEST over a column with 2048 rows tied at the minimum: BNL's window
  // is one score level, so the plan is BNL priced as one streaming pass,
  // however wide the tied level is.
  Schema s({{"d0", ValueType::kInt}});
  Relation r(s);
  std::mt19937_64 rng(9);
  for (int i = 0; i < 8192; ++i) {
    r.Add({Value(int64_t(i % 4 == 0 ? 0 : 1 + rng() % 100000))});
  }
  PrefPtr lowest = Lowest("d0");
  auto table = ScoreTable::Compile(lowest, r);
  ASSERT_TRUE(table.has_value());
  TermStats stats = MeasureTermStats(*table, lowest, r.size());
  EXPECT_TRUE(stats.score_chain);
  PhysicalPlan plan = PlanPhysical(stats, BmoOptions{});
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_LT(plan.estimated_ns, 1e6);
  // AROUND over a discrete domain ties distinct values in score (|x-10|
  // collapses 5 and 15), so its column keeps equality ids: no chain.
  Relation small(s);
  for (int i = 0; i < 8192; ++i) small.Add({Value(int64_t(rng() % 21))});
  PrefPtr around = Around("d0", 10);
  auto around_table = ScoreTable::Compile(around, small);
  ASSERT_TRUE(around_table.has_value());
  EXPECT_FALSE(
      MeasureTermStats(*around_table, around, small.size()).score_chain);
}

TEST(PlannerGoldenTest, NonCompilableTermIsAnUncostedClosurePlan) {
  // A term that does not compile has one kernel, the closure BNL window:
  // kAuto plans it without a cost table, from default (not compilable)
  // block statistics.
  Relation cars = GenerateCars(2000, 5);
  PrefPtr forest = Pareto(
      Explicit("category", {{Value("roadster"), Value("coupe")},
                            {Value("passenger"), Value("van")}}),
      Lowest("price"));
  ASSERT_FALSE(ScoreTable::CompilableTerm(forest));
  PhysicalPlan plan = Optimize(cars, forest).plan;
  EXPECT_FALSE(plan.stats.compilable);
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_TRUE(plan.considered.empty());
  EXPECT_EQ(plan.ExplainCosts(), "");
  EXPECT_EQ(BmoIndices(cars, forest),
            BmoIndices(cars, forest, {BmoAlgorithm::kNaive}));
}

TEST(PlannerGoldenTest, ExplainCostsListsEveryConsideredAlgorithm) {
  Relation r = GenerateVectors(8192, 3, Correlation::kIndependent, 3);
  PhysicalPlan plan = PlanMeasured(r, SkylinePref(3));
  std::string text = plan.ExplainCosts();
  EXPECT_NE(text.find("stats:"), std::string::npos);
  EXPECT_NE(text.find("bnl:"), std::string::npos);
  EXPECT_NE(text.find("sfs:"), std::string::npos);
  EXPECT_NE(text.find("<- chosen"), std::string::npos);
}

TEST(PlannerGoldenTest, FromOptionsIsPassThrough) {
  BmoOptions options;
  options.algorithm = BmoAlgorithm::kSortFilter;
  options.simd = SimdMode::kScalar;
  PhysicalPlan plan = PhysicalPlan::FromOptions(options);
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kSortFilter);
  EXPECT_EQ(plan.simd, SimdMode::kScalar);
  EXPECT_TRUE(plan.considered.empty());
}

// The planner's choice must never change answers: whatever the cost
// model picks across regimes equals the naive reference.
class PlannerEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerEquivalenceTest, ChosenPlanEqualsReferenceAnswer) {
  const uint64_t seed = GetParam();
  RandomTermGen gx("price", {Value(1000), Value(2000), Value(4000)}, seed);
  RandomTermGen gy("mileage", {Value(10), Value(20), Value(40)}, seed + 9);
  Relation cars = GenerateCars(600, seed);
  for (int round = 0; round < 6; ++round) {
    PrefPtr p;
    switch (round % 3) {
      case 0: p = Pareto(gx.Term(1), gy.Term(1)); break;
      case 1: p = Prioritized(gx.Term(1), Pareto(gy.Term(1), gx.Term(1))); break;
      default: p = Dual(Pareto(gx.Term(1), gy.Term(1)));
    }
    std::vector<size_t> reference =
        BmoIndices(cars, p, {BmoAlgorithm::kNaive});
    // kAuto routes through CompileBlock -> PlanPhysical -> kernels.
    EXPECT_EQ(BmoIndices(cars, p, {}), reference) << p->ToString();
    // And the full optimizer pipeline (rewrites + plan) agrees too.
    EXPECT_TRUE(
        BmoOptimized(cars, p).SameRows(cars.SelectRows(reference)))
        << p->ToString();
  }
  // Correlation regimes over vector data, larger blocks.
  for (Correlation corr :
       {Correlation::kIndependent, Correlation::kAntiCorrelated,
        Correlation::kCorrelated}) {
    Relation r = GenerateVectors(5000, 3, corr, seed);
    PrefPtr p = SkylinePref(3);
    EXPECT_EQ(BmoIndices(r, p, {}),
              BmoIndices(r, p, {BmoAlgorithm::kBlockNestedLoop}))
        << CorrelationName(corr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerEquivalenceTest,
                         ::testing::Values(3, 17, 29));

}  // namespace
}  // namespace prefdb
