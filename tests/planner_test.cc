// Tests for the physical planner (eval/physical_plan.h) and the run-time
// BNL -> SFS switch it leaves to kAuto (ScoreTable::Maxima): where the
// pass switches across correlation regimes, randomized "kAuto == naive
// reference" equality, and the pass-through/override semantics every
// execution layer relies on.

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

// Runs kAuto over the table compiled from every row of `r`, as BmoIndices
// does, and returns what the pass ran.
MaximaRun RunAuto(const Relation& r, const PrefPtr& p) {
  auto table = ScoreTable::Compile(p, r);
  EXPECT_TRUE(table.has_value());
  MaximaRun run;
  if (table) table->Maxima(BmoAlgorithm::kAuto, {}, &run);
  return run;
}

TEST(PlannerGoldenTest, AntiCorrelatedWideWindowSwitchesToSfs) {
  // On the anti-correlated d4 family the BNL window outgrows its bound
  // within the first few hundred rows, and the presorted SFS scan
  // finishes the pass (SFS beats BNL there about 3x).
  Relation r = GenerateVectors(8192, 4, Correlation::kAntiCorrelated, 42);
  const MaximaRun run = RunAuto(r, SkylinePref(4));
  EXPECT_TRUE(run.switched());
  EXPECT_EQ(run.finished, BmoAlgorithm::kSortFilter);
  EXPECT_GT(run.switch_window, run.bound);
  EXPECT_LT(run.switch_row, r.size() / 4);
  EXPECT_GE(run.maxima, run.switch_window / 2);
}

TEST(PlannerGoldenTest, IndependentNarrowWindowStaysOnBnl) {
  // Independent d4: the skyline stays far below the bound, so the pass is
  // BNL throughout.
  Relation r = GenerateVectors(8192, 4, Correlation::kIndependent, 42);
  const MaximaRun run = RunAuto(r, SkylinePref(4));
  EXPECT_FALSE(run.switched());
  EXPECT_EQ(run.finished, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_GT(run.bound, run.maxima);
}

TEST(PlannerGoldenTest, CorrelatedDataStaysOnBnl) {
  // Correlated data has near-singleton windows: nothing amortizes a sort.
  Relation r = GenerateVectors(8192, 4, Correlation::kCorrelated, 42);
  EXPECT_FALSE(RunAuto(r, SkylinePref(4)).switched());
}

TEST(PlannerGoldenTest, ScoreChainPlansOneBnlPass) {
  // LOWEST over a column with 2048 rows tied at the minimum: BNL's window
  // is one score level, so the plan is BNL and the pass cannot switch,
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
  EXPECT_TRUE(table->IsScoreChain());
  EXPECT_EQ(table->SwitchBound(), 0u);
  const PhysicalPlan plan = Optimize(r, lowest).plan;
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_NE(plan.rationale.find("score chain"), std::string::npos);
  const MaximaRun run = RunAuto(r, lowest);
  EXPECT_EQ(run.bound, 0u);
  EXPECT_EQ(run.maxima, 2048u);
  EXPECT_EQ(run.ToString(), "");
  // AROUND over a discrete domain ties distinct values in score (|x-10|
  // collapses 5 and 15), so its column keeps equality ids: no chain, and
  // kAuto may switch.
  Relation small(s);
  for (int i = 0; i < 8192; ++i) small.Add({Value(int64_t(rng() % 21))});
  PrefPtr around = Around("d0", 10);
  auto around_table = ScoreTable::Compile(around, small);
  ASSERT_TRUE(around_table.has_value());
  EXPECT_FALSE(around_table->IsScoreChain());
  EXPECT_GT(around_table->SwitchBound(), 0u);
}

TEST(PlannerGoldenTest, NonCompilableTermIsAClosurePlan) {
  // A term that does not compile has one kernel, the closure BNL window:
  // kAuto plans it as BNL.
  Relation cars = GenerateCars(2000, 5);
  PrefPtr forest = Pareto(
      Explicit("category", {{Value("roadster"), Value("coupe")},
                            {Value("passenger"), Value("van")}}),
      Lowest("price"));
  ASSERT_FALSE(ScoreTable::CompilableTerm(forest));
  PhysicalPlan plan = Optimize(cars, forest).plan;
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kBlockNestedLoop);
  EXPECT_NE(plan.rationale.find("closure"), std::string::npos);
  EXPECT_EQ(BmoIndices(cars, forest),
            BmoIndices(cars, forest, {BmoAlgorithm::kNaive}));
}

TEST(PlannerGoldenTest, RunReportsTheSwitchPoint) {
  // EXPLAIN's line is what the pass measured.
  MaximaRun run;
  run.rows = 4096;
  run.bound = 160;
  run.maxima = 182;
  EXPECT_EQ(run.ToString(), "no switch (bound 160, final window 182)");
  run.finished = BmoAlgorithm::kSortFilter;
  run.switch_row = 274;
  run.switch_window = 161;
  run.maxima = 677;
  EXPECT_EQ(run.ToString(),
            "switch: bnl→sfs at row 274 of 4096, window 161 (final 677)");
  EXPECT_EQ(MaximaRun{}.ToString(), "");
}

TEST(PlannerGoldenTest, FromOptionsIsPassThrough) {
  BmoOptions options;
  options.algorithm = BmoAlgorithm::kSortFilter;
  options.simd = SimdMode::kScalar;
  PhysicalPlan plan = PhysicalPlan::FromOptions(options);
  EXPECT_EQ(plan.algorithm, BmoAlgorithm::kSortFilter);
  EXPECT_EQ(plan.simd, SimdMode::kScalar);
}

// The switch must never change answers: wherever kAuto hands over to SFS
// across regimes, its answer equals the naive reference.
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
    // kAuto routes through CompileBlock -> the adaptive kernel.
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
