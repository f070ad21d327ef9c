// Cross-validation of all BMO algorithms: naive, BNL, sort-filter, divide
// & conquer [KLP75] and the Prop-8-12 decomposition evaluator must agree on
// randomized workloads (parameterized sweep over n, d, correlation).

#include <gtest/gtest.h>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "exec/simd/dominance.h"
#include "test_support.h"

namespace prefdb {
namespace {

PrefPtr SkylinePreference(size_t d) {
  std::vector<PrefPtr> prefs;
  for (size_t i = 0; i < d; ++i) prefs.push_back(Highest("d" + std::to_string(i)));
  return Pareto(prefs);
}

struct SweepParam {
  size_t n;
  size_t d;
  Correlation corr;
};

class AlgorithmAgreementTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AlgorithmAgreementTest, AllAlgorithmsComputeTheSameSkyline) {
  const SweepParam& param = GetParam();
  Relation r = GenerateVectors(param.n, param.d, param.corr, /*seed=*/7);
  PrefPtr p = SkylinePreference(param.d);
  std::vector<size_t> naive = BmoIndices(r, p, {BmoAlgorithm::kNaive});
  for (BmoAlgorithm algo :
       {BmoAlgorithm::kBlockNestedLoop, BmoAlgorithm::kSortFilter,
        BmoAlgorithm::kDivideConquer, BmoAlgorithm::kDecomposition,
        BmoAlgorithm::kAuto}) {
    EXPECT_EQ(BmoIndices(r, p, {algo}), naive)
        << BmoAlgorithmName(algo) << " disagrees on n=" << param.n
        << " d=" << param.d << " " << CorrelationName(param.corr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmAgreementTest,
    ::testing::Values(
        SweepParam{64, 2, Correlation::kIndependent},
        SweepParam{64, 2, Correlation::kAntiCorrelated},
        SweepParam{64, 2, Correlation::kCorrelated},
        SweepParam{256, 3, Correlation::kIndependent},
        SweepParam{256, 3, Correlation::kAntiCorrelated},
        SweepParam{256, 4, Correlation::kCorrelated},
        SweepParam{512, 4, Correlation::kIndependent},
        SweepParam{512, 5, Correlation::kAntiCorrelated},
        SweepParam{1024, 2, Correlation::kIndependent},
        SweepParam{1024, 3, Correlation::kAntiCorrelated}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.n) + "d" +
             std::to_string(info.param.d) + "_" +
             std::string(CorrelationName(info.param.corr) ==
                                 std::string("anti-correlated")
                             ? "anti"
                             : CorrelationName(info.param.corr));
    });

class MixedTermAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixedTermAgreementTest, GeneralTermsAgreeAcrossGenericAlgorithms) {
  // Terms beyond the skyline fragment (POS/NEG, AROUND, prioritized,
  // shared attributes): naive vs BNL vs decomposition vs auto.
  ::prefdb::testing::RandomPreferenceGen gen_x(
      "x", {Value(-2), Value(0), Value(1), Value(3)}, GetParam());
  ::prefdb::testing::RandomPreferenceGen gen_y(
      "y", {Value(-2), Value(0), Value(1), Value(3)}, GetParam() + 50);
  std::mt19937_64 rng(GetParam());
  Relation r(Schema{{"x", ValueType::kInt}, {"y", ValueType::kInt}});
  for (int i = 0; i < 80; ++i) {
    r.Add({Value(static_cast<int>(rng() % 7) - 3),
           Value(static_cast<int>(rng() % 7) - 3)});
  }
  for (int round = 0; round < 10; ++round) {
    PrefPtr px = gen_x.Term(2);
    PrefPtr py = gen_y.Term(2);
    PrefPtr p;
    switch (rng() % 4) {
      case 0: p = Pareto(px, py); break;
      case 1: p = Prioritized(px, py); break;
      case 2: p = Pareto(px, gen_x.Term(1)); break;
      default: p = Prioritized(Pareto(px, py), gen_y.Term(1)); break;
    }
    std::vector<size_t> naive = BmoIndices(r, p, {BmoAlgorithm::kNaive});
    for (BmoAlgorithm algo :
         {BmoAlgorithm::kBlockNestedLoop, BmoAlgorithm::kSortFilter,
          BmoAlgorithm::kDecomposition, BmoAlgorithm::kAuto}) {
      EXPECT_EQ(BmoIndices(r, p, {algo}), naive)
          << BmoAlgorithmName(algo) << " disagrees on " << p->ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedTermAgreementTest,
                         ::testing::Values(2, 4, 6, 10, 12, 14));

TEST(DivideConquerTest, MaximaOnKnownPoints) {
  // Maximize both dims: skyline of a staircase, one row per point.
  const std::vector<double> pts = {1, 9, 2, 8, 3, 7, 3, 9, 0, 0, 9, 1, 9, 1};
  std::vector<bool> max = MaximaDivideConquerFlat(
      pts.data(), 7, 2, 2, simd::ResolveKernel(SimdMode::kAuto));
  EXPECT_FALSE(max[0]);  // (1,9) < (3,9)
  EXPECT_FALSE(max[1]);  // (2,8) < (3,9)
  EXPECT_FALSE(max[2]);  // (3,7) < (3,9)
  EXPECT_TRUE(max[3]);   // (3,9)
  EXPECT_FALSE(max[4]);
  EXPECT_TRUE(max[5]);   // (9,1)
  EXPECT_TRUE(max[6]);   // duplicate of a maximum is also maximal
}

TEST(DivideConquerTest, OneDimensionalMaxima) {
  const std::vector<double> pts = {3, 9, 9, 1};
  std::vector<bool> max = MaximaDivideConquerFlat(
      pts.data(), 4, 1, 1, simd::ResolveKernel(SimdMode::kAuto));
  EXPECT_EQ(max, (std::vector<bool>{false, true, true, false}));
}

TEST(BnlTest, WindowHandlesDominatorArrivingLate) {
  // Rows arranged so a late row evicts several window entries.
  Relation r(Schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  r.Add({1, 2});
  r.Add({2, 1});
  r.Add({3, 3});  // dominates both earlier rows
  std::vector<size_t> idx =
      BmoIndices(r, Pareto(Highest("a"), Highest("b")),
                 {BmoAlgorithm::kBlockNestedLoop});
  EXPECT_EQ(idx, (std::vector<size_t>{2}));
}

TEST(SortFilterTest, FallsBackWithoutSortKeys) {
  Relation r = ::prefdb::testing::StringRelation("c", {"a", "b", "c"});
  // POS has no sort keys; kSortFilter must still be correct (BNL fallback).
  Relation best = Bmo(r, Pos("c", {Value("b")}), {BmoAlgorithm::kSortFilter});
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best.at(0)[0], Value("b"));
}

TEST(AutoTest, PicksDivideConquerForSkylineFragment) {
  // Smoke check through the public API: auto must be correct; the specific
  // choice is covered by benchmarks.
  Relation r = GenerateVectors(200, 3, Correlation::kAntiCorrelated, 3);
  PrefPtr p = SkylinePreference(3);
  EXPECT_EQ(BmoIndices(r, p, {BmoAlgorithm::kAuto}),
            BmoIndices(r, p, {BmoAlgorithm::kNaive}));
}

}  // namespace
}  // namespace prefdb
