// SIMD kernel equivalence suite (exec/simd/dominance.h): the batch
// scalar and AVX2 dominance kernels and the tiled BNL window loop must
// return exactly the closure-based answer for every compilable term —
// randomized across Pareto/prioritized/layered/pos-neg/numeric leaves,
// including NULL and NaN columns, ragged tails (N not a multiple of the
// lane width), forced-algorithm paths (BNL/SFS/D&C) and the parallel
// engine's shared-table merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <vector>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "exec/parallel_bmo.h"
#include "exec/score_table.h"
#include "exec/simd/dominance.h"
#include "test_support.h"

namespace prefdb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

BmoOptions WithKernel(BmoAlgorithm algo, SimdMode simd,
                      size_t tile = 0) {
  BmoOptions options;
  options.algorithm = algo;
  options.vectorize = true;
  options.simd = simd;
  options.bnl_tile_rows = tile;
  return options;
}

// The reference answer: the closure path's naive exhaustive test.
BmoOptions Closure(BmoAlgorithm algo = BmoAlgorithm::kNaive) {
  BmoOptions options;
  options.algorithm = algo;
  options.vectorize = false;
  return options;
}

// The kernel modes every equivalence check sweeps. kAvx2 degrades to the
// batch scalar kernels on machines without AVX2, which still exercises
// the dispatch path.
std::vector<SimdMode> KernelModes() {
  return {SimdMode::kScalar, SimdMode::kAvx2};
}

// A relation with level-friendly string columns and numeric columns,
// including NULLs and NaN in the numeric ones.
Relation MixedRelation(size_t n, uint64_t seed, bool with_nan) {
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
    if (with_nan && rng() % 11 == 0) score = Value(kNaN);
    r.Add(Tuple({color, make, price, score}));
  }
  return r;
}

// Random compilable terms over MixedRelation's columns (the fragment the
// score table compiles; mirrors score_table_test's generator).
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

std::vector<size_t> Rows(const Relation& r, const PrefPtr& p,
                         const BmoOptions& options) {
  return BmoIndices(r, p, options);
}

TEST(SimdKernelTest, RandomTermsMatchClosureAcrossKernels) {
  CompilableTermGen gen(7);
  for (int round = 0; round < 30; ++round) {
    Relation r = MixedRelation(300 + 17 * round, 1000 + round,
                               /*with_nan=*/round % 3 == 0);
    PrefPtr p = gen.Term(3);
    std::vector<size_t> expected = Rows(r, p, Closure());
    for (SimdMode mode : KernelModes()) {
      EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kBlockNestedLoop, mode)),
                expected)
          << "term=" << p->ToString() << " simd=" << SimdModeName(mode);
      EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kSortFilter, mode)),
                expected)
          << "term=" << p->ToString() << " simd=" << SimdModeName(mode);
    }
  }
}

TEST(SimdKernelTest, RaggedTailsEveryResidue) {
  // N % kLanes covers every residue, including blocks smaller than one
  // lane chunk and the empty window edge.
  CompilableTermGen gen(21);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 31u, 63u, 65u, 127u}) {
    Relation r = MixedRelation(n, 99 + n, /*with_nan=*/n % 2 == 0);
    PrefPtr p = gen.Term(2);
    std::vector<size_t> expected = Rows(r, p, Closure());
    for (SimdMode mode : KernelModes()) {
      EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kBlockNestedLoop, mode)),
                expected)
          << "n=" << n << " term=" << p->ToString()
          << " simd=" << SimdModeName(mode);
    }
  }
}

TEST(SimdKernelTest, TiledEqualsUntiledBnl) {
  // Tiny tiles force the tile-reduce-then-merge path from the first
  // window overflow; the result must be identical to the untiled scan
  // (and to the closure answer).
  CompilableTermGen gen(5);
  for (int round = 0; round < 10; ++round) {
    Relation r = MixedRelation(700, 400 + round, /*with_nan=*/round % 2);
    PrefPtr p = gen.Term(3);
    std::vector<size_t> expected = Rows(r, p, Closure());
    for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
      for (size_t tile : {8u, 64u, 100000u}) {
        EXPECT_EQ(
            Rows(r, p, WithKernel(BmoAlgorithm::kBlockNestedLoop, mode, tile)),
            expected)
            << "term=" << p->ToString() << " simd=" << SimdModeName(mode)
            << " tile=" << tile;
      }
    }
  }
}

TEST(SimdKernelTest, SkylineDivideConquerAcrossKernels) {
  // The D&C base-case blocks run through the batch kernels; the flags
  // must match the closure naive oracle.
  for (size_t d : {2u, 3u, 5u}) {
    Relation r = GenerateVectors(2000, d, Correlation::kAntiCorrelated, 11);
    std::vector<PrefPtr> prefs;
    for (size_t i = 0; i < d; ++i) {
      prefs.push_back(Highest("d" + std::to_string(i)));
    }
    PrefPtr p = Pareto(prefs);
    std::vector<size_t> expected =
        Rows(r, p, Closure(BmoAlgorithm::kNaive));
    for (SimdMode mode : KernelModes()) {
      EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kDivideConquer, mode)),
                expected)
          << "d=" << d << " simd=" << SimdModeName(mode);
    }
  }
}

TEST(SimdKernelTest, ParallelSharedTableAcrossKernels) {
  Relation r = GenerateVectors(20000, 3, Correlation::kIndependent, 3);
  PrefPtr p = Prioritized(
      Pareto(Highest("d0"), Highest("d1")), Lowest("d2"));
  ProjectionIndex proj = BuildProjectionIndex(r, *p);
  const size_t m = proj.values.size();
  std::optional<ScoreTable> table =
      ScoreTable::Compile(p, Relation(proj.proj_schema, proj.values));
  ASSERT_TRUE(table.has_value());
  PhysicalPlan closure_plan;
  closure_plan.min_partition_size = 512;
  std::vector<bool> expected = MaximaParallel(
      proj.values.data(), m, p, proj.proj_schema, closure_plan, nullptr);
  for (SimdMode mode : KernelModes()) {
    PhysicalPlan plan;
    plan.min_partition_size = 512;
    plan.simd = mode;
    plan.bnl_tile_rows = 256;  // exercise tiling inside partitions
    EXPECT_EQ(
        MaximaParallel(nullptr, m, p, proj.proj_schema, plan, &*table),
        expected)
        << "simd=" << SimdModeName(mode);
  }
}

TEST(SimdKernelTest, ForcedAvx2DegradesGracefully) {
  // On machines without AVX2 the forced mode must silently run the batch
  // scalar kernels; on machines with it, both must agree anyway.
  Relation r = MixedRelation(500, 77, /*with_nan=*/true);
  PrefPtr p = Pareto(Lowest("price"), Around("score", 3.0));
  EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kBlockNestedLoop,
                                  SimdMode::kAvx2)),
            Rows(r, p, WithKernel(BmoAlgorithm::kBlockNestedLoop,
                                  SimdMode::kScalar)));
  const simd::KernelOps& ops = simd::ResolveKernel(SimdMode::kAuto);
  if (simd::Avx2Available()) {
    EXPECT_STREQ(ops.name, "avx2");
  } else {
    EXPECT_STREQ(ops.name, "scalar");
  }
}

TEST(SimdKernelTest, AllNullAndConstantColumns) {
  // Degenerate blocks: every value NULL (unscorable, -inf fast paths) or
  // a single equality class per column.
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kDouble}});
  Relation r(s);
  for (int i = 0; i < 37; ++i) r.Add(Tuple({Value(), Value(1.5)}));
  PrefPtr p = Pareto(Lowest("a"), Highest("b"));
  std::vector<size_t> expected = Rows(r, p, Closure());
  for (SimdMode mode : KernelModes()) {
    EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kBlockNestedLoop, mode)),
              expected);
    EXPECT_EQ(Rows(r, p, WithKernel(BmoAlgorithm::kSortFilter, mode)),
              expected);
  }
}

TEST(SimdKernelTest, TablesWithAndWithoutIdMatrixMatchTheOracle) {
  // Two terms at the id-matrix boundary. LOWEST/HIGHEST scores are
  // injective on values, so no column needs the id test and the table
  // builds no id matrix (Ids() is null). AROUND(50) scores 45 and 55
  // alike although the values differ: exactly that one column needs ids.
  // Every table entry point must agree with the closure naive oracle
  // either way; under ASan a dereferenced null id row fails loudly.
  std::mt19937_64 rng(41);
  Schema s({{"x", ValueType::kInt},
            {"y", ValueType::kDouble},
            {"z", ValueType::kInt}});
  Relation r(s);
  for (int i = 0; i < 300; ++i) {
    r.Add(Tuple({Value(int64_t(rng() % 120)), Value(double(rng() % 90) / 3),
                 Value(int64_t(rng() % 101))}));
  }
  const std::vector<std::pair<PrefPtr, size_t>> cases = {
      {Pareto(Lowest("x"), Highest("y")), 0},
      {Pareto(Lowest("x"), Around("z", 50.0)), 1},
  };
  for (const auto& [p, id_columns] : cases) {
    SCOPED_TRACE(p->ToString());
    ProjectionIndex proj = BuildProjectionIndex(r, *p);
    const size_t m = proj.values.size();
    const LessFn less = p->Bind(proj.proj_schema);
    std::optional<ScoreTable> table =
        ScoreTable::Compile(p, Relation(proj.proj_schema, proj.values));
    ASSERT_TRUE(table.has_value());
    const std::vector<uint8_t>& use_ids = table->program().use_ids;
    EXPECT_EQ(static_cast<size_t>(
                  std::count(use_ids.begin(), use_ids.end(), 1)),
              id_columns);
    // The id matrix exists exactly when some column reads it.
    const size_t matrix_bytes = m * table->cols() * sizeof(double);
    const size_t id_bytes = m * table->cols() * sizeof(uint32_t);
    if (id_columns == 0) {
      EXPECT_LT(table->HeapBytes(), matrix_bytes + id_bytes);
    } else {
      EXPECT_GE(table->HeapBytes(), matrix_bytes + id_bytes);
    }

    const std::vector<bool> expected = MaximaNaive(proj.values, less);
    for (size_t x = 0; x < m; ++x) {
      for (size_t y = 0; y < m; ++y) {
        ASSERT_EQ(table->Less(x, y), less(proj.values[x], proj.values[y]))
            << x << " vs " << y;
      }
    }
    std::vector<size_t> all(m);
    std::iota(all.begin(), all.end(), 0);
    for (size_t x = 0; x < m; ++x) {
      const size_t dominator = table->FindDominator(x, all);
      if (expected[x]) {
        EXPECT_EQ(dominator, static_cast<size_t>(-1)) << x;
      } else {
        ASSERT_LT(dominator, m) << x;
        EXPECT_TRUE(less(proj.values[x], proj.values[dominator])) << x;
      }
    }

    // Odd rows as an arbitrary subset, and the two halves' antichains.
    std::vector<size_t> odd;
    std::vector<Tuple> odd_values;
    for (size_t i = 1; i < m; i += 2) {
      odd.push_back(i);
      odd_values.push_back(proj.values[i]);
    }
    const std::vector<bool> expected_odd = MaximaNaive(odd_values, less);
    std::vector<size_t> expected_rows;
    for (size_t i = 0; i < m; ++i) {
      if (expected[i]) expected_rows.push_back(i);
    }
    for (SimdMode mode : KernelModes()) {
      PhysicalPlan plan;
      plan.simd = mode;
      SCOPED_TRACE(SimdModeName(mode));
      for (BmoAlgorithm algo :
           {BmoAlgorithm::kNaive, BmoAlgorithm::kBlockNestedLoop,
            BmoAlgorithm::kSortFilter, BmoAlgorithm::kDivideConquer}) {
        EXPECT_EQ(table->MaximaRange(algo, 0, m, plan), expected)
            << BmoAlgorithmName(algo);
        EXPECT_EQ(table->MaximaSubset(algo, odd, plan), expected_odd)
            << BmoAlgorithmName(algo);
      }
      const size_t half = m / 2;
      std::vector<size_t> a;
      std::vector<size_t> b;
      std::vector<bool> left =
          table->MaximaRange(BmoAlgorithm::kBlockNestedLoop, 0, half, plan);
      std::vector<bool> right =
          table->MaximaRange(BmoAlgorithm::kBlockNestedLoop, half, m, plan);
      for (size_t i = 0; i < half; ++i) {
        if (left[i]) a.push_back(i);
      }
      for (size_t i = half; i < m; ++i) {
        if (right[i - half]) b.push_back(i);
      }
      std::vector<size_t> merged = table->MergeAntichains(a, b, plan);
      std::sort(merged.begin(), merged.end());
      EXPECT_EQ(merged, expected_rows);
    }
  }
}

}  // namespace
}  // namespace prefdb
