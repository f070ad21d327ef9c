// SIMD kernel equivalence suite (exec/simd/dominance.h): the batch
// scalar and AVX2 dominance kernels and the tiled BNL window loop must
// return exactly the closure-based answer for every compilable term —
// randomized across Pareto/prioritized/layered/pos-neg/numeric leaves,
// including NULL and NaN columns, ragged tails (N not a multiple of the
// lane width) and forced-algorithm paths (BNL/SFS).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "exec/score_table.h"
#include "exec/simd/dominance.h"
#include "test_support.h"

namespace prefdb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

BmoOptions WithKernel(BmoAlgorithm algo, SimdMode simd) {
  BmoOptions options;
  options.algorithm = algo;
  options.simd = simd;
  return options;
}

// The BNL kernel of `p`'s table compiled over every row of `r` (table row
// i is relation row i), run under an explicit tile size: the maximal rows,
// ascending.
std::vector<size_t> TiledBnlRows(const Relation& r, const PrefPtr& p,
                                 SimdMode simd, size_t tile) {
  auto table = ScoreTable::Compile(p, r);
  EXPECT_TRUE(table.has_value()) << p->ToString();
  if (!table) return {};
  PhysicalPlan plan;
  plan.simd = simd;
  plan.bnl_tile_rows = tile;
  const std::vector<bool> maximal =
      table->Maxima(BmoAlgorithm::kBlockNestedLoop, plan);
  std::vector<size_t> rows;
  for (size_t i = 0; i < maximal.size(); ++i) {
    if (maximal[i]) rows.push_back(i);
  }
  return rows;
}

// The reference answer: the closure path's naive exhaustive test.
const BmoOptions kOracle{BmoAlgorithm::kNaive};

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
    std::vector<size_t> expected = Rows(r, p, kOracle);
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
    std::vector<size_t> expected = Rows(r, p, kOracle);
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
    std::vector<size_t> expected = Rows(r, p, kOracle);
    for (SimdMode mode : {SimdMode::kScalar, SimdMode::kAvx2}) {
      for (size_t tile : {8u, 64u, 100000u}) {
        EXPECT_EQ(TiledBnlRows(r, p, mode, tile), expected)
            << "term=" << p->ToString() << " simd=" << SimdModeName(mode)
            << " tile=" << tile;
      }
    }
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
  std::vector<size_t> expected = Rows(r, p, kOracle);
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

    // Odd rows as an arbitrary pool.
    std::vector<size_t> odd;
    std::vector<Tuple> odd_values;
    for (size_t i = 1; i < m; i += 2) {
      odd.push_back(i);
      odd_values.push_back(proj.values[i]);
    }
    const std::vector<bool> expected_odd = MaximaNaive(odd_values, less);
    std::optional<ScoreTable> odd_table = ScoreTable::Compile(
        p, Relation(proj.proj_schema, proj.values), &odd);
    ASSERT_TRUE(odd_table.has_value());
    for (SimdMode mode : KernelModes()) {
      PhysicalPlan plan;
      plan.simd = mode;
      SCOPED_TRACE(SimdModeName(mode));
      for (BmoAlgorithm algo :
           {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
            BmoAlgorithm::kSortFilter}) {
        EXPECT_EQ(table->Maxima(algo, plan), expected)
            << BmoAlgorithmName(algo);
        EXPECT_EQ(odd_table->Maxima(algo, plan), expected_odd)
            << BmoAlgorithmName(algo);
      }
    }
  }
}

// The kAuto switch from BNL to SFS: one block per shape the switch can
// take. Each table is compiled over every row of its relation, so table
// row i is relation row i and the closure naive oracle runs over the
// rows themselves.
struct SwitchCase {
  std::string name;
  Relation relation;
  PrefPtr term;
  /// Rows BNL streams before it switches; 0 = the pass must not switch.
  /// SIZE_MAX = it switches somewhere.
  size_t switch_row;
};

std::vector<SwitchCase> SwitchCases() {
  std::vector<SwitchCase> cases;
  const PrefPtr skyline4 =
      Pareto({Highest("d0"), Highest("d1"), Highest("d2"), Highest("d3")});
  const size_t anywhere = static_cast<size_t>(-1);
  const Relation anti =
      GenerateVectors(2048, 4, Correlation::kAntiCorrelated, 42);
  cases.push_back({"switches early", anti, skyline4, anywhere});
  // A relation ingested sorted by one attribute streams a biased prefix
  // first; the switch must still be exact.
  cases.push_back({"switches early on sorted input", anti.Sorted({"d0"}),
                   skyline4, anywhere});
  cases.push_back({"never switches",
                   GenerateVectors(2048, 3, Correlation::kIndependent, 42),
                   Pareto({Highest("d0"), Highest("d1"), Highest("d2")}), 0});
  {
    // 100 rows, bound ceil(2.5 * sqrt(100)) = 25. A chain of 39 rows
    // keeps the window at one row, then 60 incomparable front rows grow
    // it by one per row: after i rows it holds i - 39, which first
    // exceeds 6 * sqrt(i) at i = 99. The last row then both survives and
    // evicts one front row.
    Relation r(Schema{{"a", ValueType::kDouble}, {"b", ValueType::kDouble}});
    for (int k = 0; k < 39; ++k) r.Add({Value(k - 1000.0), Value(k - 1000.0)});
    for (int k = 0; k < 60; ++k) r.Add({Value(double(k)), Value(59.0 - k)});
    r.Add({Value(29.5), Value(30.5)});
    cases.push_back({"switches on its last row", r,
                     Pareto(Highest("a"), Highest("b")), 99});
  }
  {
    // The anti-correlated rows again, with NaN, +inf and -inf scores
    // after the switch point: the presort's keys are not finite there, so
    // the pass stays on BNL.
    Relation r(anti.schema());
    for (size_t i = 0; i < anti.size(); ++i) {
      Tuple row = anti.RowAt(i);
      if (i >= 1000 && i % 97 == 0) {
        const double special[] = {kNaN, std::numeric_limits<double>::infinity(),
                                  -std::numeric_limits<double>::infinity()};
        row[i % 4] = Value(special[i % 3]);
      }
      r.Add(std::move(row));
    }
    cases.push_back({"keys turn non-finite after the switch", r, skyline4, 0});
  }
  {
    // A score chain: one LOWEST column over ints, a quarter of the rows
    // tied at the minimum. Its window is one score level; it never
    // switches.
    std::mt19937_64 rng(3);
    Relation r(Schema{{"x", ValueType::kInt}});
    for (int i = 0; i < 2048; ++i) {
      r.Add({Value(int64_t(i % 4 == 0 ? -7 : int64_t(rng() % 5000)))});
    }
    cases.push_back({"score chain", r, Lowest("x"), 0});
  }
  return cases;
}

TEST(SimdKernelTest, AutoSwitchMatchesBnlAndTheOracle) {
  for (const SwitchCase& c : SwitchCases()) {
    SCOPED_TRACE(c.name);
    std::optional<ScoreTable> table = ScoreTable::Compile(c.term, c.relation);
    ASSERT_TRUE(table.has_value());
    ASSERT_EQ(table->rows(), c.relation.size());
    const std::vector<bool> oracle = MaximaNaive(
        c.relation.tuples(), c.term->Bind(c.relation.schema()));
    for (SimdMode mode : KernelModes()) {
      SCOPED_TRACE(SimdModeName(mode));
      PhysicalPlan plan;
      plan.simd = mode;
      MaximaRun run;
      const std::vector<bool> adaptive =
          table->Maxima(BmoAlgorithm::kAuto, plan, &run);
      EXPECT_EQ(adaptive, table->Maxima(BmoAlgorithm::kBlockNestedLoop, plan));
      EXPECT_EQ(adaptive, oracle);
      EXPECT_EQ(run.rows, c.relation.size());
      EXPECT_EQ(run.maxima, static_cast<size_t>(std::count(
                                oracle.begin(), oracle.end(), true)));
      if (c.switch_row == 0) {
        EXPECT_FALSE(run.switched()) << run.ToString();
        EXPECT_EQ(run.finished, BmoAlgorithm::kBlockNestedLoop);
      } else {
        EXPECT_TRUE(run.switched()) << run.ToString();
        EXPECT_EQ(run.finished, BmoAlgorithm::kSortFilter);
        EXPECT_GT(run.switch_window, run.bound);
        if (c.switch_row != static_cast<size_t>(-1)) {
          EXPECT_EQ(run.switch_row, c.switch_row) << run.ToString();
        }
      }
    }
  }
}

}  // namespace
}  // namespace prefdb
