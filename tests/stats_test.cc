// Tests for the statistics subsystem (stats/stats.h): exact column
// statistics against a Tuple-walking reference, and the measured term
// statistics feeding the cost model.

#include "stats/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "exec/score_table.h"

namespace prefdb {
namespace {

TEST(TableStatsTest, DeriveCountsColumns) {
  Schema s({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  Relation r(s);
  r.Add({1, "x"});
  r.Add({1, "y"});
  r.Add({2, "x"});
  r.Add({Value(), "x"});
  TableStats stats = TableStats::Derive(r);
  ASSERT_EQ(stats.rows, 4u);
  ASSERT_EQ(stats.names, (std::vector<std::string>{"a", "b"}));
  const ColumnStats& a = stats.columns[0];
  EXPECT_EQ(a.distinct, 3u);  // 1, 2, NULL
  EXPECT_EQ(a.null_count, 1u);
  const ColumnStats& b = stats.columns[1];
  EXPECT_EQ(b.distinct, 2u);
  EXPECT_EQ(b.non_numeric_count, 4u);
}

TEST(TermStatsTest, MeasuredWindowSeparatesCorrelationRegimes) {
  // The closed form cannot distinguish anti-correlated from independent
  // data; the two-point sampled probe must. This is the signal that
  // flips the BNL/SFS decision on the PR 4 bench families.
  const size_t n = 8192;
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Highest("d2"),
                      Highest("d3")});
  auto measure = [&](Correlation corr) {
    Relation r = GenerateVectors(n, 4, corr, 42);
    auto table = ScoreTable::Compile(p, r);
    EXPECT_TRUE(table.has_value());
    return MeasureTermStats(*table, p, n);
  };
  TermStats anti = measure(Correlation::kAntiCorrelated);
  TermStats indep = measure(Correlation::kIndependent);
  EXPECT_TRUE(anti.measured_window);
  EXPECT_TRUE(indep.measured_window);
  EXPECT_GT(anti.est_window, 4.0 * indep.est_window);
  EXPECT_FALSE(anti.score_chain);
  EXPECT_EQ(anti.dims, 4u);
}

TEST(TermStatsTest, StridedProbeSurvivesPhysicallySortedInput) {
  // The probe samples strided across the block, so a relation ingested
  // pre-sorted by one attribute (a biased *prefix*, not a biased sample)
  // must still reveal the wide anti-correlated window instead of
  // pinning a BNL plan where SFS wins.
  const size_t n = 8192;
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Highest("d2"),
                      Highest("d3")});
  auto measure = [&](const Relation& r) {
    auto table = ScoreTable::Compile(p, r);
    EXPECT_TRUE(table.has_value());
    return MeasureTermStats(*table, p, n).est_window;
  };
  Relation anti = GenerateVectors(n, 4, Correlation::kAntiCorrelated, 42);
  const double unsorted = measure(anti);
  const double sorted = measure(anti.Sorted({"d0"}));
  // Same data, same front: the sampled estimates must agree to within a
  // small factor rather than collapsing on the sorted layout.
  EXPECT_GT(sorted, unsorted / 3.0);
  EXPECT_LT(sorted, unsorted * 3.0);
}

TEST(TableStatsTest, DistinctTrackingSaturatesNotGrows) {
  Relation wide(Schema{{"x", ValueType::kInt}});
  for (int64_t i = 0; i < (1 << 16) + 500; ++i) wide.Add({i});
  TableStats stats = TableStats::Derive(wide);
  EXPECT_EQ(stats.rows, static_cast<size_t>((1 << 16) + 500));
  EXPECT_EQ(stats.columns[0].distinct, static_cast<size_t>(1 << 16));
  // The flag marks "at least the cap".
  EXPECT_TRUE(stats.columns[0].distinct_saturated);
  TableStats derived = TableStats::Derive([] {
    Relation r(Schema{{"x", ValueType::kInt}});
    for (int64_t i = 0; i < 100; ++i) r.Add({i});
    return r;
  }());
  EXPECT_FALSE(derived.columns[0].distinct_saturated);
}

// Tuple-walking reference for the columnar derivation: the per-value
// rule statistics applied before they read the column buffers —
// one unordered_set<Value> per column (Value equality: numeric widening,
// NULL == NULL), NaN counted once and never inserted, saturation at the
// cap flagged by any later non-NaN value.
TableStats ReferenceStats(const Schema& schema, const std::vector<Tuple>& rows,
                          size_t cap = size_t{1} << 16) {
  TableStats out;
  out.rows = rows.size();
  for (const Attribute& a : schema.attributes()) out.names.push_back(a.name);
  out.columns.resize(schema.size());
  std::vector<std::unordered_set<Value, ValueHash>> seen(schema.size());
  for (const Tuple& t : rows) {
    for (size_t i = 0; i < schema.size(); ++i) {
      const Value& v = t[i];
      ColumnStats& c = out.columns[i];
      if (v.is_null()) {
        ++c.null_count;
      } else if (v.is_double() && std::isnan(v.as_double())) {
        if (c.nan_count == 0) ++c.distinct;
        ++c.nan_count;
        continue;
      } else if (!v.is_numeric()) {
        ++c.non_numeric_count;
      }
      if (seen[i].size() >= cap) {
        c.distinct_saturated = true;
        continue;
      }
      if (seen[i].insert(v).second) ++c.distinct;
    }
  }
  return out;
}

std::vector<Tuple> RowsOf(const Relation& r) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < r.size(); ++i) rows.push_back(r.RowAt(i));
  return rows;
}

void ExpectSameStats(const TableStats& got, const TableStats& want) {
  ASSERT_EQ(got.rows, want.rows);
  ASSERT_EQ(got.names, want.names);
  ASSERT_EQ(got.columns.size(), want.columns.size());
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const ColumnStats& g = got.columns[c];
    const ColumnStats& w = want.columns[c];
    EXPECT_EQ(g.distinct, w.distinct) << want.names[c];
    EXPECT_EQ(g.distinct_saturated, w.distinct_saturated) << want.names[c];
    EXPECT_EQ(g.null_count, w.null_count) << want.names[c];
    EXPECT_EQ(g.nan_count, w.nan_count) << want.names[c];
    EXPECT_EQ(g.non_numeric_count, w.non_numeric_count) << want.names[c];
  }
}

// A table whose every column is an edge case of Value equality.
Relation EdgeCaseTable() {
  const double nan = std::nan("");
  const int64_t big = (int64_t{1} << 53) + 1;  // widens onto 2^53
  Relation r(Schema{{"num", ValueType::kDouble},
                    {"mixed", ValueType::kInt},
                    {"big", ValueType::kInt},
                    {"text", ValueType::kString}});
  r.Add({Value(3), Value(3), Value(big), Value("a")});
  r.Add({Value(3.0), Value("3"), Value(int64_t{1} << 53), Value("b")});
  r.Add({Value(-0.0), Value(), Value(big - 2), Value()});
  r.Add({Value(0.0), Value("x"), Value(big), Value("a")});
  r.Add({Value(nan), Value(3.0), Value(), Value("")});
  r.Add({Value(nan), Value(nan), Value(9007199254740992.0), Value("b")});
  r.Add({Value(), Value("x"), Value(big + 1), Value("")});
  r.Add({Value(), Value(-0.0), Value(big), Value()});
  return r;
}

TEST(TableStatsTest, ColumnarDeriveMatchesTupleReference) {
  Relation r = EdgeCaseTable();
  const TableStats want = ReferenceStats(r.schema(), RowsOf(r));
  ExpectSameStats(TableStats::Derive(r), want);
  // Spot-check the reference itself on the equality edge cases
  // (num: 3 == 3.0, -0 == 0, NaN, NULL).
  EXPECT_EQ(want.columns[0].distinct, 4u);  // num
  EXPECT_EQ(want.columns[1].distinct, 6u);  // mixed: 3, '3', NULL, 'x', NaN, -0
  EXPECT_EQ(want.columns[2].distinct, 4u);  // big: 2^53, 2^53-1, NULL, 2^53+2
  EXPECT_EQ(want.columns[3].distinct, 4u);  // text: 'a', 'b', NULL, ''
  EXPECT_EQ(want.columns[0].nan_count, 2u);

  // Index views (permuted, filtered rows).
  Relation view = r.SelectRows({7, 5, 3, 1, 0, 2, 4, 6});
  ExpectSameStats(TableStats::Derive(view),
                  ReferenceStats(view.schema(), RowsOf(view)));
  Relation sorted = r.Sorted({"text"});
  ExpectSameStats(TableStats::Derive(sorted),
                  ReferenceStats(sorted.schema(), RowsOf(sorted)));
}

TEST(TableStatsTest, ColumnarSaturationMatchesTupleReference) {
  // Distinct values past the cap, in numeric, string and mixed columns,
  // with repeats and NULLs after saturation: the frozen count and the
  // saturation flag must be exactly the reference's.
  const size_t cap = size_t{1} << 16;
  Relation r(Schema{{"n", ValueType::kInt},
                    {"s", ValueType::kString},
                    {"m", ValueType::kInt},
                    {"exact", ValueType::kInt}});
  for (size_t i = 0; i < cap + 300; ++i) {
    const int64_t k = static_cast<int64_t>(i);
    r.Add({Value(k), Value("s" + std::to_string(i % (cap + 100))),
           i % 3 == 0 ? Value("m" + std::to_string(i)) : Value(k),
           Value(k % static_cast<int64_t>(cap))});
  }
  // Repeats and NULLs after every column hit the cap.
  r.Add({Value(int64_t{1}), Value("s1"), Value(), Value(int64_t{0})});
  r.Add({Value(std::nan("")), Value("s2"), Value("m0"), Value()});
  const TableStats want = ReferenceStats(r.schema(), RowsOf(r));
  EXPECT_TRUE(want.columns[0].distinct_saturated);  // n
  EXPECT_TRUE(want.columns[1].distinct_saturated);  // s
  EXPECT_TRUE(want.columns[3].distinct_saturated);  // exact: the late NULL
  EXPECT_EQ(want.columns[0].distinct, cap + 1);  // cap + the NaN class
  ExpectSameStats(TableStats::Derive(r), want);

  // Exactly cap distinct values and nothing after: not saturated.
  Relation exact(Schema{{"x", ValueType::kInt}});
  for (size_t i = 0; i < cap; ++i) exact.Add({Value(static_cast<int64_t>(i))});
  TableStats at_cap = TableStats::Derive(exact);
  EXPECT_EQ(at_cap.columns[0].distinct, cap);
  EXPECT_FALSE(at_cap.columns[0].distinct_saturated);
  ExpectSameStats(at_cap, ReferenceStats(exact.schema(), RowsOf(exact)));
}

TEST(TermStatsTest, AntiChainInParetoMultipliesTheWindow) {
  // Pareto(A<->, P): dominance requires equality on the anti-chain
  // attributes, so every distinct combination is its own incomparable
  // group — the window scales with the group count, not the polylog
  // skyline form. Below 4096 rows the measured statistics use the closed
  // form, with the anti-chain column as the group multiplier.
  Relation cars = GenerateCars(3000, 5);
  const size_t makes = TableStats::Derive(cars).columns[1].distinct;  // make
  ASSERT_GT(makes, 2u);
  PrefPtr p = Pareto(AntiChain("make"), Lowest("price"));
  auto table = ScoreTable::Compile(p, cars);
  ASSERT_TRUE(table.has_value());
  ASSERT_LT(table->rows(), 4096u);
  TermStats stats = MeasureTermStats(*table, p, cars.size());
  EXPECT_FALSE(stats.measured_window);
  EXPECT_GE(stats.est_window, static_cast<double>(makes));
}

TEST(TermStatsTest, MeasuredColumnDistinctIsExact) {
  Schema s({{"color", ValueType::kString}, {"price", ValueType::kInt}});
  Relation r(s);
  const char* colors[] = {"red", "blue", "green"};
  for (int i = 0; i < 60; ++i) r.Add({colors[i % 3], i});
  PrefPtr p = Pareto(Pos("color", {"red"}), Lowest("price"));
  auto table = ScoreTable::Compile(p, r);
  ASSERT_TRUE(table.has_value());
  // POS(red) collapses blue/green into one level but their equality
  // classes stay distinct values: 3 classes on the color column.
  ASSERT_EQ(table->column_distinct().size(), 2u);
  EXPECT_EQ(table->column_distinct()[0], 3u);
}

TEST(WindowClosedFormTest, ShapeAndClamps) {
  EXPECT_DOUBLE_EQ(WindowClosedForm(1, 4), 1.0);
  EXPECT_DOUBLE_EQ(WindowClosedForm(100000, 1), 1.0);
  // (ln m)^(d-1)/(d-1)! grows with d and m, clamped to m.
  EXPECT_GT(WindowClosedForm(100000, 4), WindowClosedForm(100000, 2));
  EXPECT_GT(WindowClosedForm(100000, 3), WindowClosedForm(1000, 3));
  EXPECT_LE(WindowClosedForm(64, 12), 64.0);
}

}  // namespace
}  // namespace prefdb
