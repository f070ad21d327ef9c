// Tests for the statistics subsystem (stats/stats.h): exact column
// statistics, incremental maintenance equivalence, and the term-level
// estimation/measurement paths feeding the cost model.

#include "stats/stats.h"

#include <gtest/gtest.h>

#include <cmath>

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
  const ColumnStats* a = stats.Column("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->distinct, 3u);  // 1, 2, NULL
  EXPECT_EQ(a->null_count, 1u);
  EXPECT_FALSE(a->AllNumeric(stats.rows));
  const ColumnStats* b = stats.Column("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->distinct, 2u);
  EXPECT_EQ(b->non_numeric_count, 4u);
  EXPECT_EQ(stats.Column("missing"), nullptr);
}

TEST(TableStatsTest, RestrictedDeriveMatchesFull) {
  Relation cars = GenerateCars(500, 3);
  TableStats full = TableStats::Derive(cars);
  TableStats restricted = TableStats::Derive(cars, {"price", "make"});
  EXPECT_EQ(restricted.Column("price")->distinct,
            full.Column("price")->distinct);
  EXPECT_EQ(restricted.Column("make")->distinct,
            full.Column("make")->distinct);
  EXPECT_EQ(restricted.Column("mileage"), nullptr);
}

TEST(TableStatsTest, IncrementalBuilderMatchesRescan) {
  Relation cars = GenerateCars(300, 7);
  TableStatsBuilder builder(cars.schema());
  Relation grown(cars.schema());
  for (const Tuple& t : cars.tuples()) {
    builder.AddRow(t);
    grown.Add(t);
  }
  TableStats incremental = builder.Snapshot();
  TableStats rescan = TableStats::Derive(grown);
  ASSERT_EQ(incremental.rows, rescan.rows);
  ASSERT_EQ(incremental.columns.size(), rescan.columns.size());
  for (size_t c = 0; c < rescan.columns.size(); ++c) {
    EXPECT_EQ(incremental.columns[c].distinct, rescan.columns[c].distinct)
        << rescan.names[c];
    EXPECT_EQ(incremental.columns[c].null_count,
              rescan.columns[c].null_count);
    EXPECT_EQ(incremental.columns[c].non_numeric_count,
              rescan.columns[c].non_numeric_count);
  }
}

TEST(TermStatsTest, EstimateSeesStructure) {
  Relation cars = GenerateCars(5000, 11);
  TableStats table = TableStats::Derive(cars);
  // Injective numeric skyline: D&C-exact, window from the closed form.
  TermStats sky = EstimateTermStats(
      table, Pareto(Lowest("price"), Lowest("mileage")), 5000);
  EXPECT_TRUE(sky.compilable);
  EXPECT_TRUE(sky.dc_exact);
  EXPECT_EQ(sky.dims, 2u);
  EXPECT_GT(sky.est_window, 1.0);
  EXPECT_LT(sky.est_window, 200.0);
  // AROUND breaks injectivity but keeps keys.
  TermStats around = EstimateTermStats(
      table, Pareto(Around("price", 20000), Lowest("mileage")), 5000);
  EXPECT_FALSE(around.dc_exact);
  EXPECT_GT(around.table_keys, 0u);
  // Chain-head prioritization is flagged with the head's cardinality.
  TermStats chain = EstimateTermStats(
      table, Prioritized(Lowest("price"), Pos("color", {"red"})), 5000);
  EXPECT_TRUE(chain.chain_head);
  EXPECT_GT(chain.head_distinct, 0u);
  // An injective chain head pins the window near one group.
  EXPECT_LT(chain.est_window, 64.0);
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
  EXPECT_TRUE(anti.dc_exact);
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
  Schema s({{"x", ValueType::kInt}});
  TableStatsBuilder builder(s);
  for (int64_t i = 0; i < (1 << 16) + 500; ++i) builder.AddRow(Tuple{i});
  TableStats stats = builder.Snapshot();
  EXPECT_EQ(stats.rows, static_cast<size_t>((1 << 16) + 500));
  EXPECT_EQ(stats.Column("x")->distinct, static_cast<size_t>(1 << 16));
  // The flag marks "at least the cap"; estimation then assumes
  // pool-scale cardinality instead of the frozen count.
  EXPECT_TRUE(stats.Column("x")->distinct_saturated);
  TableStats derived = TableStats::Derive([] {
    Relation r(Schema{{"x", ValueType::kInt}});
    for (int64_t i = 0; i < 100; ++i) r.Add({i});
    return r;
  }());
  EXPECT_FALSE(derived.Column("x")->distinct_saturated);
}

TEST(TermStatsTest, AntiChainInParetoMultipliesTheWindow) {
  // Pareto(A<->, P): dominance requires equality on the anti-chain
  // attributes, so every distinct combination is its own incomparable
  // group — the window scales with the group count, not the polylog
  // skyline form.
  Relation cars = GenerateCars(20000, 5);
  TableStats table = TableStats::Derive(cars);
  const size_t makes = table.Column("make")->distinct;
  ASSERT_GT(makes, 2u);
  TermStats stats = EstimateTermStats(
      table, Pareto(AntiChain("make"), Lowest("price")), 20000);
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
