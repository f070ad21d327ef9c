// Tests for the statistics subsystem (stats/stats.h): exact column
// statistics against a Tuple-walking reference.

#include "stats/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

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

}  // namespace
}  // namespace prefdb
