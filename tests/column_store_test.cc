// Randomized equivalence suite for the columnar (SoA) storage layer
// (relation/column_store.h): every construction path and every
// view-producing relational op must agree with a row-major reference
// model across NULL / NaN / string-dictionary columns; the score-table
// compile, over the rows as they are and over deduplicated pools, must
// agree with the bound closure order; and IVM maintenance over columnar snapshots must match
// full recomputation. Per-column copy-on-write is pinned by buffer
// identity, not just by value.

#include "relation/column_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/vectors.h"
#include "eval/bmo.h"
#include "exec/score_table.h"
#include "ivm/maintained_view.h"
#include "relation/relation.h"

namespace prefdb {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A relation exercising every storage feature at once: a dictionary
// string column (with repeats, so codes are shared), an int column with
// NULLs (exact int64 shadow + validity map), and a double column with
// NULLs and NaNs (which rule out reading the raw double buffer).
Relation MessyRelation(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  Schema s({{"tag", ValueType::kString},
            {"units", ValueType::kInt},
            {"level", ValueType::kDouble}});
  const std::vector<std::string> tags = {"alpha", "beta", "gamma", ""};
  Relation r(s);
  for (size_t i = 0; i < n; ++i) {
    Value tag = tags[rng() % tags.size()];
    Value units = rng() % 11 == 0 ? Value() : Value(int64_t(rng() % 40));
    Value level = rng() % 13 == 0 ? Value()
                  : rng() % 7 == 0 ? Value(kNaN)
                                   : Value(double(rng() % 64) / 8);
    r.Add(Tuple({tag, units, level}));
  }
  return r;
}

// NaN-safe multiset fingerprint (Value's operator== is IEEE on doubles,
// the rendering is not).
std::vector<std::string> RowSet(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) out.push_back(rel.RowAt(i).ToString());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RowSet(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

// Exact in-order row renderings (views must also preserve row *order*).
std::vector<std::string> RowSeq(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) out.push_back(rel.RowAt(i).ToString());
  return out;
}

std::vector<std::string> RowSeq(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.ToString());
  return out;
}

TEST(ColumnStoreTest, ConstructorsAndAccessorsRoundTripEveryValueType) {
  for (uint64_t seed : {7u, 8u, 9u}) {
    Relation incremental = MessyRelation(300, seed);
    // The bulk constructor must produce the identical store.
    std::vector<Tuple> rows;
    for (size_t i = 0; i < incremental.size(); ++i) {
      rows.push_back(incremental.RowAt(i));
    }
    Relation bulk(incremental.schema(), rows);
    ASSERT_EQ(bulk.size(), incremental.size());
    for (size_t i = 0; i < bulk.size(); ++i) {
      // Both accessor paths, per-row materialization and per-cell
      // reads, must reconstruct the exact Value (NULLs stay NULL, ints
      // stay ints, NaN stays NaN).
      EXPECT_EQ(bulk.at(i).ToString(), incremental.RowAt(i).ToString());
      for (size_t c = 0; c < bulk.schema().size(); ++c) {
        EXPECT_EQ(bulk.ValueAt(i, c).ToString(),
                  incremental.ValueAt(i, c).ToString());
      }
    }
    // The running summary counters must match a full scan.
    for (size_t c = 0; c < bulk.schema().size(); ++c) {
      const Column& col = bulk.store().column(c);
      uint32_t nulls = 0, strings = 0, nans = 0;
      for (size_t i = 0; i < bulk.size(); ++i) {
        const Value& v = rows[i][c];
        if (v.is_null()) ++nulls;
        if (v.type() == ValueType::kString) ++strings;
        if (v.type() == ValueType::kDouble && std::isnan(v.as_double())) ++nans;
      }
      EXPECT_EQ(col.null_count, nulls);
      EXPECT_EQ(col.string_count, strings);
      EXPECT_EQ(col.nan_count, nans);
      EXPECT_EQ(col.NumericNanFree(), nulls + strings + nans == 0);
    }
  }
}

TEST(ColumnStoreTest, Int64PrecisionSurvivesTheWidenedShadow) {
  // Values past 2^53 are not representable as doubles; the exact int64
  // shadow must reconstruct them bit-for-bit.
  const int64_t big = (int64_t(1) << 60) + 1;
  Relation r(Schema{{"n", ValueType::kInt}});
  r.Add({Value(big)});
  r.Add({Value(big + 1)});
  // (Value::operator== widens to double by design, so only the exact
  // as_int reconstruction can tell these two apart.)
  EXPECT_EQ(r.ValueAt(0, 0).as_int(), big);
  EXPECT_EQ(r.ValueAt(1, 0).as_int(), big + 1);
  EXPECT_NE(r.ValueAt(0, 0).as_int(), r.ValueAt(1, 0).as_int());
}

TEST(ColumnStoreTest, FromColumnsRestoresTheAppendInvariants) {
  // A decoder fills tags, the doubles, ints and codes; the factory must
  // derive everything else exactly as Column::Append keeps it.
  Relation r = MessyRelation(300, 11);
  r.Add({Value("alpha"), Value(int64_t{7}), Value(-0.0)});
  std::vector<Column> columns;
  for (size_t c = 0; c < r.schema().size(); ++c) {
    Column col = r.store().column(c);
    col.null_count = col.int_count = col.string_count = col.nan_count = 99;
    for (size_t i = 0; i < col.size(); ++i) {
      if (col.TagAt(i) != ValueType::kDouble) col.nums[i] = 5.0;
      if (!col.ints.empty() && col.TagAt(i) != ValueType::kInt) {
        col.ints[i] = 3;
      }
      if (!col.codes.empty() && col.TagAt(i) != ValueType::kString) {
        col.codes[i] = 1;
      }
    }
    columns.push_back(std::move(col));
  }
  ColumnStore store = ColumnStore::FromColumns(r.size(), columns);
  ASSERT_EQ(store.rows(), r.size());
  for (size_t c = 0; c < r.schema().size(); ++c) {
    const Column& got = store.column(c);
    const Column& want = r.store().column(c);
    EXPECT_EQ(got.null_count, want.null_count) << c;
    EXPECT_EQ(got.int_count, want.int_count) << c;
    EXPECT_EQ(got.string_count, want.string_count) << c;
    EXPECT_EQ(got.nan_count, want.nan_count) << c;
    EXPECT_EQ(got.tags, want.tags) << c;
    EXPECT_EQ(got.ints, want.ints) << c;
    EXPECT_EQ(got.codes, want.codes) << c;
    ASSERT_EQ(got.nums.size(), want.nums.size());
    for (size_t i = 0; i < want.nums.size(); ++i) {
      EXPECT_TRUE(got.nums[i] == want.nums[i] ||
                  (std::isnan(got.nums[i]) && std::isnan(want.nums[i])))
          << c << "," << i;
    }
  }
  EXPECT_EQ(RowSeq(Relation(r.schema(), store)), RowSeq(r));
  EXPECT_THROW({ Relation bad(Schema{}, store); }, std::invalid_argument);

  auto broken = [&](size_t c, auto&& edit) {
    std::vector<Column> copy = columns;
    edit(&copy[c]);
    return copy;
  };
  const size_t n = r.size();
  EXPECT_THROW(ColumnStore::FromColumns(
                   n, broken(0, [](Column* col) { col->tags.pop_back(); })),
               std::invalid_argument);
  EXPECT_THROW(ColumnStore::FromColumns(
                   n, broken(2, [](Column* col) { col->tags[0] = 4; })),
               std::invalid_argument);
  EXPECT_THROW(ColumnStore::FromColumns(
                   n, broken(1, [](Column* col) { col->ints.clear(); })),
               std::invalid_argument);
  EXPECT_THROW(
      ColumnStore::FromColumns(n, broken(0,
                                         [](Column* col) {
                                           col->codes.back() = static_cast<
                                               uint32_t>(col->dict->size());
                                         })),
      std::invalid_argument);
}

TEST(ColumnStoreTest, CopyOnWriteSharesBuffersAndClonesPerColumn) {
  Relation base = MessyRelation(200, 21);
  Relation copy = base;
  // A copy shares every column buffer outright.
  for (size_t c = 0; c < base.schema().size(); ++c) {
    EXPECT_EQ(&base.store().column(c), &copy.store().column(c));
  }
  std::vector<std::string> before = RowSeq(base);
  copy.Add(Tuple({Value("delta"), Value(int64_t(99)), Value(1.5)}));
  // The append cloned the copy's columns away from the shared buffers...
  for (size_t c = 0; c < base.schema().size(); ++c) {
    EXPECT_NE(&base.store().column(c), &copy.store().column(c));
  }
  // ...and the original is untouched.
  EXPECT_EQ(RowSeq(base), before);
  EXPECT_EQ(copy.size(), base.size() + 1);
  // String dictionary codes issued before the clone stay valid after.
  EXPECT_EQ(copy.ValueAt(copy.size() - 1, 0), Value("delta"));
  EXPECT_EQ(copy.ValueAt(0, 0), base.ValueAt(0, 0));
}

// MessyRelation plus a column mixing every cell kind: NULL, NaN, int,
// double and string cells side by side.
Relation MixedRelation(size_t n, uint64_t seed) {
  Relation messy = MessyRelation(n, seed);
  std::mt19937_64 rng(seed + 1);
  Schema s({{"tag", ValueType::kString},
            {"units", ValueType::kInt},
            {"level", ValueType::kDouble},
            {"mixed", ValueType::kString}});
  Relation r(s);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values = messy.RowAt(i).values();
    switch (rng() % 5) {
      case 0: values.push_back(Value()); break;
      case 1: values.push_back(Value(kNaN)); break;
      case 2: values.push_back(Value(int64_t(rng() % 9))); break;
      case 3: values.push_back(Value(double(rng() % 9) / 4)); break;
      default: values.push_back(Value("m" + std::to_string(rng() % 5))); break;
    }
    r.Add(Tuple(std::move(values)));
  }
  return r;
}

// Flags for the erase patterns: none, the first row, the last row, every
// row, or a seeded mix.
std::vector<std::pair<std::string, std::vector<char>>> ErasePatterns(
    size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<char> none(n, 0), first(n, 0), last(n, 0), every(n, 1), mix(n);
  first[0] = 1;
  last[n - 1] = 1;
  for (char& f : mix) f = rng() % 3 == 0 ? 1 : 0;
  return {{"none", none}, {"first", first}, {"last", last},
          {"every", every}, {"mix", mix}};
}

// Rebuilds `r`'s surviving rows into a fresh relation, row by row.
Relation Survivors(const Relation& r, const std::vector<char>& dead) {
  Relation out(r.schema());
  for (size_t i = 0; i < r.size(); ++i) {
    if (!dead[i]) out.Add(r.RowAt(i));
  }
  return out;
}

TEST(ColumnStoreTest, EraseRowsMatchesARebuildFromTheSurvivors) {
  for (uint64_t seed : {3u, 4u}) {
    for (const auto& [name, dead] : ErasePatterns(90, seed)) {
      Relation r = MixedRelation(90, seed);
      const Relation expected = Survivors(r, dead);
      r.EraseRows(dead);
      ASSERT_EQ(RowSeq(r), RowSeq(expected)) << name;
      EXPECT_FALSE(r.store().IsView()) << name;
      for (size_t c = 0; c < r.schema().size(); ++c) {
        const Column& got = r.store().column(c);
        const Column& want = expected.store().column(c);
        EXPECT_EQ(got.size(), r.size()) << name << " col " << c;
        EXPECT_EQ(got.null_count, want.null_count) << name << " col " << c;
        EXPECT_EQ(got.int_count, want.int_count) << name << " col " << c;
        EXPECT_EQ(got.string_count, want.string_count) << name << " col " << c;
        EXPECT_EQ(got.nan_count, want.nan_count) << name << " col " << c;
      }
      // The compacted buffers keep taking appends of every cell kind.
      const Tuple row({Value("omega"), Value(int64_t(7)), Value(kNaN),
                       Value(int64_t(3))});
      r.Add(row);
      ASSERT_EQ(r.size(), expected.size() + 1) << name;
      EXPECT_EQ(r.RowAt(r.size() - 1).ToString(), row.ToString()) << name;
    }
  }
}

TEST(ColumnStoreTest, EraseRowsOnASharedCopyLeavesTheSourceIntact) {
  const Relation base = MixedRelation(120, 31);
  const std::vector<std::string> before = RowSeq(base);
  const StringDict* dict = base.store().column(0).dict.get();
  const size_t dict_size = dict->size();
  Relation copy = base;
  const std::vector<char> dead = ErasePatterns(base.size(), 31).back().second;
  copy.EraseRows(dead);
  EXPECT_EQ(RowSeq(copy), RowSeq(Survivors(base, dead)));
  // The erase cloned the copy's columns; the source's buffers, rows and
  // dictionary are untouched.
  for (size_t c = 0; c < base.schema().size(); ++c) {
    EXPECT_NE(&base.store().column(c), &copy.store().column(c));
  }
  EXPECT_EQ(RowSeq(base), before);
  // A string new to the shared dictionary clones it for the copy alone.
  copy.Add(Tuple({Value("novel"), Value(int64_t(1)), Value(0.5), Value()}));
  EXPECT_EQ(base.store().column(0).dict.get(), dict);
  EXPECT_EQ(dict->size(), dict_size);
  EXPECT_FALSE(dict->Find("novel").has_value());
  EXPECT_EQ(copy.ValueAt(copy.size() - 1, 0), Value("novel"));
  EXPECT_EQ(RowSeq(base), before);
}

TEST(ColumnStoreTest, EraseRowsOnAnIndexViewMatchesItsFlattenedForm) {
  const Relation base = MixedRelation(100, 41);
  const std::vector<std::string> before = RowSeq(base);
  for (const auto& [name, dead] : ErasePatterns(base.size(), 41)) {
    Relation view = base.Sorted({"units", "tag"});
    ASSERT_TRUE(view.store().IsView());
    Relation flat = Survivors(view, std::vector<char>(view.size(), 0));
    ASSERT_FALSE(flat.store().IsView());
    view.EraseRows(dead);
    flat.EraseRows(dead);
    EXPECT_EQ(RowSeq(view), RowSeq(flat)) << name;
    EXPECT_EQ(RowSeq(base), before) << name;
    // An append flattens the view; rows stay in order.
    const Tuple row({Value("tail"), Value(), Value(1.0), Value("m9")});
    view.Add(row);
    flat.Add(row);
    EXPECT_EQ(RowSeq(view), RowSeq(flat)) << name;
  }
}

// Row-major reference model: the same pipeline applied to plain tuples.
struct ReferenceModel {
  Schema schema;
  std::vector<Tuple> rows;
};

TEST(ColumnStoreTest, ViewPipelinesMatchTheRowMajorReference) {
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    std::mt19937_64 rng(seed ^ 0x5eed);
    Relation rel = MessyRelation(250, seed);
    ReferenceModel ref{rel.schema(), {}};
    for (size_t i = 0; i < rel.size(); ++i) ref.rows.push_back(rel.RowAt(i));

    for (int step = 0; step < 6 && !ref.rows.empty(); ++step) {
      switch (rng() % 4) {
        case 0: {  // Filter: drop rows whose int column is below a cut.
          auto idx = rel.schema().IndexOf("units");
          if (!idx) break;
          const size_t col = *idx;
          const int64_t cut = int64_t(rng() % 20);
          auto pred = [col, cut](const Tuple& t) {
            return !t[col].is_null() && t[col].as_int() >= cut;
          };
          rel = rel.Filter(pred);
          std::vector<Tuple> kept;
          for (const Tuple& t : ref.rows) {
            if (pred(t)) kept.push_back(t);
          }
          ref.rows = std::move(kept);
          break;
        }
        case 1: {  // Project onto a random nonempty attribute subset.
          std::vector<std::string> names;
          std::vector<size_t> cols;
          for (size_t c = 0; c < ref.schema.size(); ++c) {
            if (rng() % 2 == 0) {
              names.push_back(ref.schema.at(c).name);
              cols.push_back(c);
            }
          }
          if (names.empty()) {
            names.push_back(ref.schema.at(0).name);
            cols.push_back(0);
          }
          rel = rel.Project(names);
          Schema projected = ref.schema.Project(names);
          std::vector<Tuple> rows;
          for (const Tuple& t : ref.rows) {
            std::vector<Value> vals;
            for (size_t c : cols) vals.push_back(t[c]);
            rows.push_back(Tuple(std::move(vals)));
          }
          ref.schema = projected;
          ref.rows = std::move(rows);
          break;
        }
        case 2: {  // SelectRows: random subset in random order (dups ok).
          std::vector<size_t> pick;
          const size_t want = 1 + rng() % ref.rows.size();
          for (size_t i = 0; i < want; ++i) {
            pick.push_back(rng() % ref.rows.size());
          }
          rel = rel.SelectRows(pick);
          std::vector<Tuple> rows;
          for (size_t i : pick) rows.push_back(ref.rows[i]);
          ref.rows = std::move(rows);
          break;
        }
        default: {  // Sorted by all columns (deterministic total order).
          rel = rel.Sorted();
          std::vector<size_t> order(ref.rows.size());
          for (size_t i = 0; i < order.size(); ++i) order[i] = i;
          std::stable_sort(order.begin(), order.end(),
                           [&](size_t a, size_t b) {
                             return ref.rows[a] < ref.rows[b];
                           });
          std::vector<Tuple> rows;
          for (size_t i : order) rows.push_back(ref.rows[i]);
          ref.rows = std::move(rows);
          break;
        }
      }
      ASSERT_EQ(rel.schema().size(), ref.schema.size());
      ASSERT_EQ(RowSeq(rel), RowSeq(ref.rows)) << "seed " << seed
                                               << " step " << step;
    }
    // Distinct at the end, deduplicating under Value equality (NaN rows
    // never equal anything, so they all survive).
    std::vector<Tuple> want;
    for (const Tuple& t : ref.rows) {
      bool seen = false;
      for (const Tuple& w : want) seen = seen || w == t;
      if (!seen) want.push_back(t);
    }
    EXPECT_EQ(RowSet(rel.Distinct()), RowSet(want)) << "seed " << seed;
  }
}

TEST(ColumnStoreTest, GroupCodingMatchesGroupRowsBy) {
  for (uint64_t seed : {41u, 42u}) {
    Relation r = MessyRelation(300, seed);
    for (const std::vector<size_t>& cols :
         {std::vector<size_t>{0}, std::vector<size_t>{1, 2},
          std::vector<size_t>{0, 1, 2}}) {
      GroupCoding coding = ComputeGroupCoding(r, cols);
      ASSERT_EQ(coding.codes.size(), r.size());
      ASSERT_EQ(coding.group_rows.size(), coding.num_groups);
      // Codes are dense and first-occurrence ordered: a row's code never
      // exceeds the codes seen before it plus one.
      uint32_t next = 0;
      for (size_t i = 0; i < r.size(); ++i) {
        ASSERT_LE(coding.codes[i], next);
        if (coding.codes[i] == next) {
          EXPECT_EQ(coding.group_rows[next], i);
          ++next;
        }
      }
      EXPECT_EQ(next, coding.num_groups);
      // GroupRowsBy buckets the coding: group g holds the rows of code g
      // in scan order. Equal groups iff equal projections, checked
      // against row-major Tuple equality (which also pins NULL==NULL,
      // NaN!=NaN: a NaN projection never equals itself, so the coding
      // makes each its own singleton group).
      const std::vector<std::vector<size_t>> groups = GroupRowsBy(r, cols);
      ASSERT_EQ(groups.size(), coding.num_groups);
      std::vector<Tuple> reps;
      size_t rows_seen = 0;
      for (size_t g = 0; g < groups.size(); ++g) {
        ASSERT_FALSE(groups[g].empty());
        EXPECT_EQ(groups[g].front(), coding.group_rows[g]);
        const Tuple rep = r.RowAt(groups[g].front()).Project(cols);
        for (size_t k = 0; k < groups[g].size(); ++k) {
          EXPECT_EQ(coding.codes[groups[g][k]], g);
          if (k > 0) {
            EXPECT_TRUE(r.RowAt(groups[g][k]).Project(cols) == rep);
          }
        }
        for (const Tuple& other : reps) EXPECT_FALSE(other == rep);
        reps.push_back(rep);
        rows_seen += groups[g].size();
      }
      EXPECT_EQ(rows_seen, r.size());
    }
  }
}

TEST(ColumnStoreTest, DistinctnessProbeGatesOnDuplication) {
  // All-distinct numeric data passes the probe; a two-value column fails
  // it (collisions only under-report, i.e. toward deduplication).
  Relation distinct(Schema{{"x", ValueType::kDouble}});
  Relation dupes(Schema{{"x", ValueType::kDouble}});
  for (int i = 0; i < 4096; ++i) {
    distinct.Add({Value(double(i))});
    dupes.Add({Value(double(i % 2))});
  }
  EXPECT_TRUE(LikelyMostlyDistinct(distinct, {0}));
  EXPECT_FALSE(LikelyMostlyDistinct(dupes, {0}));
}

TEST(ColumnStoreTest, DistinctnessProbeDetectsOnlyHeavyDuplication) {
  // The probe asks whether half of ~512 sampled rows are distinct, so it
  // flips near a few hundred distinct values whatever the pool size: 200
  // values over 100k rows read as duplicated, 1000 values (1%) and 21%
  // distinct (like the car table's price) read as mostly distinct.
  std::mt19937_64 rng(5);
  for (const auto& [values, mostly_distinct] :
       {std::pair<uint64_t, bool>{200, false}, {1000, true}, {21000, true}}) {
    Relation r(Schema{{"x", ValueType::kInt}});
    for (int i = 0; i < 100000; ++i) r.Add({Value(int64_t(rng() % values))});
    EXPECT_EQ(LikelyMostlyDistinct(r, {0}), mostly_distinct) << values;
  }
}

// Columnar-compilable terms over the d-dimensional vector schema,
// including the intersection/disjoint-union descriptor nodes.
std::vector<PrefPtr> VectorTerms() {
  return {
      Pareto({Highest("d0"), Highest("d1"), Highest("d2")}),
      Prioritized(Lowest("d0"), Pareto(Highest("d1"), Around("d2", 0.5))),
      Pareto(Intersection(Around("d1", 0.5), Highest("d1")), Lowest("d0")),
      RankWeightedSum({0.7, 0.3}, {Highest("d0"), Lowest("d2")}),
      Dual(Pareto(Lowest("d0"), Between("d1", 0.2, 0.8))),
  };
}

TEST(ColumnStoreTest, IdentityDedupAndClosureAgree) {
  Relation r = GenerateVectors(1500, 3, Correlation::kAntiCorrelated, 99);
  // Heavy-duplicate variant: quantizing to 3 levels per dimension fails
  // the distinctness probe, forcing the deduplicating compile.
  Relation quantized(r.schema());
  for (size_t i = 0; i < r.size(); ++i) {
    Tuple t = r.RowAt(i);
    std::vector<Value> q;
    for (size_t c = 0; c < t.size(); ++c) {
      q.push_back(Value(std::floor(t[c].as_double() * 3) / 3));
    }
    quantized.Add(Tuple(std::move(q)));
  }
  const BmoOptions oracle{BmoAlgorithm::kNaive};
  for (const PrefPtr& p : VectorTerms()) {
    ASSERT_TRUE(ScoreTable::CompilableTerm(p)) << p->ToString();
    // Mostly-distinct input → the compiled path compiles the rows as
    // they are.
    EXPECT_EQ(BmoIndices(r, p), BmoIndices(r, p, oracle)) << p->ToString();
    // Duplicated input → the compiled path deduplicates first.
    EXPECT_EQ(BmoIndices(quantized, p), BmoIndices(quantized, p, oracle))
        << p->ToString();

    // Direct compile contract: table row i is pool position i (relation
    // row i without a pool), and the compiled order is exactly the bound
    // closure order on sampled pairs.
    std::vector<size_t> pool;
    for (size_t i = r.size(); i-- > 0;) {
      if (i % 3 != 1) pool.push_back(i);
    }
    auto table = ScoreTable::Compile(p, r);
    auto pooled = ScoreTable::Compile(p, r, &pool);
    ASSERT_TRUE(table.has_value() && pooled.has_value()) << p->ToString();
    ASSERT_EQ(table->rows(), r.size());
    ASSERT_EQ(pooled->rows(), pool.size());
    LessFn less = p->Bind(r.schema());
    std::mt19937_64 rng(4242);
    for (int k = 0; k < 400; ++k) {
      const size_t x = rng() % r.size(), y = rng() % r.size();
      EXPECT_EQ(table->Less(x, y), less(r.RowAt(x), r.RowAt(y)))
          << p->ToString() << " rows " << x << "," << y;
      const size_t px = rng() % pool.size(), py = rng() % pool.size();
      EXPECT_EQ(pooled->Less(px, py),
                less(r.RowAt(pool[px]), r.RowAt(pool[py])))
          << p->ToString() << " pool positions " << px << "," << py;
    }
  }
}

TEST(ColumnStoreTest, NullAndNanColumnsCompileAndAgreeWithTheClosure) {
  // A NaN (or NULL) in a referenced column rules out the raw double
  // buffer (NumericNanFree); the leaves then take their equality classes
  // from the column coding and must still agree with the closure.
  Relation r = GenerateVectors(400, 2, Correlation::kIndependent, 7);
  Relation poisoned(r.schema());
  std::mt19937_64 rng(11);
  for (size_t i = 0; i < r.size(); ++i) {
    Tuple t = r.RowAt(i);
    if (rng() % 19 == 0) t[0] = Value(kNaN);
    if (rng() % 23 == 0) t[1] = Value();
    poisoned.Add(t);
  }
  PrefPtr p = Pareto(Highest("d0"), Lowest("d1"));
  EXPECT_EQ(BmoIndices(poisoned, p),
            BmoIndices(poisoned, p, {BmoAlgorithm::kNaive}));
}

TEST(ColumnStoreTest, IvmTracesOverColumnarSnapshotsMatchRecompute) {
  // Mutation trace where every snapshot copy shares column buffers with
  // its predecessor (per-column COW): the maintained view must track the
  // recomputed answer on the columnar store at every step.
  std::mt19937_64 rng(77);
  Relation table = GenerateVectors(60, 3, Correlation::kAntiCorrelated, 5);
  PrefPtr term = Pareto({Highest("d0"), Highest("d1"), Highest("d2")});
  ivm::MaintainedView view(term, nullptr, table, 1);
  uint64_t version = 1;
  for (int step = 0; step < 80; ++step) {
    ++version;
    if (table.size() < 4 || rng() % 3 != 0) {
      std::vector<Value> vals;
      for (int c = 0; c < 3; ++c) {
        vals.push_back(Value(double(rng() % 1000) / 1000));
      }
      Tuple row(std::move(vals));
      Relation next = table;  // shares buffers until the Add clones
      next.Add(row);
      view.ApplyInsert(row, table.size(), version);
      table = std::move(next);
    } else {
      std::vector<size_t> dead = {rng() % table.size()};
      std::vector<size_t> survivors;
      for (size_t i = 0; i < table.size(); ++i) {
        if (i != dead[0]) survivors.push_back(i);
      }
      view.ApplyDelete(dead, version);
      table = table.SelectRows(survivors);  // index view over shared cols
    }
    ASSERT_EQ(RowSet(view.Resync().enters),
              RowSet(table.SelectRows(
                  BmoIndices(table, term, {BmoAlgorithm::kNaive}))))
        << "step " << step;
  }
}

}  // namespace
}  // namespace prefdb
