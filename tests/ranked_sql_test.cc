// TOP k / RANKED SQL coverage: results must match direct eval/ranked.h
// calls (same deterministic tie order) across k = 0/1/N/oversized,
// randomized terms, grouped queries and the engine caches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "engine/engine.h"
#include "eval/ranked.h"
#include "psql/executor.h"
#include "psql/parser.h"
#include "psql/translator.h"

namespace prefdb {
namespace {

Relation Hotels() {
  Relation r(Schema{{"name", ValueType::kString},
                    {"price", ValueType::kInt},
                    {"distance", ValueType::kInt}});
  r.Add({"Alpha", 120, 900});
  r.Add({"Belle", 150, 50});
  r.Add({"Charm", 60, 1200});
  r.Add({"Dune", 95, 300});
  r.Add({"Dupe", 95, 300});  // exact tie with Dune: input order decides
  r.Add({"Exquisite", 340, 100});
  return r;
}

TEST(RankedSqlTest, ParserAcceptsTopAndRanked) {
  psql::SelectStatement top =
      psql::Parse("SELECT TOP 3 name FROM hotels PREFERRING LOWEST(price)");
  EXPECT_TRUE(top.ranked);
  EXPECT_EQ(top.top_k, 3u);
  psql::SelectStatement ranked =
      psql::Parse("SELECT RANKED * FROM hotels PREFERRING LOWEST(price)");
  EXPECT_TRUE(ranked.ranked);
  EXPECT_EQ(ranked.top_k, 0u);
  EXPECT_NE(top.ToString().find("TOP 3"), std::string::npos);
  EXPECT_NE(ranked.ToString().find("RANKED"), std::string::npos);
}

TEST(RankedSqlTest, TopWithoutPreferringIsSyntaxError) {
  EXPECT_THROW(psql::Parse("SELECT TOP 3 * FROM hotels"), psql::SyntaxError);
  EXPECT_THROW(psql::Parse("SELECT RANKED * FROM hotels"),
               psql::SyntaxError);
}

TEST(RankedSqlTest, TopCountMustBeAPositiveInteger) {
  // 0 would silently mean "everything" (that's RANKED); fractions and
  // out-of-range values would make the size_t cast undefined.
  EXPECT_THROW(psql::Parse("SELECT TOP 0 * FROM t PREFERRING LOWEST(a)"),
               psql::SyntaxError);
  EXPECT_THROW(psql::Parse("SELECT TOP 2.5 * FROM t PREFERRING LOWEST(a)"),
               psql::SyntaxError);
  EXPECT_THROW(psql::Parse("SELECT TOP 1e300 * FROM t PREFERRING LOWEST(a)"),
               psql::SyntaxError);
  EXPECT_THROW(
      psql::Parse("SELECT * FROM t PREFERRING LOWEST(a) LIMIT 1e300"),
      psql::SyntaxError);
}

TEST(RankedSqlTest, ButOnlyRestrictsThePoolBeforeRanking) {
  Relation r(Schema{{"x", ValueType::kInt}});
  for (int i = 0; i < 10; ++i) r.Add({i});
  Engine engine;
  engine.RegisterTable("t", r);
  // Global top-3 by x AROUND 0 is {0,1,2}, but 0..2 fail the quality
  // bound; the 3 best *qualifying* rows must fill k.
  psql::QueryResult res = engine.Execute(
      "SELECT TOP 3 * FROM t PREFERRING x AROUND 0 "
      "BUT ONLY DISTANCE(x) >= 3");
  ASSERT_EQ(res.relation.size(), 3u);
  EXPECT_EQ(res.relation.at(0)[0], Value(3));
  EXPECT_EQ(res.relation.at(1)[0], Value(4));
  EXPECT_EQ(res.relation.at(2)[0], Value(5));
  // The quality stage shows up before the ranked stage in the plan.
  EXPECT_LT(res.plan.find("but_only"), res.plan.find("ranked["));
}

TEST(RankedSqlTest, MatchesDirectTopKAcrossK) {
  Relation hotels = Hotels();
  Engine engine;
  engine.RegisterTable("hotels", hotels);
  PrefPtr pref = Pareto(Lowest("price"), Around("distance", 100));
  for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{6}, size_t{50}}) {
    RankedResult direct = TopK(hotels, pref, k);
    std::string sql =
        k == 0 ? "SELECT RANKED * FROM hotels PREFERRING LOWEST(price) AND "
                 "distance AROUND 100"
               : "SELECT TOP " + std::to_string(k) +
                     " * FROM hotels PREFERRING LOWEST(price) AND "
                     "distance AROUND 100";
    psql::QueryResult res = engine.Execute(sql);
    EXPECT_EQ(res.relation, direct.relation) << sql;
    EXPECT_EQ(res.utilities, direct.utilities) << sql;
  }
}

TEST(RankedSqlTest, DeterministicTieOrder) {
  Engine engine;
  engine.RegisterTable("hotels", Hotels());
  // Dune (row 3) and Dupe (row 4) tie exactly; input order must decide,
  // run after run.
  psql::QueryResult res = engine.Execute(
      "SELECT TOP 2 name FROM hotels PREFERRING LOWEST(price) AND "
      "distance AROUND 300");
  ASSERT_EQ(res.relation.size(), 2u);
  EXPECT_EQ(res.relation.at(0)[0], Value("Dune"));
  EXPECT_EQ(res.relation.at(1)[0], Value("Dupe"));
  psql::QueryResult again = engine.Execute(
      "SELECT TOP 2 name FROM hotels PREFERRING LOWEST(price) AND "
      "distance AROUND 300");
  EXPECT_EQ(again.relation, res.relation);
}

TEST(RankedSqlTest, UtilitiesDescendAndAlign) {
  Engine engine;
  engine.RegisterTable("hotels", Hotels());
  psql::QueryResult res = engine.Execute(
      "SELECT RANKED name, price FROM hotels PREFERRING LOWEST(price)");
  ASSERT_EQ(res.utilities.size(), res.relation.size());
  for (size_t i = 1; i < res.utilities.size(); ++i) {
    EXPECT_GE(res.utilities[i - 1], res.utilities[i]);
  }
  // LOWEST utility is -price: best first.
  EXPECT_EQ(res.relation.at(0)[1], Value(60));
}

TEST(RankedSqlTest, WhereAndLimitCompose) {
  Relation hotels = Hotels();
  Engine engine;
  engine.RegisterTable("hotels", hotels);
  // WHERE filters the candidate pool before ranking; LIMIT truncates the
  // ranked output (after TOP k).
  psql::QueryResult res = engine.Execute(
      "SELECT TOP 3 name FROM hotels WHERE price < 150 "
      "PREFERRING LOWEST(price) LIMIT 2");
  ASSERT_EQ(res.relation.size(), 2u);
  EXPECT_EQ(res.relation.at(0)[0], Value("Charm"));
  EXPECT_EQ(res.relation.at(1)[0], Value("Dune"));
  EXPECT_EQ(res.utilities.size(), 2u);
}

TEST(RankedSqlTest, GroupedTopKMatchesPerGroupDirect) {
  Relation cars = GenerateCars(300, 99);
  Engine engine;
  engine.RegisterTable("car", cars);
  psql::QueryResult res = engine.Execute(
      "SELECT TOP 2 * FROM car PREFERRING LOWEST(price) GROUPING make");
  // Direct reference: per-make TopK in first-occurrence order of makes.
  PrefPtr pref = Lowest("price");
  size_t make_col = *cars.schema().IndexOf("make");
  std::vector<Value> make_order;
  Relation expected(cars.schema());
  std::vector<double> expected_utilities;
  for (const Tuple& t : cars.tuples()) {
    bool seen = false;
    for (const Value& m : make_order) {
      if (m == t[make_col]) seen = true;
    }
    if (!seen) make_order.push_back(t[make_col]);
  }
  for (const Value& make : make_order) {
    Relation group = cars.Filter(
        [&](const Tuple& t) { return t[make_col] == make; });
    RankedResult top = TopK(group, pref, 2);
    for (size_t i = 0; i < top.relation.size(); ++i) {
      expected.Add(top.relation.at(i));
      expected_utilities.push_back(top.utilities[i]);
    }
  }
  EXPECT_EQ(res.relation, expected);
  EXPECT_EQ(res.utilities, expected_utilities);
}

TEST(RankedSqlTest, NaNUtilitiesRankLastGroupedAndNot) {
  // AROUND over a NaN cell scores NaN. Rank order: utility descending,
  // NaN after every number, input order on ties — checked against a
  // brute-force order for k = 1, ties cut at the boundary, and k = all.
  const double nan = std::nan("");
  Relation t(Schema{{"id", ValueType::kInt},
                    {"g", ValueType::kString},
                    {"x", ValueType::kDouble}});
  const std::vector<double> xs = {nan, 7, 3, 5, nan, 9, 3, 1, 7,
                                  nan, 5, 3, 2, 8, nan, 7};
  const char* groups[] = {"a", "b", "c"};
  for (size_t i = 0; i < xs.size(); ++i) {
    t.Add({Value(static_cast<int64_t>(i)), Value(groups[(i * 7) % 3]),
           Value(xs[i])});
  }
  auto utility = [](double x) { return -std::fabs(x - 5.0); };
  // Brute-force order of table rows `pool` (ascending table order).
  auto reference = [&](const std::vector<size_t>& pool, size_t k) {
    std::vector<size_t> numbers;
    std::vector<size_t> nans;
    for (size_t row : pool) {
      (std::isnan(xs[row]) ? nans : numbers).push_back(row);
    }
    std::stable_sort(numbers.begin(), numbers.end(), [&](size_t a, size_t b) {
      return utility(xs[a]) > utility(xs[b]);
    });
    numbers.insert(numbers.end(), nans.begin(), nans.end());
    if (k > 0 && k < numbers.size()) numbers.resize(k);
    return numbers;
  };
  auto ids = [](const psql::QueryResult& res) {
    std::vector<size_t> out;
    for (size_t i = 0; i < res.relation.size(); ++i) {
      out.push_back(static_cast<size_t>(res.relation.ValueAt(i, 0).as_int()));
    }
    return out;
  };
  Engine engine;
  engine.RegisterTable("t", t);
  std::vector<size_t> all(xs.size());
  std::iota(all.begin(), all.end(), 0);
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{0}}) {
    const std::string head = k == 0 ? "SELECT RANKED * FROM t"
                                    : "SELECT TOP " + std::to_string(k) +
                                          " * FROM t";
    const std::string ungrouped = head + " PREFERRING x AROUND 5";
    psql::QueryResult res = engine.Execute(ungrouped);
    const std::vector<size_t> want = reference(all, k);
    EXPECT_EQ(ids(res), want) << ungrouped;
    ASSERT_EQ(res.utilities.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const double u = utility(xs[want[i]]);
      EXPECT_TRUE(std::isnan(u) ? std::isnan(res.utilities[i])
                                : res.utilities[i] == u)
          << ungrouped << " rank " << i;
    }

    std::vector<size_t> grouped_want;
    for (const char* g : {"a", "b", "c"}) {  // first-occurrence order
      std::vector<size_t> pool;
      for (size_t row = 0; row < xs.size(); ++row) {
        if (std::string(groups[(row * 7) % 3]) == g) pool.push_back(row);
      }
      for (size_t row : reference(pool, k)) grouped_want.push_back(row);
    }
    const std::string grouped = ungrouped + " GROUPING g";
    EXPECT_EQ(ids(engine.Execute(grouped)), grouped_want) << grouped;
  }
}

TEST(RankedSqlTest, RandomizedTermsMatchDirect) {
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 30; ++round) {
    Relation r(Schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}});
    size_t n = 1 + rng() % 40;
    for (size_t i = 0; i < n; ++i) {
      r.Add({static_cast<int64_t>(rng() % 20), static_cast<int64_t>(rng() % 20)});
    }
    // Single-utility fragments reachable from SQL: numeric leaves and
    // Pareto combinations.
    const char* terms[] = {
        "LOWEST(a)",
        "HIGHEST(b)",
        "a AROUND 10",
        "a BETWEEN 5 AND 12",
        "LOWEST(a) AND HIGHEST(b)",
        "a AROUND 7 AND b AROUND 3",
    };
    const char* term = terms[rng() % 6];
    size_t k = rng() % (n + 3);
    std::string head =
        k == 0 ? "SELECT RANKED * " : "SELECT TOP " + std::to_string(k) + " * ";
    psql::SelectStatement stmt =
        psql::Parse(head + "FROM t PREFERRING " + term);
    Engine engine;
    engine.RegisterTable("t", r);
    psql::QueryResult res = engine.Execute(stmt);
    RankedResult direct =
        TopK(r, psql::TranslatePreferenceChain(stmt.preferring), k);
    EXPECT_EQ(res.relation, direct.relation) << term << " k=" << k;
    EXPECT_EQ(res.utilities, direct.utilities) << term << " k=" << k;
  }
}

TEST(RankedSqlTest, MultiKeyTermThrowsInvalidArgument) {
  Engine engine;
  engine.RegisterTable("hotels", Hotels());
  // Prioritized terms have no single utility; the ranked model rejects
  // them with a clear error instead of silently reordering.
  EXPECT_THROW(
      engine.Execute("SELECT TOP 2 * FROM hotels "
                     "PREFERRING LOWEST(price) PRIOR TO LOWEST(distance)"),
      std::invalid_argument);
}

TEST(RankedSqlTest, ExplainShowsRankedPlan) {
  Engine engine;
  engine.RegisterTable("hotels", Hotels());
  psql::QueryResult res = engine.Execute(
      "EXPLAIN SELECT TOP 2 name FROM hotels PREFERRING LOWEST(price)");
  EXPECT_NE(res.plan.find("ranked[LOWEST(price), k=2]"), std::string::npos)
      << res.plan;
  EXPECT_NE(res.plan_details.find("model: ranked"), std::string::npos)
      << res.plan_details;
  psql::QueryResult grouped = engine.Execute(
      "EXPLAIN SELECT TOP 1 * FROM hotels PREFERRING LOWEST(price) "
      "GROUPING distance");
  EXPECT_NE(grouped.plan.find("ranked_groupby["), std::string::npos)
      << grouped.plan;
}

TEST(RankedSqlTest, RankedResultsAreCachedAndInvalidated) {
  Engine engine;
  engine.RegisterTable("hotels", Hotels());
  const char* sql =
      "SELECT TOP 1 name, price FROM hotels PREFERRING LOWEST(price)";
  psql::QueryResult first = engine.Execute(sql);
  EXPECT_EQ(first.relation.at(0)[0], Value("Charm"));
  psql::QueryResult warm = engine.Execute(sql);
  EXPECT_TRUE(warm.stats.exec_cache_hit);
  engine.Insert("hotels", Tuple{"Zero", 10, 0});
  psql::QueryResult after = engine.Execute(sql);
  EXPECT_FALSE(after.stats.exec_cache_hit);
  EXPECT_EQ(after.relation.at(0)[0], Value("Zero"));
}

TEST(RankedSqlTest, OneShotEngineSupportsRanked) {
  psql::Catalog catalog;
  catalog.Register("hotels", Hotels());
  Engine one_shot(catalog);
  psql::QueryResult res = one_shot.Execute(
      "SELECT TOP 2 name FROM hotels PREFERRING LOWEST(price)");
  ASSERT_EQ(res.relation.size(), 2u);
  EXPECT_EQ(res.utilities.size(), 2u);
}

}  // namespace
}  // namespace prefdb
