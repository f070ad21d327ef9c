// Stateful engine tests: plan/exec cache correctness (warm results ==
// cold results), invalidation on mutation, and race-freedom of
// concurrent PreparedQuery::Run and of racing cold builds (exercised
// under ASan and TSan in CI).

#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <thread>

#include "algebra/simplifier.h"
#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "datagen/vectors.h"
#include "eval/bmo_internal.h"
#include "eval/ranked.h"
#include "exec/score_table.h"
#include "psql/executor.h"
#include "psql/parser.h"
#include "psql/translator.h"

namespace prefdb {
namespace {

/// Legacy cold-execution reference: a throwaway Engine with both caches
/// off reproduces exactly what the removed stateless wrappers did —
/// parse, translate, optimize, compile and execute from scratch.
psql::QueryResult ColdExecute(const std::string& sql,
                              const psql::Catalog& catalog) {
  EngineOptions options;
  options.enable_plan_cache = false;
  options.enable_exec_cache = false;
  Engine engine(catalog, options);
  return engine.Execute(sql);
}

Relation SmallCars() {
  Schema s({{"make", ValueType::kString},
            {"category", ValueType::kString},
            {"color", ValueType::kString},
            {"price", ValueType::kInt},
            {"power", ValueType::kInt},
            {"mileage", ValueType::kInt}});
  Relation car(s);
  car.Add({"Opel", "roadster", "red", 38000, 140, 30000});
  car.Add({"Opel", "coupe", "red", 41000, 150, 60000});
  car.Add({"Opel", "passenger", "blue", 39500, 90, 20000});
  car.Add({"Opel", "roadster", "black", 45000, 170, 80000});
  car.Add({"BMW", "roadster", "red", 40000, 190, 10000});
  return car;
}

// The workload the caches must stay transparent for: a mix of WHERE,
// Pareto/prioritized/layered terms, grouping, EXPLAIN, skyline and
// quality supervision.
const char* kQueries[] = {
    "SELECT * FROM car PREFERRING LOWEST(price)",
    "SELECT make, price FROM car WHERE make = 'Opel' "
    "PREFERRING LOWEST(price) AND LOWEST(mileage)",
    "SELECT * FROM car PREFERRING (category = 'roadster' ELSE "
    "category <> 'passenger' AND price AROUND 40000 AND HIGHEST(power)) "
    "CASCADE color = 'red' CASCADE LOWEST(mileage)",
    "SELECT * FROM car PREFERRING LOWEST(price) GROUPING make",
    "SELECT * FROM car SKYLINE OF price MIN, mileage MIN",
    "EXPLAIN SELECT * FROM car PREFERRING LOWEST(price) AND "
    "LOWEST(mileage)",
    "SELECT * FROM car PREFERRING price AROUND 40000 "
    "BUT ONLY DISTANCE(price) <= 2000",
    "SELECT make FROM car WHERE price < 42000 LIMIT 2",
};

TEST(EngineTest, RepeatedRunMatchesColdExecution) {
  Relation car = SmallCars();
  psql::Catalog catalog;
  catalog.Register("car", car);
  Engine engine;
  engine.RegisterTable("car", car);
  for (const char* sql : kQueries) {
    psql::QueryResult cold = ColdExecute(sql, catalog);
    PreparedQuery prepared = engine.Prepare(sql);
    psql::QueryResult first = prepared.Run();
    psql::QueryResult second = prepared.Run();  // exec-cache hit
    psql::QueryResult third = engine.Execute(sql);  // plan-cache hit
    EXPECT_EQ(first.relation, cold.relation) << sql;
    EXPECT_EQ(second.relation, cold.relation) << sql;
    EXPECT_EQ(third.relation, cold.relation) << sql;
    EXPECT_EQ(first.plan, cold.plan) << sql;
    EXPECT_EQ(second.plan, cold.plan) << sql;
    EXPECT_TRUE(second.stats.exec_cache_hit) << sql;
    EXPECT_TRUE(third.stats.plan_cache_hit) << sql;
  }
  Engine::CacheStats stats = engine.cache_stats();
  EXPECT_GT(stats.exec_hits, 0u);
  EXPECT_GT(stats.plan_hits, 0u);
}

TEST(EngineTest, PlanCacheNormalizesWhitespaceAndComments) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  engine.Execute("SELECT * FROM car PREFERRING LOWEST(price)");
  psql::QueryResult res = engine.Execute(
      "SELECT   *  FROM car  -- comment\n   PREFERRING LOWEST(price) ;");
  EXPECT_TRUE(res.stats.plan_cache_hit);
  EXPECT_EQ(res.relation.size(), 1u);
}

TEST(EngineTest, StringLiteralsSurviveNormalization) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  // Spaces inside string literals are significant; spaces around are not.
  psql::QueryResult a =
      engine.Execute("SELECT * FROM car WHERE make = 'Opel'");
  psql::QueryResult b =
      engine.Execute("SELECT * FROM car WHERE make = ' Opel'");
  EXPECT_EQ(a.relation.size(), 4u);
  EXPECT_EQ(b.relation.size(), 0u);
  EXPECT_FALSE(b.stats.plan_cache_hit);
}

TEST(EngineTest, InsertInvalidatesAndRecomputes) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  PreparedQuery prepared =
      engine.Prepare("SELECT * FROM car PREFERRING LOWEST(price)");
  psql::QueryResult before = prepared.Run();
  ASSERT_EQ(before.relation.size(), 1u);
  EXPECT_EQ(before.relation.at(0)[3], Value(38000));
  uint64_t v1 = engine.TableVersion("car");

  // A new cheapest car must evict the cached score table and win.
  engine.Insert("car", Tuple{"VW", "passenger", "white", 9000, 75, 1000});
  EXPECT_GT(engine.TableVersion("car"), v1);
  psql::QueryResult after = prepared.Run();
  ASSERT_EQ(after.relation.size(), 1u);
  EXPECT_EQ(after.relation.at(0)[3], Value(9000));
  EXPECT_FALSE(after.stats.exec_cache_hit);
  EXPECT_GT(engine.cache_stats().invalidations, 0u);

  // The new state is cached again.
  psql::QueryResult warm = prepared.Run();
  EXPECT_TRUE(warm.stats.exec_cache_hit);
  EXPECT_EQ(warm.relation, after.relation);
}

TEST(EngineTest, RegisterTableInvalidates) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  PreparedQuery prepared =
      engine.Prepare("SELECT * FROM car PREFERRING HIGHEST(power)");
  EXPECT_EQ(prepared.Run().relation.at(0)[4], Value(190));
  Relation two(SmallCars().schema());
  two.Add({"Audi", "coupe", "silver", 50000, 300, 500});
  engine.RegisterTable("car", two);
  psql::QueryResult res = prepared.Run();
  ASSERT_EQ(res.relation.size(), 1u);
  EXPECT_EQ(res.relation.at(0)[4], Value(300));
}

TEST(EngineTest, MutationDuringPreparedLifetimeIsSnapshotted) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  std::shared_ptr<const Relation> snapshot = engine.Snapshot("car");
  engine.Insert("car", Tuple{"VW", "passenger", "white", 9000, 75, 1000});
  // The old snapshot is untouched (copy-on-write).
  EXPECT_EQ(snapshot->size(), 5u);
  EXPECT_EQ(engine.Snapshot("car")->size(), 6u);
}

TEST(EngineTest, ExplicitAlgorithmsShareTheCache) {
  Engine engine;
  engine.RegisterTable("car", GenerateCars(800, 11));
  const char* sql =
      "SELECT oid, price, mileage FROM car "
      "PREFERRING LOWEST(price) AND LOWEST(mileage)";
  BmoOptions bnl;
  bnl.algorithm = BmoAlgorithm::kBlockNestedLoop;
  BmoOptions sfs;
  sfs.algorithm = BmoAlgorithm::kSortFilter;
  BmoOptions naive;
  naive.algorithm = BmoAlgorithm::kNaive;
  psql::QueryResult auto_res = engine.Execute(sql);
  psql::QueryResult bnl_res = engine.Execute(sql, bnl);
  psql::QueryResult sfs_res = engine.Execute(sql, sfs);
  psql::QueryResult naive_res = engine.Execute(sql, naive);
  EXPECT_TRUE(auto_res.relation.SameRows(bnl_res.relation));
  EXPECT_TRUE(auto_res.relation.SameRows(sfs_res.relation));
  EXPECT_TRUE(auto_res.relation.SameRows(naive_res.relation));
  EXPECT_EQ(naive_res.stats.kernel, "closure");
  // Distinct option signatures must not collide in the exec cache.
  EXPECT_TRUE(engine.Execute(sql, bnl).stats.exec_cache_hit);
  EXPECT_TRUE(engine.Execute(sql, naive).stats.exec_cache_hit);
}

TEST(EngineTest, ConcurrentRunsOnOnePreparedQuery) {
  Engine engine;
  engine.RegisterTable("car", GenerateCars(2000, 23));
  PreparedQuery prepared = engine.Prepare(
      "SELECT oid, price, mileage FROM car WHERE price < 30000 "
      "PREFERRING LOWEST(price) AND LOWEST(mileage)");
  psql::QueryResult expected = prepared.Run();
  ASSERT_GE(expected.relation.size(), 1u);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&prepared, &expected, &mismatches] {
      for (int i = 0; i < 20; ++i) {
        psql::QueryResult res = prepared.Run();
        if (!(res.relation == expected.relation)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(EngineTest, ConcurrentRunsRacingMutations) {
  Engine engine;
  engine.RegisterTable("car", GenerateCars(500, 5));
  PreparedQuery prepared =
      engine.Prepare("SELECT * FROM car PREFERRING LOWEST(price)");
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&prepared, &stop, &failures] {
      while (!stop.load()) {
        psql::QueryResult res = prepared.Run();
        // Every run sees a consistent snapshot: non-empty result with a
        // single minimal price.
        if (res.relation.empty()) failures.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    // Schema: oid, make, category, color, transmission, price, mileage,
    // horsepower, year, fuel_economy, insurance_rating, commission.
    engine.Insert("car",
                  Tuple{static_cast<int64_t>(100000 + i), "VW", "suv", "blue",
                        "manual", 15000 + i, 1000 * i, 90, 1998, 8.0, 3, 300});
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(EngineTest, UnknownTableThrowsFromRun) {
  Engine engine;
  PreparedQuery prepared = engine.Prepare("SELECT * FROM nothing");
  EXPECT_THROW(prepared.Run(), std::out_of_range);
  // Registering the table afterwards makes the same prepared query work.
  engine.RegisterTable("nothing", SmallCars());
  EXPECT_EQ(prepared.Run().relation.size(), 5u);
}

TEST(EngineTest, CachesCanBeDisabled) {
  EngineOptions options;
  options.enable_plan_cache = false;
  options.enable_exec_cache = false;
  Engine engine(options);
  engine.RegisterTable("car", SmallCars());
  const char* sql = "SELECT * FROM car PREFERRING LOWEST(price)";
  psql::QueryResult a = engine.Execute(sql);
  psql::QueryResult b = engine.Execute(sql);
  EXPECT_FALSE(b.stats.plan_cache_hit);
  EXPECT_FALSE(b.stats.exec_cache_hit);
  EXPECT_EQ(a.relation, b.relation);
  Engine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.plan_hits, 0u);
  EXPECT_EQ(stats.exec_hits, 0u);
}

TEST(EngineTest, ExplainCarriesTimingLine) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  psql::QueryResult res = engine.Execute(
      "EXPLAIN SELECT * FROM car PREFERRING LOWEST(price)");
  EXPECT_NE(res.plan_details.find("algorithm:"), std::string::npos);
  EXPECT_NE(res.plan_details.find("timing: parse="), std::string::npos);
  EXPECT_NE(res.plan_details.find("exec_cache="), std::string::npos);
  EXPECT_GT(res.stats.total_ns, 0u);
  const psql::QueryStats& s = res.stats;
  EXPECT_LE(s.parse_ns + s.translate_ns + s.optimize_ns + s.compile_ns +
                s.execute_ns,
            s.total_ns);
}

TEST(EngineTest, StoredPreferencesPrepareAndCache) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  engine.StorePreference(
      "wish", Prioritized(Neg("color", {"black"}), Lowest("price")));
  PreparedQuery q = engine.PrepareStored("car", "wish");
  psql::QueryResult res = q.Run();
  Relation direct = Bmo(*engine.Snapshot("car"), engine.GetPreference("wish"));
  EXPECT_EQ(res.relation, direct);
  EXPECT_TRUE(q.Run().stats.exec_cache_hit);
  // The same (table, term) pair shares the plan entry.
  engine.PrepareStored("car", "wish");
  EXPECT_GT(engine.cache_stats().plan_hits, 0u);
  EXPECT_THROW(engine.PrepareStored("car", "unknown"), std::out_of_range);
}

TEST(EngineTest, EqualRenderingDistinctTermsDoNotCollide) {
  // SubsetPreference::ToString renders only the subset SIZE, so two
  // different subsets of equal size have identical renderings; the term
  // plan cache must key by object identity, not the rendering.
  Engine engine;
  Relation r(Schema{{"x", ValueType::kInt}});
  for (int i = 0; i < 6; ++i) r.Add({i});
  engine.RegisterTable("t", r);
  PrefPtr low = Lowest("x");
  PrefPtr sub_a = Subset(low, {Tuple{0}, Tuple{1}});
  PrefPtr sub_b = Subset(low, {Tuple{4}, Tuple{5}});
  ASSERT_EQ(sub_a->ToString(), sub_b->ToString());
  Relation res_a = engine.Prepare("t", sub_a).Run().relation;
  Relation res_b = engine.Prepare("t", sub_b).Run().relation;
  EXPECT_EQ(res_a, Bmo(r, sub_a));
  EXPECT_EQ(res_b, Bmo(r, sub_b));
  EXPECT_FALSE(res_a == res_b);
}

TEST(EngineTest, ProgrammaticTermsIncludeRankF) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  // rank(F) has no SQL spelling; the programmatic path makes it cacheable.
  PrefPtr rank = RankWeightedSum(
      {1.0, 2.0}, {Lowest("price"), Around("mileage", 20000)});
  PreparedQuery q = engine.PrepareRanked("car", rank, 3);
  psql::QueryResult res = q.Run();
  RankedResult direct =
      TopK(*engine.Snapshot("car"),
           *std::dynamic_pointer_cast<const RankPreference>(rank), 3);
  EXPECT_EQ(res.relation, direct.relation);
  EXPECT_EQ(res.utilities, direct.utilities);
  EXPECT_TRUE(q.Run().stats.exec_cache_hit);
}

TEST(EngineTest, LruBoundsEvictColdEntries) {
  EngineOptions options;
  options.plan_cache_capacity = 4;
  options.exec_cache_capacity = 2;
  Engine engine(options);
  engine.RegisterTable("car", SmallCars());
  // Eight distinct statements against caps of 4/2 must evict.
  std::vector<std::string> sqls;
  for (int limit = 1; limit <= 8; ++limit) {
    sqls.push_back("SELECT * FROM car PREFERRING LOWEST(price) LIMIT " +
                   std::to_string(limit));
  }
  for (const std::string& sql : sqls) engine.Execute(sql);
  Engine::CacheStats stats = engine.cache_stats();
  EXPECT_GE(stats.plan_evictions, 4u);
  EXPECT_GE(stats.exec_evictions, 6u);
  // Evicted entries simply rebuild: correctness is unaffected, and the
  // counters are surfaced per query through QueryResult.stats.
  psql::QueryResult res = engine.Execute(sqls.front());
  EXPECT_FALSE(res.stats.exec_cache_hit);
  EXPECT_EQ(res.relation.size(), 1u);
  EXPECT_GE(res.stats.exec_cache_evictions, 6u);
  EXPECT_GE(res.stats.plan_cache_evictions, 4u);
  // The hot tail survives within the caps: re-running the most recent
  // statement hits both caches.
  engine.Execute(sqls.back());
  EXPECT_TRUE(engine.Execute(sqls.back()).stats.exec_cache_hit);
}

TEST(EngineTest, UnboundedCapacityNeverEvicts) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  options.exec_cache_capacity = 0;
  Engine engine(options);
  engine.RegisterTable("car", SmallCars());
  for (int limit = 1; limit <= 20; ++limit) {
    engine.Execute("SELECT * FROM car LIMIT " + std::to_string(limit));
  }
  EXPECT_EQ(engine.cache_stats().plan_evictions, 0u);
  EXPECT_EQ(engine.cache_stats().exec_evictions, 0u);
}

TEST(EngineTest, PerGroupCompiledStateIsCachedAndReused) {
  Engine engine;
  engine.RegisterTable("car", GenerateCars(2000, 31));
  PreparedQuery prepared = engine.Prepare(
      "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) "
      "GROUPING make");
  psql::QueryResult first = prepared.Run();
  psql::QueryResult warm = prepared.Run();
  EXPECT_TRUE(warm.stats.exec_cache_hit);
  // The entry ran one kernel per group when it was built; warm runs
  // serve its memoized rows: no compile, plan or kernel work.
  EXPECT_GT(first.stats.kernel_ns, 0u);
  EXPECT_EQ(warm.stats.compile_ns, 0u);
  EXPECT_EQ(warm.stats.optimize_ns, 0u);
  EXPECT_EQ(warm.stats.kernel_ns, 0u);
  EXPECT_EQ(warm.relation, first.relation);
  EXPECT_NE(warm.stats.kernel.find("per-group"), std::string::npos);
  // Reference: the relation-level grouped evaluator.
  Relation direct = BmoGroupBy(*engine.Snapshot("car"),
                               Pareto(Lowest("price"), Lowest("mileage")),
                               {"make"});
  EXPECT_TRUE(warm.relation.SameRows(direct));
}

TEST(EngineTest, ExplainReportsWhereThePassSwitched) {
  // EXPLAIN reports what the kAuto pass ran, not an estimate: the car
  // 2-d Pareto's window stays under its bound, the anti-correlated d4
  // skyline's outgrows it and the pass finishes as SFS.
  Engine engine;
  engine.RegisterTable("car", GenerateCars(1500, 3));
  engine.RegisterTable(
      "v", GenerateVectors(4096, 4, Correlation::kAntiCorrelated, 42));
  psql::QueryResult res = engine.Execute(
      "EXPLAIN SELECT * FROM car PREFERRING LOWEST(price) AND "
      "LOWEST(mileage)");
  EXPECT_NE(res.plan_details.find("no switch (bound "),
            std::string::npos)
      << res.plan_details;
  EXPECT_EQ(res.plan_details.find("cost"), std::string::npos)
      << res.plan_details;
  EXPECT_EQ(res.stats.estimated_cost_ns, 0.0);
  EXPECT_EQ(res.stats.kernel.rfind("bnl[", 0), 0u) << res.stats.kernel;

  res = engine.Execute(
      "EXPLAIN SELECT * FROM v PREFERRING HIGHEST(d0) AND HIGHEST(d1) AND "
      "HIGHEST(d2) AND HIGHEST(d3)");
  EXPECT_NE(res.plan_details.find("switch: bnl→sfs at row "),
            std::string::npos)
      << res.plan_details;
  EXPECT_NE(res.plan_details.find(" of 4096, window 161 (final "),
            std::string::npos)
      << res.plan_details;
  // QueryStats names the kernel that finished the pass.
  EXPECT_EQ(res.stats.kernel.rfind("sfs[", 0), 0u) << res.stats.kernel;
  EXPECT_NE(res.plan.find(", sfs, kernel=sfs["), std::string::npos)
      << res.plan;
}

TEST(EngineTest, StatsFollowTheCurrentSnapshot) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  std::shared_ptr<const TableStats> before = engine.Stats("car");
  EXPECT_EQ(before->rows, 5u);
  ASSERT_EQ(before->names[3], "price");
  const size_t price_distinct = before->columns[3].distinct;
  engine.Insert("car", Tuple{"VW", "passenger", "white", 9000, 75, 1000});
  std::shared_ptr<const TableStats> after = engine.Stats("car");
  EXPECT_EQ(after->rows, 6u);
  EXPECT_EQ(after->columns[3].distinct, price_distinct + 1);
  // The old snapshot is immutable.
  EXPECT_EQ(before->rows, 5u);
  // RegisterTable resets: stats rebuild from the new relation.
  Relation two(SmallCars().schema());
  two.Add({"Audi", "coupe", "silver", 50000, 300, 500});
  engine.RegisterTable("car", two);
  EXPECT_EQ(engine.Stats("car")->rows, 1u);
}

TEST(EngineTest, CacheFreeExecutionMatchesCachedEngine) {
  Relation car = SmallCars();
  psql::Catalog catalog;
  catalog.Register("car", car);
  Engine engine(catalog);
  for (const char* sql : kQueries) {
    psql::QueryResult cold = ColdExecute(sql, catalog);
    psql::QueryResult direct = engine.Execute(sql);
    EXPECT_EQ(cold.relation, direct.relation) << sql;
  }
}

TEST(EngineTest, ExecBytesGaugeCountsCompactEntries) {
  // The exec-cache gauge sums what the live entries hold. An entry keeps
  // its answer — 32-bit table rows plus its plan texts — and drops the
  // score tables it was computed from, so the CASCADE template of the
  // serving workloads costs a few bytes per result row, however large
  // its candidate pool.
  Engine engine;
  engine.RegisterTable("car", GenerateCars(100000, 7));
  EXPECT_EQ(engine.cache_stats().exec_bytes, 0u);
  const std::string sql =
      "SELECT * FROM car WHERE price < 30000 PREFERRING (category = "
      "'roadster' ELSE category <> 'passenger') AND price AROUND 20000 "
      "CASCADE LOWEST(mileage)";
  psql::QueryResult cold = engine.Execute(sql);
  psql::QueryResult warm = engine.Execute(sql);
  ASSERT_TRUE(warm.stats.exec_cache_hit);
  EXPECT_EQ(warm.relation, cold.relation);
  const std::shared_ptr<const Relation> car = engine.Snapshot("car");
  const size_t price = *car->schema().IndexOf("price");
  size_t candidates = 0;
  for (size_t i = 0; i < car->size(); ++i) {
    if (car->RowAt(i)[price] < Value(30000)) ++candidates;
  }
  ASSERT_GT(candidates, 10000u);
  const size_t result_rows = cold.relation.size();
  ASSERT_GT(result_rows, 0u);
  const size_t bytes = engine.cache_stats().exec_bytes;
  EXPECT_GE(bytes, result_rows * sizeof(uint32_t));
  EXPECT_LE(bytes, result_rows * 8 + 1024) << result_rows << " result rows";

  engine.ClearCaches();
  EXPECT_EQ(engine.cache_stats().exec_bytes, 0u);
  engine.Execute(sql);
  EXPECT_GT(engine.cache_stats().exec_bytes, 0u);
  engine.Insert("car", car->RowAt(0));  // invalidates the entry
  EXPECT_EQ(engine.cache_stats().exec_bytes, 0u);
}

TEST(EngineTest, ClosureFallbackKeepsItsTuplesAndMatchesTheOracle) {
  // A term that does not compile (here an EXPLICIT graph that is not a
  // weak order) runs the closure BNL window over the distinct Tuples
  // when the entry is built; warm runs serve the rows it memoized. Both
  // must return the naive oracle's rows.
  Engine engine;
  engine.RegisterTable("car", GenerateCars(3000, 5));
  const std::shared_ptr<const Relation> car = engine.Snapshot("car");
  const BmoOptions oracle{BmoAlgorithm::kNaive};
  PrefPtr forest = Pareto(
      Explicit("category", {{Value("roadster"), Value("coupe")},
                            {Value("passenger"), Value("van")}}),
      Lowest("price"));
  ASSERT_FALSE(ScoreTable::CompilableTerm(forest));
  PreparedQuery term = engine.Prepare("car", forest);
  for (int run = 0; run < 2; ++run) {
    psql::QueryResult b = term.Run();
    EXPECT_EQ(b.stats.exec_cache_hit, run > 0);
    EXPECT_EQ(b.stats.kernel, "closure");
    EXPECT_TRUE(b.relation.SameRows(Bmo(*car, forest, oracle)));
  }
  EXPECT_GT(engine.cache_stats().exec_bytes, 0u);
}

TEST(EngineTest, PlainLimitStopsAtLimitSurvivors) {
  // Without a preference, ranking or grouping, LIMIT n needs only the
  // first n candidates: the cached entry stops the WHERE scan there. The
  // result must equal a full scan plus truncation.
  Relation car = GenerateCars(20000, 9);
  psql::Catalog catalog;
  catalog.Register("car", car);
  Engine engine(catalog);
  const std::pair<const char*, size_t> cases[] = {
      {"SELECT oid FROM car WHERE price < 20000", 5},
      {"SELECT oid, price, mileage FROM car WHERE price < 20000", 40},
      // More than the WHERE clause lets through: nothing to cut.
      {"SELECT * FROM car WHERE price < 6000", 100000},
      {"SELECT * FROM car", 7},
      {"SELECT make FROM car", 3},
  };
  for (const auto& [full, limit] : cases) {
    const std::string limited =
        std::string(full) + " LIMIT " + std::to_string(limit);
    SCOPED_TRACE(limited);
    Relation all = engine.Execute(full).relation;
    std::vector<size_t> head(std::min(limit, all.size()));
    std::iota(head.begin(), head.end(), 0);
    Relation expected = all.SelectRows(head);
    engine.ClearCaches();
    psql::QueryResult cold = ColdExecute(limited, catalog);
    psql::QueryResult first = engine.Execute(limited);
    psql::QueryResult warm = engine.Execute(limited);
    EXPECT_TRUE(warm.stats.exec_cache_hit);
    EXPECT_EQ(first.relation, expected);
    EXPECT_EQ(warm.relation, expected);
    EXPECT_EQ(cold.relation, expected);
    EXPECT_EQ(warm.plan, first.plan);
    EXPECT_EQ(warm.plan.find("-> limit") != std::string::npos,
              all.size() > limit);
    // The entry holds at most limit + 1 candidate rows.
    EXPECT_LE(engine.cache_stats().exec_bytes,
              std::max<size_t>(1024, 2 * (limit + 1) * sizeof(size_t)));
  }
}

TEST(EngineTest, ExplainNamesTheCompilePathOfEveryGroup) {
  // Groups take the same dedup decision as ungrouped blocks; EXPLAIN
  // counts the blocks per compile path.
  Engine engine;
  engine.RegisterTable("car", GenerateCars(5000, 3));
  const std::shared_ptr<const Relation> car = engine.Snapshot("car");
  const size_t makes = car->DistinctProjections({"make"}).size();
  ASSERT_GT(makes, 1u);
  psql::QueryResult explain = engine.Execute(
      "EXPLAIN SELECT * FROM car PREFERRING LOWEST(price) GROUPING make");
  EXPECT_NE(explain.plan_details.find("compile: zero-copy " +
                                      std::to_string(makes) + "\n"),
            std::string::npos)
      << explain.plan_details;
  psql::QueryResult ungrouped =
      engine.Execute("EXPLAIN SELECT * FROM car PREFERRING LOWEST(price)");
  EXPECT_NE(ungrouped.plan_details.find("compile: zero-copy\n"),
            std::string::npos)
      << ungrouped.plan_details;
}

TEST(EngineTest, GroupedExplainCountsEveryGroupAndItsSwitch) {
  // Each group runs its own block: the grouping line counts the groups
  // per finishing kernel and how many switched from BNL to SFS, and the
  // plan text names the request rather than one group's kernel. Group
  // "anti" holds anti-correlated rows, whose window outgrows its bound;
  // group "indep" independent rows, whose window stays narrow.
  Relation r(Schema{{"g", ValueType::kString},
                    {"d0", ValueType::kDouble},
                    {"d1", ValueType::kDouble},
                    {"d2", ValueType::kDouble},
                    {"d3", ValueType::kDouble}});
  for (const auto& [group, corr] :
       {std::pair<const char*, Correlation>{"anti",
                                            Correlation::kAntiCorrelated},
        {"indep", Correlation::kIndependent}}) {
    const Relation v = GenerateVectors(4096, 4, corr, 42);
    for (size_t i = 0; i < v.size(); ++i) {
      Tuple row({Value(group)});
      for (size_t c = 0; c < 4; ++c) row.Append(v.ValueAt(i, c));
      r.Add(std::move(row));
    }
  }
  Engine engine;
  engine.RegisterTable("t", r);
  const std::string query =
      "SELECT * FROM t PREFERRING HIGHEST(d0) AND HIGHEST(d1) AND "
      "HIGHEST(d2) AND HIGHEST(d3) GROUPING g";
  const psql::QueryResult res = engine.Execute("EXPLAIN " + query);
  const std::string& details = res.plan_details;
  EXPECT_NE(details.find("grouping: 2 group(s), each run on its own block: "
                         "bnl ×1, sfs ×1; 1 switched bnl→sfs\n"),
            std::string::npos)
      << details;
  // The shown run is the largest group's; both hold 4096 rows, so the
  // first, which switched.
  EXPECT_NE(details.find("switch: bnl→sfs at row "), std::string::npos)
      << details;
  EXPECT_EQ(details.find("cost"), std::string::npos) << details;
  EXPECT_EQ(res.stats.estimated_cost_ns, 0.0);

  EXPECT_NE(res.plan.find(", auto, kernel="), std::string::npos) << res.plan;
  BmoOptions forced;
  forced.algorithm = BmoAlgorithm::kSortFilter;
  const psql::QueryResult sfs = engine.Execute("EXPLAIN " + query, forced);
  EXPECT_NE(sfs.plan.find(", sfs, kernel="), std::string::npos);
  EXPECT_NE(sfs.plan_details.find("sfs ×2; 0 switched"), std::string::npos)
      << sfs.plan_details;
  EXPECT_TRUE(sfs.relation.SameRows(res.relation));
}

// One term family of the cross-path agreement test: a relation with an
// "id" column (row i has id i) and a grouping column "g", plus the term.
struct AgreementFamily {
  std::string name;
  Relation relation;
  std::string preferring;  // SQL spelling; empty when SQL has none
  PrefPtr term;
  std::string compile_path;  // EXPLAIN's path; empty when nothing compiles
  bool switches = false;     // kAuto's ungrouped pass switches BNL -> SFS
};

// Adds a family twice: over a mostly-distinct pool, which compiles as it
// is ("zero-copy"), and over a heavily duplicated one, which compiles
// deduplicated ("dedup"). `make(duplicated)` builds the relation.
void AddBothPools(std::vector<AgreementFamily>* families,
                  const std::string& name,
                  const std::function<Relation(bool)>& make,
                  const std::string& preferring, const PrefPtr& term) {
  families->push_back({name + ", distinct pool", make(false), preferring,
                       term, "zero-copy"});
  families->push_back({name + ", duplicated pool", make(true), preferring,
                       term, "dedup"});
}

std::vector<AgreementFamily> AgreementFamilies() {
  std::vector<AgreementFamily> families;
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const char* groups[] = {"north", "south", "east", "west"};
  {
    // Mostly-distinct NaN-free doubles: compiles off the column buffers.
    Relation r(Schema{{"id", ValueType::kInt},
                      {"g", ValueType::kString},
                      {"a", ValueType::kDouble},
                      {"b", ValueType::kDouble}});
    for (int64_t i = 0; i < 9000; ++i) {
      r.Add({Value(i), groups[rng() % 4], Value(uni(rng)), Value(uni(rng))});
    }
    families.push_back({"zero-copy numeric Pareto", r,
                        "LOWEST(a) AND LOWEST(b)",
                        Pareto(Lowest("a"), Lowest("b")), "zero-copy"});
  }
  {
    // Few distinct values and a string column: compiled deduplicated.
    Relation r(Schema{{"id", ValueType::kInt},
                      {"g", ValueType::kString},
                      {"color", ValueType::kString},
                      {"price", ValueType::kInt}});
    const char* colors[] = {"red", "blue", "green", "black", "white"};
    for (int64_t i = 0; i < 6000; ++i) {
      r.Add({Value(i), groups[rng() % 3], colors[rng() % 5],
             Value(int64_t(rng() % 50))});
    }
    families.push_back(
        {"dedup with duplicates and strings", r,
         "color IN ('red', 'blue') AND LOWEST(price)",
         Pareto(Pos("color", {Value("red"), Value("blue")}), Lowest("price")),
         "dedup"});
  }
  {
    // LINEAR_SUM does not compile: the closure kernels run. SQL cannot
    // spell it, so the engine runs it as a programmatic term (ungrouped).
    Relation r(Schema{{"id", ValueType::kInt},
                      {"g", ValueType::kString},
                      {"x", ValueType::kInt},
                      {"y", ValueType::kInt}});
    for (int64_t i = 0; i < 3000; ++i) {
      r.Add({Value(i), groups[rng() % 4], Value(int64_t(rng() % 100)),
             Value(int64_t(rng() % 1000))});
    }
    PrefPtr fused = LinearSum(
        "x", Lowest("x"), Highest("x"),
        [](const Value& v) { return *v.numeric() < 50; },
        [](const Value& v) { return *v.numeric() >= 50; });
    families.push_back({"closure-only LINEAR_SUM", r, "",
                        Pareto(fused, Lowest("y")), ""});
  }
  {
    // NaN and NULL cells: the leaves code their equality classes from
    // the column store instead of reading the raw double buffer.
    Relation r(Schema{{"id", ValueType::kInt},
                      {"g", ValueType::kString},
                      {"x", ValueType::kDouble},
                      {"y", ValueType::kInt}});
    for (int64_t i = 0; i < 5000; ++i) {
      const uint64_t dice = rng() % 20;
      Value x = dice == 0   ? Value()
                : dice == 1 ? Value(std::nan(""))
                            : Value(double(rng() % 400) / 4);
      r.Add({Value(i), groups[rng() % 4], x, Value(int64_t(rng() % 300))});
    }
    families.push_back({"NaN and NULL column", r, "LOWEST(x) AND HIGHEST(y)",
                        Pareto(Lowest("x"), Highest("y")), "zero-copy"});
  }
  // The CASCADE shape of the serving workloads: a string level term (an
  // ELSE chain, i.e. POS/NEG) beside AROUND, then LOWEST. The distinct
  // pool's string column is itself mostly distinct.
  AddBothPools(
      &families, "string level term beside AROUND",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"c", ValueType::kString},
                          {"price", ValueType::kInt},
                          {"mileage", ValueType::kInt}});
        const char* named[] = {"roadster", "passenger", "coupe"};
        for (int64_t i = 0; i < 6000; ++i) {
          const uint64_t pick = rng() % (duplicated ? 4 : 3000);
          const std::string c =
              pick < 3 ? named[pick] : "model" + std::to_string(pick);
          const int64_t price = duplicated ? 17000 + 1000 * int64_t(rng() % 6)
                                           : int64_t(rng() % 40000);
          const int64_t mileage = duplicated ? 10000 * int64_t(rng() % 5)
                                             : int64_t(rng() % 200000);
          r.Add({Value(i), groups[rng() % 4], Value(c), Value(price),
                 Value(mileage)});
        }
        return r;
      },
      "(c = 'roadster' ELSE c <> 'passenger') AND price AROUND 20000 "
      "CASCADE LOWEST(mileage)",
      Prioritized(Pareto(PosNeg("c", {Value("roadster")}, {Value("passenger")}),
                         Around("price", 20000)),
                  Lowest("mileage")));
  // POS on a column mixing ints, strings and NULLs.
  AddBothPools(
      &families, "POS on a mixed int/string/NULL column",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"m", ValueType::kInt},
                          {"y", ValueType::kInt}});
        for (int64_t i = 0; i < 6000; ++i) {
          const uint64_t pick = rng() % (duplicated ? 6 : 4000);
          Value m = pick % 3 == 0   ? Value(int64_t(pick))
                    : pick % 3 == 1 ? Value("s" + std::to_string(pick))
                                    : Value();
          if (!duplicated && pick % 3 == 2 && pick % 2 == 0) {
            m = Value(double(pick) + 0.5);  // keep the pool mostly distinct
          }
          r.Add({Value(i), groups[rng() % 4], m,
                 Value(int64_t(rng() % (duplicated ? 20 : 5000)))});
        }
        return r;
      },
      "m IN (3, 's4', 12) AND LOWEST(y)",
      Pareto(Pos("m", {Value(int64_t(3)), Value("s4"), Value(int64_t(12))}),
             Lowest("y")));
  // An anti-chain grouping term A<-> & P (Prop. σ[A<-> & P] = σ[P groupby
  // A]); SQL spells grouping as GROUPING, so the term is programmatic.
  AddBothPools(
      &families, "anti-chain grouping term",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"k", ValueType::kString},
                          {"x", ValueType::kDouble},
                          {"y", ValueType::kDouble}});
        for (int64_t i = 0; i < 6000; ++i) {
          const double x = duplicated ? double(rng() % 6) : uni(rng);
          const double y = duplicated ? double(rng() % 6) : uni(rng);
          r.Add({Value(i), groups[rng() % 4],
                 Value("k" + std::to_string(rng() % (duplicated ? 4 : 50))),
                 Value(x), Value(y)});
        }
        return r;
      },
      "", Prioritized(AntiChain("k"), Pareto(Lowest("x"), Highest("y"))));
  // rank(F) over a column with NULLs (unscorable: the HIGHEST input
  // scores them -inf), beside LOWEST.
  AddBothPools(
      &families, "rank(F) over a column with NULLs",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"x", ValueType::kInt},
                          {"y", ValueType::kInt},
                          {"z", ValueType::kInt}});
        const uint64_t span = duplicated ? 5 : 100000;
        for (int64_t i = 0; i < 6000; ++i) {
          Value x = rng() % 10 == 0 ? Value() : Value(int64_t(rng() % span));
          r.Add({Value(i), groups[rng() % 4], x,
                 Value(int64_t(rng() % span)), Value(int64_t(rng() % span))});
        }
        return r;
      },
      "",
      Pareto(RankWeightedSum({0.6, 0.4}, {Highest("x"), Lowest("y")}),
             Lowest("z")));
  // Score chains: one LOWEST/HIGHEST column over NaN-free numbers, whose
  // BNL window is one score level. Thousands of rows tie at the top, so
  // a pass that kept one tied row, or one per group, would lose rows.
  AddBothPools(
      &families, "LOWEST over int64 with thousands tied at the minimum",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"x", ValueType::kInt}});
        for (int64_t i = 0; i < 6000; ++i) {
          const int64_t x = rng() % 3 == 0 ? -(int64_t(1) << 40)
                            : duplicated   ? int64_t(rng() % 5)
                                         : int64_t(rng() % (uint64_t(1) << 40));
          r.Add({Value(i), groups[rng() % 4], Value(x)});
        }
        return r;
      },
      "LOWEST(x)", Lowest("x"));
  // HIGHEST over doubles: +inf ties at the top, except in group "east",
  // which holds no +inf and tops out at -0.0 and +0.0 (equal values).
  AddBothPools(
      &families, "HIGHEST over doubles tied at +inf and at -0.0/+0.0",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"x", ValueType::kDouble}});
        for (int64_t i = 0; i < 6000; ++i) {
          const char* g = groups[rng() % 4];
          const bool east = std::string(g) == "east";
          const uint64_t dice = rng() % 8;
          double x = duplicated ? double(rng() % 3) - 3.0 : -uni(rng);
          if (dice == 0 && !east) x = std::numeric_limits<double>::infinity();
          if (dice == 1) x = -0.0;
          if (dice == 2) x = 0.0;
          r.Add({Value(i), g, Value(x)});
        }
        return r;
      },
      "HIGHEST(x)", Highest("x"));
  // A NaN-bearing column compiles through equality ids, so it stays off
  // the one-level window: NaN rows are incomparable, hence maximal. The
  // first rows put NaNs ahead of the minimum, where a one-level pass
  // would either seed its level with NaN or drop the NaNs on the next
  // better score.
  AddBothPools(
      &families, "LOWEST over a NaN-bearing column tied at the minimum",
      [&](bool duplicated) {
        Relation r(Schema{{"id", ValueType::kInt},
                          {"g", ValueType::kString},
                          {"x", ValueType::kDouble}});
        for (int64_t i = 0; i < 6000; ++i) {
          const uint64_t dice = rng() % 30;
          double x = dice == 0   ? std::nan("")
                     : dice < 10 ? -1.5
                     : duplicated ? double(rng() % 4)
                                  : uni(rng);
          if (i < 40) x = i % 2 == 0 ? std::nan("") : 2.0 + double(i % 3);
          r.Add({Value(i), groups[rng() % 4], Value(x)});
        }
        return r;
      },
      "LOWEST(x)", Lowest("x"));
  {
    // Exact duplicates tying at the best value: every copy qualifies,
    // in row order.
    Relation r(Schema{{"id", ValueType::kInt},
                      {"g", ValueType::kString},
                      {"x", ValueType::kInt}});
    const int64_t xs[] = {5, 1, 5, 1, 2, 1};
    for (int64_t i = 0; i < 600; ++i) {
      r.Add({Value(i), groups[i % 4], Value(xs[i % 6])});
    }
    families.push_back(
        {"duplicates tying at the best value", r, "LOWEST(x)", Lowest("x"),
         "dedup"});
  }
  {
    // Anti-correlated d4: kAuto's window outgrows its bound within the
    // first few hundred rows, and the pass finishes as SFS.
    const Relation v = GenerateVectors(2048, 4, Correlation::kAntiCorrelated,
                                       2024);
    Relation r(Schema{{"id", ValueType::kInt},
                      {"g", ValueType::kString},
                      {"d0", ValueType::kDouble},
                      {"d1", ValueType::kDouble},
                      {"d2", ValueType::kDouble},
                      {"d3", ValueType::kDouble}});
    for (size_t i = 0; i < v.size(); ++i) {
      Tuple row({Value(static_cast<int64_t>(i)), Value(groups[rng() % 4])});
      for (size_t c = 0; c < 4; ++c) row.Append(v.ValueAt(i, c));
      r.Add(std::move(row));
    }
    families.push_back(
        {"anti-correlated d4 skyline that switches to SFS", r,
         "HIGHEST(d0) AND HIGHEST(d1) AND HIGHEST(d2) AND HIGHEST(d3)",
         Pareto({Highest("d0"), Highest("d1"), Highest("d2"), Highest("d3")}),
         "zero-copy", true});
  }
  // An empty relation: nothing to compile, nothing qualifies.
  families.push_back({"empty relation",
                      Relation(Schema{{"id", ValueType::kInt},
                                      {"g", ValueType::kString},
                                      {"a", ValueType::kDouble},
                                      {"b", ValueType::kDouble}}),
                      "LOWEST(a) AND LOWEST(b)",
                      Pareto(Lowest("a"), Lowest("b")), ""});
  return families;
}

std::vector<int64_t> Ids(const Relation& r) {
  const size_t id = *r.schema().IndexOf("id");
  std::vector<int64_t> out;
  for (size_t i = 0; i < r.size(); ++i) {
    out.push_back(r.ValueAt(i, id).as_int());
  }
  return out;
}

TEST(EngineTest, EveryPathAgreesWithTheNaiveOracle) {
  // The engine's cold and memoized answers, the library's Bmo/BmoGroupBy
  // and the closure naive oracle must return the same rows for every
  // term family, grouped or not, under kAuto and every explicit block
  // algorithm (SFS degrades to BNL where it does not apply).
  const BmoOptions oracle{BmoAlgorithm::kNaive};
  for (const AgreementFamily& family : AgreementFamilies()) {
    Engine engine;
    engine.RegisterTable("t", family.relation);
    const Relation& r = family.relation;
    if (!family.compile_path.empty()) {
      // The pool shape the family claims, as CompileBlock's probe sees it.
      EXPECT_EQ(LikelyMostlyDistinct(
                    r, r.ResolveColumns(family.term->attributes())),
                family.compile_path == "zero-copy")
          << family.name;
    }
    for (bool grouped : {false, true}) {
      const std::vector<size_t> expected =
          grouped ? BmoGroupByIndices(r, family.term, {"g"}, oracle)
                  : BmoIndices(r, family.term, oracle);
      std::vector<int64_t> expected_ids(expected.begin(), expected.end());
      const std::string sql =
          "SELECT * FROM t PREFERRING " + family.preferring +
          (grouped ? " GROUPING g" : "");
      for (BmoAlgorithm algorithm :
           {BmoAlgorithm::kAuto, BmoAlgorithm::kBlockNestedLoop,
            BmoAlgorithm::kSortFilter}) {
        SCOPED_TRACE(family.name + (grouped ? ", grouped, " : ", ") +
                     BmoAlgorithmName(algorithm));
        BmoOptions options;
        options.algorithm = algorithm;
        EXPECT_EQ(grouped
                      ? BmoGroupByIndices(r, family.term, {"g"}, options)
                      : BmoIndices(r, family.term, options),
                  expected);
        if (family.preferring.empty() && grouped) continue;
        PreparedQuery query = family.preferring.empty()
                                  ? engine.Prepare("t", family.term, options)
                                  : engine.Prepare(sql, options);
        for (int run = 0; run < 2; ++run) {  // cold, then cached
          psql::QueryResult result = query.Run();
          EXPECT_EQ(result.stats.exec_cache_hit, run > 0);
          EXPECT_EQ(Ids(result.relation), expected_ids);
          EXPECT_EQ(result.stats.kernel != "closure",
                    !family.compile_path.empty())
              << result.stats.kernel;
        }
      }
      if (family.preferring.empty()) continue;
      psql::QueryResult explain = engine.Execute("EXPLAIN " + sql);
      EXPECT_EQ(explain.plan_details.find("compile: " + family.compile_path) !=
                    std::string::npos,
                !family.compile_path.empty())
          << explain.plan_details;
      if (family.switches && !grouped) {
        EXPECT_NE(explain.plan_details.find("switch: bnl→sfs"),
                  std::string::npos)
            << explain.plan_details;
      }
    }
  }
}

TEST(EngineTest, SubscribedLevelTermMatchesAFreshExecute) {
  // A subscribed POS / LAYERED statement over string columns: every
  // maintenance pass compiles its candidates' projections, and the
  // maintained answer must equal a fresh Execute after inserts and
  // deletes.
  const std::string sql =
      "SELECT * FROM t PREFERRING c IN ('red', 'blue') AND "
      "(k = 'a' ELSE k <> 'b') CASCADE LOWEST(price)";
  std::mt19937_64 rng(77);
  const char* colors[] = {"red", "blue", "green", "black"};
  const char* kinds[] = {"a", "b", "c"};
  auto row = [&](int64_t id) {
    return Tuple{Value(id), Value(colors[rng() % 4]), Value(kinds[rng() % 3]),
                 Value(int64_t(rng() % 500))};
  };
  Relation seed(Schema{{"id", ValueType::kInt},
                       {"c", ValueType::kString},
                       {"k", ValueType::kString},
                       {"price", ValueType::kInt}});
  for (int64_t i = 0; i < 400; ++i) seed.Add(row(i));
  Engine subscribed;
  subscribed.RegisterTable("t", seed);
  Engine::Subscription sub = subscribed.Subscribe(sql);
  auto sorted_ids = [](const Relation& r) {
    std::vector<int64_t> ids = Ids(r);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  int64_t next_id = 400;
  for (int step = 0; step < 60; ++step) {
    if (rng() % 3 != 0) {
      subscribed.Insert("t", row(next_id++));
    } else {
      const Value cut(int64_t(rng() % 40));
      subscribed.Delete("t", [cut](const Tuple& t) { return t[3] < cut; });
    }
    Engine fresh;
    fresh.RegisterTable("t", *subscribed.Snapshot("t"));
    ASSERT_EQ(sorted_ids(subscribed.Execute(sql).relation),
              sorted_ids(fresh.Execute(sql).relation))
        << "step " << step;
  }
  EXPECT_GT(subscribed.cache_stats().exec_refreshes, 0u);
  EXPECT_GT(sub.view_stats().inserts, 0u);
  EXPECT_GT(sub.view_stats().deletes, 0u);
}

TEST(EngineTest, ServedPathsRunColdAndWarm) {
  // Statistics, WHERE / BUT ONLY / DELETE scans, TOP k and subscription
  // seeds, each cold and warm, on one catalog snapshot.
  Engine engine;
  engine.RegisterTable("car", GenerateCars(2000, 41));
  const std::vector<std::string> reads = {
      "SELECT * FROM car WHERE year >= 2000 AND make <> 'BMW' "
      "PREFERRING LOWEST(price) AND HIGHEST(horsepower)",
      "EXPLAIN SELECT oid, price FROM car WHERE color IN ('red', 'blue') "
      "PREFERRING LOWEST(mileage) AND LOWEST(price)",
      "SELECT * FROM car WHERE price < 30000 PREFERRING price AROUND 15000 "
      "BUT ONLY DISTANCE(price) <= 2000",
      "SELECT TOP 5 * FROM car WHERE year >= 1998 PREFERRING price AROUND "
      "15000 BUT ONLY DISTANCE(price) <= 5000",
      "SELECT TOP 3 * FROM car PREFERRING LOWEST(price)",
      "SELECT TOP 2 * FROM car PREFERRING HIGHEST(horsepower) GROUPING make",
      "SELECT * FROM car PREFERRING LOWEST(price) GROUPING category"};
  engine.Stats("car");
  for (const std::string& sql : reads) {
    for (int run = 0; run < 2; ++run) {  // cold, then warm
      EXPECT_GT(engine.Execute(sql).relation.size(), 0u) << sql;
    }
  }
  Engine::Subscription sub = engine.Subscribe(
      "SELECT * FROM car WHERE year >= 2000 "
      "PREFERRING LOWEST(price) AND LOWEST(mileage)");
  const psql::QueryResult removed =
      engine.Execute("DELETE FROM car WHERE price > 25000 OR mileage < 5000");
  EXPECT_GT(removed.relation.ValueAt(0, 0).as_int(), 0);
  EXPECT_GT(engine.Delete("car", [](const Tuple& t) { return t[8] < 1995; }),
            0u);
  engine.Stats("car");
  EXPECT_TRUE(sub.Poll().has_value());  // the bootstrap resync
}

TEST(EngineTest, WarmHitRunsNoKernel) {
  // An exec-cache entry memoizes its answer rows: a hit gathers and
  // projects them, runs no kernel, and returns what the miss that built
  // the entry and a cache-less engine return.
  psql::Catalog catalog;
  catalog.Register("car", GenerateCars(3000, 13));
  EngineOptions cacheless;
  cacheless.enable_plan_cache = false;
  cacheless.enable_exec_cache = false;
  Engine engine(catalog);
  const BmoOptions naive{BmoAlgorithm::kNaive};
  const std::pair<std::string, BmoOptions> cases[] = {
      {"SELECT * FROM car WHERE price < 30000 "
       "PREFERRING LOWEST(price) AND LOWEST(mileage)",
       {}},
      {"SELECT * FROM car PREFERRING LOWEST(price) AND HIGHEST(horsepower) "
       "GROUPING make",
       {}},
      {"SELECT TOP 7 oid, price FROM car "
       "PREFERRING LOWEST(price) AND LOWEST(mileage)",
       {}},
      {"SELECT TOP 2 * FROM car PREFERRING HIGHEST(horsepower) "
       "GROUPING category",
       {}},
      {"SELECT * FROM car PREFERRING price AROUND 15000 "
       "BUT ONLY DISTANCE(price) <= 2000",
       {}},
      {"SELECT oid, mileage FROM car WHERE year >= 1995 "
       "PREFERRING LOWEST(mileage) AND LOWEST(price) LIMIT 3",
       {}},
      {"SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)",
       naive},
  };
  for (const auto& [sql, options] : cases) {
    SCOPED_TRACE(sql);
    const psql::QueryResult reference =
        Engine(catalog, cacheless).Execute(sql, options);
    const psql::QueryResult miss = engine.Execute(sql, options);
    const psql::QueryResult hit = engine.Execute(sql, options);
    EXPECT_FALSE(miss.stats.exec_cache_hit);
    ASSERT_TRUE(hit.stats.exec_cache_hit);
    EXPECT_GT(miss.relation.size(), 0u);
    EXPECT_GT(miss.stats.kernel_ns, 0u);
    EXPECT_EQ(hit.stats.kernel_ns, 0u);
    EXPECT_EQ(hit.stats.compile_ns, 0u);
    EXPECT_EQ(hit.stats.kernel, miss.stats.kernel);
    for (const psql::QueryResult* other : {&miss, &reference}) {
      EXPECT_EQ(hit.relation, other->relation);
      EXPECT_EQ(hit.utilities, other->utilities);
      EXPECT_EQ(hit.plan, other->plan);
    }
  }
  EXPECT_EQ(engine.Execute(cases[2].first).utilities.size(), 7u);
  EXPECT_NE(engine.Execute(cases[5].first).plan.find("-> limit 3"),
            std::string::npos);

  // A subscribed statement's entry is written from its maintained view:
  // hits serve the view's antichain. Its plan text names the view, so it
  // is compared across hits rather than with a cold plan.
  const std::string subscribed =
      "SELECT * FROM car WHERE year >= 1995 "
      "PREFERRING LOWEST(price) AND LOWEST(mileage)";
  Engine::Subscription sub = engine.Subscribe(subscribed);
  engine.Insert("car", Tuple{int64_t{100000}, "VW", "suv", "blue", "manual",
                             4000, 900, 90, 1998, 8.0, 3, 300});
  const psql::QueryResult first = engine.Execute(subscribed);
  const psql::QueryResult again = engine.Execute(subscribed);
  for (const psql::QueryResult* hit : {&first, &again}) {
    EXPECT_TRUE(hit->stats.exec_cache_hit);
    EXPECT_EQ(hit->stats.kernel, "ivm-delta");
    EXPECT_EQ(hit->stats.kernel_ns, 0u);
  }
  EXPECT_EQ(again.relation, first.relation);
  EXPECT_EQ(again.plan, first.plan);
  psql::Catalog mutated;
  mutated.Register("car", *engine.Snapshot("car"));
  EXPECT_EQ(first.relation,
            Engine(mutated, cacheless).Execute(subscribed).relation);
}

TEST(EngineTest, RacingColdBuildsAgree) {
  // Eight threads miss on one statement at once: each builds an entry
  // (the last writer's stays), and all return the same answer, as does
  // the hit that follows.
  Engine engine;
  engine.RegisterTable("car", GenerateCars(5000, 17));
  const std::string sql =
      "SELECT oid, price, mileage FROM car WHERE price < 40000 "
      "PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)";
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<psql::QueryResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &sql, &ready, &results, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      results[static_cast<size_t>(t)] = engine.Execute(sql);
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_GT(results[0].relation.size(), 0u);
  for (const psql::QueryResult& res : results) {
    EXPECT_EQ(res.relation, results[0].relation);
    EXPECT_EQ(res.plan, results[0].plan);
  }
  EXPECT_GE(engine.cache_stats().exec_misses, 1u);
  const psql::QueryResult warm = engine.Execute(sql);
  EXPECT_TRUE(warm.stats.exec_cache_hit);
  EXPECT_EQ(warm.relation, results[0].relation);
}

}  // namespace
}  // namespace prefdb
