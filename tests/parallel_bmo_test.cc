// Tests for the exec/ parallel engine: the partition-and-merge evaluator
// must return exactly the sequential BMO answer for arbitrary strict
// partial orders (randomized terms), including groupby queries and
// empty/degenerate partitionings; plus thread-pool basics.

#include "exec/parallel_bmo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "datagen/vectors.h"
#include "eval/optimizer.h"
#include "exec/thread_pool.h"
#include "test_support.h"

namespace prefdb {
namespace {

PrefPtr SkylinePreference(size_t d) {
  std::vector<PrefPtr> prefs;
  for (size_t i = 0; i < d; ++i) {
    prefs.push_back(Highest("d" + std::to_string(i)));
  }
  return Pareto(prefs);
}

// Forces real partitioning even on small inputs / few cores.
PhysicalPlan TinyPartitions(size_t num_threads = 4) {
  PhysicalPlan plan;
  plan.num_threads = num_threads;
  plan.min_partition_size = 8;
  return plan;
}

TEST(ThreadPoolTest, ResolveThreadsDefaultsToHardware) {
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
}

TEST(ThreadPoolTest, SubmitReturnsValuesAndPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto ok = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(ok.get(), 42);
  auto bad = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), 1, [&hits](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Zero-length and single-chunk ranges are fine too.
  pool.ParallelFor(0, 1, [](size_t, size_t) { FAIL(); });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  ThreadPool pool(1);  // one worker: a nested blocking submit would hang
  std::atomic<int> total{0};
  auto outer = pool.Submit([&pool, &total] {
    EXPECT_TRUE(pool.OnWorkerThread());
    pool.ParallelFor(100, 1, [&total](size_t begin, size_t end) {
      total.fetch_add(static_cast<int>(end - begin));
    });
  });
  outer.get();
  EXPECT_EQ(total.load(), 100);
  EXPECT_FALSE(pool.OnWorkerThread());
}

TEST(ParallelBmoTest, NestedCallFromSharedPoolWorkerCompletes) {
  Relation r = GenerateVectors(20000, 2, Correlation::kIndependent, 17);
  PrefPtr p = SkylinePreference(2);
  std::vector<size_t> expected =
      BmoIndices(r, p, {BmoAlgorithm::kBlockNestedLoop});
  PhysicalPlan plan;
  plan.num_threads = 4;
  plan.min_partition_size = 8;
  // ParallelBmoIndices invoked *from* a Shared-pool worker must fall back
  // to inline evaluation rather than blocking on its own pool.
  auto nested = ThreadPool::Shared().Submit(
      [&r, &p, &plan] { return ParallelBmoIndices(r, p, plan); });
  EXPECT_EQ(nested.get(), expected);
}

TEST(ParallelBmoTest, EmptyInputs) {
  Relation r(Schema{{"x", ValueType::kInt}});
  EXPECT_TRUE(ParallelBmo(r, Lowest("x"), TinyPartitions()).empty());
  EXPECT_TRUE(MaximaParallel(nullptr, 0, Lowest("x"),
                             Schema{{"x", ValueType::kInt}}, TinyPartitions(),
                             nullptr)
                  .empty());
}

TEST(ParallelBmoTest, DegeneratePartitionsFewerValuesThanWorkers) {
  Relation r = testing::IntRelation("x", {7, 3, 9, 3, 1});
  PhysicalPlan plan;
  plan.num_threads = 16;
  plan.min_partition_size = 1;
  Relation par = ParallelBmo(r, Lowest("x"), plan);
  EXPECT_TRUE(par.SameRows(Bmo(r, Lowest("x"))));
  EXPECT_EQ(par.size(), 1u);
}

TEST(ParallelBmoTest, MatchesSequentialOnSkylines) {
  for (Correlation corr : {Correlation::kIndependent, Correlation::kCorrelated,
                           Correlation::kAntiCorrelated}) {
    for (size_t d : {2u, 4u}) {
      Relation r = GenerateVectors(3000, d, corr, 7 + d);
      PrefPtr p = SkylinePreference(d);
      std::vector<size_t> seq =
          BmoIndices(r, p, {BmoAlgorithm::kBlockNestedLoop});
      EXPECT_EQ(ParallelBmoIndices(r, p, TinyPartitions(2)), seq);
      EXPECT_EQ(ParallelBmoIndices(r, p, TinyPartitions(8)), seq);
    }
  }
}

TEST(ParallelBmoTest, MatchesSequentialOnRandomizedTerms) {
  for (uint64_t seed : {11u, 22u, 33u, 44u}) {
    RandomTermGen gx("price", {Value(1000), Value(2000), Value(4000)}, seed);
    RandomTermGen gy("mileage", {Value(10), Value(20), Value(40)}, seed + 5);
    Relation cars = GenerateCars(900, seed);
    for (int round = 0; round < 6; ++round) {
      PrefPtr p;
      switch (round % 3) {
        case 0: p = Pareto(gx.Term(1), gy.Term(1)); break;
        case 1: p = Prioritized(gx.Term(2), gy.Term(1)); break;
        default: p = Prioritized(Pareto(gx.Term(1), gy.Term(1)), gx.Term(1));
      }
      EXPECT_TRUE(Bmo(cars, p).SameRows(ParallelBmo(cars, p, TinyPartitions())))
          << p->ToString();
    }
  }
}

TEST(ParallelBmoTest, ExplicitKParallelOptionMatchesSequential) {
  // 20000 distinct values with the default min_partition_size (4096) is
  // enough for real multi-partition execution through BmoIndices.
  Relation r = GenerateVectors(20000, 3, Correlation::kAntiCorrelated, 99);
  PrefPtr p = SkylinePreference(3);
  BmoOptions parallel;
  parallel.algorithm = BmoAlgorithm::kParallel;
  parallel.num_threads = 4;
  EXPECT_TRUE(Bmo(r, p, {BmoAlgorithm::kBlockNestedLoop})
                  .SameRows(Bmo(r, p, parallel)));
}

TEST(ParallelBmoTest, AutoEscalatesAboveThreshold) {
  Relation r = GenerateVectors(20000, 2, Correlation::kIndependent, 5);
  PrefPtr p = SkylinePreference(2);
  BmoOptions options;  // kAuto
  options.num_threads = 4;
  options.parallel_threshold = 100;  // force the parallel path
  EXPECT_TRUE(Bmo(r, p, {BmoAlgorithm::kBlockNestedLoop})
                  .SameRows(Bmo(r, p, options)));
}

TEST(ParallelBmoTest, GroupByMatchesSequential) {
  Relation cars = GenerateCars(1200, 3);
  PrefPtr p = Lowest("price");
  BmoOptions parallel;
  parallel.algorithm = BmoAlgorithm::kParallel;
  parallel.num_threads = 4;
  EXPECT_EQ(BmoGroupByIndices(cars, p, {"make"}, parallel),
            BmoGroupByIndices(cars, p, {"make"}));
}

TEST(ParallelBmoTest, OptimizerPicksParallelOnHugeInputs) {
  Relation r = GenerateVectors(200000, 2, Correlation::kIndependent, 3);
  BmoOptions options;
  options.num_threads = 8;  // deterministic regardless of host cores
  PhysicalPlan c = ChooseAlgorithm(r, SkylinePreference(2), options);
  EXPECT_EQ(c.algorithm, BmoAlgorithm::kParallel);
  EXPECT_NE(c.rationale.find("workers"), std::string::npos);
  EXPECT_GE(c.partitions, 2u);
}

TEST(ParallelBmoTest, OptimizerHonorsParallelThresholdOptOut) {
  Relation r = GenerateVectors(200000, 2, Correlation::kIndependent, 3);
  BmoOptions options;
  options.num_threads = 8;
  options.parallel_threshold = std::numeric_limits<size_t>::max();
  PhysicalPlan c = ChooseAlgorithm(r, SkylinePreference(2), options);
  EXPECT_NE(c.algorithm, BmoAlgorithm::kParallel);
}

TEST(ParallelBmoTest, DuplicatesAndRowOrderPreserved) {
  Relation r = testing::IntRelation("x", {5, 1, 5, 1, 2, 1});
  PhysicalPlan plan;
  plan.num_threads = 3;
  plan.min_partition_size = 1;
  Relation best = ParallelBmo(r, Lowest("x"), plan);
  ASSERT_EQ(best.size(), 3u);
  for (const Tuple& t : best.tuples()) EXPECT_EQ(t[0], Value(int64_t{1}));
}

}  // namespace
}  // namespace prefdb
