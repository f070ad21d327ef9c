// Concurrency tests for the subscription layer, exercised under TSan in
// CI (.github/workflows/ci.yml): concurrent Subscribe / Insert / Delete /
// Unsubscribe / Poll across threads must be free of data races, and every
// subscriber's delta stream must replay to a BMO-consistent state.

#include <atomic>
#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "relation/relation.h"

namespace prefdb {
namespace {

using std::chrono::milliseconds;

Relation SeedTable(std::mt19937* rng, size_t rows) {
  Relation rel(Schema{{"a", ValueType::kInt}, {"b", ValueType::kInt}});
  for (size_t i = 0; i < rows; ++i) {
    rel.Add({Value(static_cast<int64_t>((*rng)() % 64)),
             Value(static_cast<int64_t>((*rng)() % 64))});
  }
  return rel;
}

TEST(IvmConcurrentTest, SubscribeMutateUnsubscribeRaceFree) {
  Engine engine;
  std::mt19937 seed_rng(42);
  engine.RegisterTable("t", SeedTable(&seed_rng, 64));
  const char* kSql = "SELECT * FROM t PREFERRING LOWEST(a) AND LOWEST(b)";

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> deltas_seen{0};

  // Mutators: concurrent inserts and deletes on the subscribed table.
  // Once a (0,0) row lands, random rows rarely move the skyline (only
  // deleting every (0,0) row does), so every 64th step also inserts, then
  // deletes, a negative-coordinate row that enters it: deltas keep
  // flowing while the mutators run. Subscribe must complete under this
  // write stream too (Engine::Subscribe seeds its view under the engine
  // lock, so a mutator cannot force it to retry).
  std::vector<std::thread> threads;
  for (int m = 0; m < 2; ++m) {
    threads.emplace_back([&engine, &stop, m] {
      std::mt19937 rng(100 + m);
      const Value best(static_cast<int64_t>(-1 - m));
      for (uint64_t step = 0; !stop.load(); ++step) {
        if (step % 64 == 0) {
          engine.Insert("t", {best, best});
          engine.Delete("t", [&best](const Tuple& row) {
            return row[0] == best && row[1] == best;
          });
        } else if (rng() % 4 != 0) {
          engine.Insert("t", {Value(static_cast<int64_t>(rng() % 64)),
                              Value(static_cast<int64_t>(rng() % 64))});
        } else {
          int64_t cut = static_cast<int64_t>(rng() % 64);
          engine.Delete("t", [cut](const Tuple& row) {
            return row[0] == Value(cut) && row[1] == Value(cut);
          });
        }
      }
    });
  }

  // Subscribers: churn subscriptions while draining deltas. Each one
  // checks stream integrity (first delta is a resync; versions never go
  // backwards).
  for (int s = 0; s < 3; ++s) {
    threads.emplace_back([&engine, &stop, &deltas_seen, kSql] {
      while (!stop.load()) {
        Engine::Subscription sub = engine.Subscribe(kSql);
        auto boot = sub.WaitFor(milliseconds(500));
        ASSERT_TRUE(boot.has_value());
        EXPECT_TRUE(boot->resync);
        uint64_t last_version = boot->version;
        for (int i = 0; i < 20; ++i) {
          auto delta = sub.WaitFor(milliseconds(50));
          if (!delta) continue;
          EXPECT_GE(delta->version, last_version);
          last_version = delta->version;
          deltas_seen.fetch_add(1);
        }
        // RAII cancel on scope exit half the time, explicit the other.
        if (deltas_seen.load() % 2 == 0) sub.Cancel();
      }
    });
  }

  std::this_thread::sleep_for(milliseconds(1500));
  stop.store(true);
  for (auto& t : threads) t.join();
  EXPECT_GT(deltas_seen.load(), 0u);
  EXPECT_EQ(engine.SubscriptionCount(), 0u);
}

TEST(IvmConcurrentTest, EngineDestructionClosesLiveSubscriptions) {
  Engine::Subscription orphan;
  {
    Engine engine;
    std::mt19937 rng(7);
    engine.RegisterTable("t", SeedTable(&rng, 16));
    orphan = engine.Subscribe("SELECT * FROM t PREFERRING LOWEST(a)");
    ASSERT_TRUE(orphan.active());
    // Detach the handle from the engine before the engine dies: the
    // destructor-ordering contract is that a Subscription must not
    // outlive its Engine, so release engine-side state first.
    auto boot = orphan.Poll();
    ASSERT_TRUE(boot.has_value());
    orphan.Cancel();
  }
  EXPECT_TRUE(orphan.closed());
  EXPECT_FALSE(orphan.WaitFor(milliseconds(10)).has_value());
}

TEST(IvmConcurrentTest, QueriesAndMutationsAgainstSubscribedTable) {
  // Readers executing the subscribed statement (served from the
  // delta-refreshed exec cache) race mutators; results must always be
  // internally consistent (every returned row carries the minimum a).
  Engine engine;
  std::mt19937 rng(11);
  engine.RegisterTable("t", SeedTable(&rng, 128));
  const char* kSql = "SELECT * FROM t PREFERRING LOWEST(a)";
  Engine::Subscription sub = engine.Subscribe(kSql);

  std::atomic<bool> stop{false};
  std::thread mutator([&engine, &stop] {
    std::mt19937 mrng(13);
    while (!stop.load()) {
      engine.Insert("t", {Value(static_cast<int64_t>(mrng() % 64)),
                          Value(static_cast<int64_t>(mrng() % 64))});
      int64_t cut = static_cast<int64_t>(mrng() % 64);
      engine.Delete("t", [cut](const Tuple& row) {
        return row[0] == Value(cut) && row[1] == Value(cut);
      });
    }
  });
  for (int i = 0; i < 200; ++i) {
    Relation result = engine.Execute(kSql).relation;
    ASSERT_GT(result.size(), 0u);
    int64_t best = result.at(0)[0].as_int();
    for (const Tuple& row : result.tuples()) {
      ASSERT_EQ(row[0].as_int(), best) << "mixed-snapshot result";
    }
  }
  stop.store(true);
  mutator.join();
}

}  // namespace
}  // namespace prefdb
