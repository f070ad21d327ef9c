// Incremental view maintenance tests: the maintained-maxima antichain
// (src/ivm/maintained_view.h) must be indistinguishable from a full BMO
// recompute after every mutation — across Pareto / prioritized / layered
// terms, NULL/NaN values, interleaved inserts and deletes, and both the
// compiled-kernel and closure evaluation paths. Engine-level coverage:
// Subscribe/delta delivery, DELETE FROM routing, exec-cache refresh by
// delta, and the slow-subscriber coalesced resync.

#include <algorithm>
#include <cmath>
#include <chrono>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "datagen/cars.h"
#include "engine/engine.h"
#include "eval/bmo.h"
#include "ivm/maintained_view.h"
#include "psql/error.h"
#include "relation/relation.h"

namespace prefdb {
namespace {

using std::chrono::milliseconds;

Schema CarSchema() {
  return Schema({{"make", ValueType::kString},
                 {"price", ValueType::kInt},
                 {"mileage", ValueType::kInt},
                 {"score", ValueType::kDouble}});
}

/// Random row; ~6% NULL and ~6% NaN in the double column so maintenance
/// is exercised on non-total orders. With `novel_makes`, about one row in
/// four carries a make string no earlier row used.
Tuple RandomCar(std::mt19937* rng, bool novel_makes = false) {
  static const char* kMakes[] = {"Opel", "BMW", "Audi", "Ford"};
  static int novel = 0;
  Value score;
  switch ((*rng)() % 16) {
    case 0: break;  // NULL
    case 1: score = Value(std::nan("")); break;
    default: score = Value(static_cast<double>((*rng)() % 100) / 7.0); break;
  }
  Value make = novel_makes && (*rng)() % 4 == 0
                   ? Value("Make" + std::to_string(novel++))
                   : Value(kMakes[(*rng)() % 4]);
  return Tuple{make, Value(static_cast<int64_t>((*rng)() % 50)),
               Value(static_cast<int64_t>((*rng)() % 50)), score};
}

std::vector<PrefPtr> TestTerms() {
  return {
      Pareto(Lowest("price"), Lowest("mileage")),
      Prioritized(Lowest("price"), Highest("mileage")),
      Layered("make",
              {LayeredPreference::Layer{{Value("Opel")}, false},
               LayeredPreference::Layer{{Value("BMW"), Value("Audi")}, false},
               LayeredPreference::Others()}),
      Pareto(Highest("score"), Lowest("price")),  // NULL/NaN-bearing column
      Prioritized(Layered("make", {LayeredPreference::Layer{{Value("BMW")},
                                                            false},
                                   LayeredPreference::Others()}),
                  Pareto(Lowest("price"), Around("score", 5.0))),
      // A forest EXPLICIT is no weak order, so it does not compile: the
      // view's passes run the closure order.
      Pareto(Explicit("make", {{Value("Opel"), Value("BMW")},
                               {Value("Audi"), Value("Ford")}}),
             Lowest("price")),
  };
}

/// Sorted row renderings — multiset equality that is NaN-safe (Value's
/// operator== is IEEE on doubles; the text rendering is not).
std::vector<std::string> RowSet(const Relation& rel) {
  std::vector<std::string> out;
  out.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    out.push_back(rel.RowAt(i).ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The reference: the naive oracle's full recompute of the maintained
/// fragment, over the rows `where` (nullable) keeps.
std::vector<std::string> Recompute(
    const Relation& table, const PrefPtr& term,
    const std::function<bool(const Tuple&)>& where = nullptr) {
  const Relation cands = where ? table.Filter(where) : table;
  return RowSet(
      cands.SelectRows(BmoIndices(cands, term, {BmoAlgorithm::kNaive})));
}

/// One mutation trace: which rows are candidates, and how it starts.
struct TraceCase {
  const char* name;
  std::function<bool(const Tuple&)> where;
  bool keeps_half;    // with a WHERE: at least half the rows survive, so
                      // the seed is an index view (else it materializes)
  bool delete_first;  // the first mutation deletes from the seed snapshot
  bool novel_makes;   // inserts bring strings new to the seed's dictionary
};

std::vector<TraceCase> TraceCases() {
  return {
      {"all rows", nullptr, true, false, false},
      // price is uniform on [0, 50): about a quarter survives.
      {"where keeps < half",
       [](const Tuple& t) { return t[1] < Value(static_cast<int64_t>(12)); },
       false, false, false},
      // About three quarters survive.
      {"where keeps > half",
       [](const Tuple& t) { return t[0] != Value("Ford"); }, true, false,
       false},
      {"delete first", nullptr, true, true, false},
      {"novel strings", nullptr, true, false, true},
  };
}

TEST(MaintainedViewTest, MatchesRecomputeUnderRandomMutations) {
  for (const TraceCase& tc : TraceCases()) {
    size_t term_id = 0;
    for (const PrefPtr& term : TestTerms()) {
      std::mt19937 rng(1234 + 100 * term_id++);
      Relation table(CarSchema());
      for (int i = 0; i < 40; ++i) table.Add(RandomCar(&rng));
      const std::vector<std::string> seed_rows = RowSet(table);
      const Relation seed = table;  // the snapshot the view seeded from
      ivm::MaintainedView view(term, tc.where, table, 1);
      ASSERT_EQ(view.candidates() * 2 >= table.size(), tc.keeps_half)
          << tc.name;
      EXPECT_EQ(RowSet(view.Resync().enters),
                Recompute(table, term, tc.where));

      uint64_t version = 1;
      for (int step = 0; step < 120; ++step) {
        ++version;
        const bool insert = !(tc.delete_first && step == 0) &&
                            (table.size() == 0 || rng() % 3 != 0);
        if (insert) {
          Tuple row = RandomCar(&rng, tc.novel_makes);
          Relation next = table;
          next.Add(row);
          view.ApplyInsert(row, table.size(), version);
          table = std::move(next);
        } else {
          // Delete a random subset (occasionally large, to force the
          // reseed path).
          size_t want = rng() % 4 == 0 ? table.size() / 2 : 1 + rng() % 3;
          std::vector<size_t> dead;
          for (size_t i = 0; i < table.size() && dead.size() < want; ++i) {
            if (rng() % table.size() < want) dead.push_back(i);
          }
          if (dead.empty()) dead.push_back(rng() % table.size());
          std::vector<size_t> survivors;
          for (size_t i = 0; i < table.size(); ++i) {
            if (!std::binary_search(dead.begin(), dead.end(), i)) {
              survivors.push_back(i);
            }
          }
          view.ApplyDelete(dead, version);
          table = table.SelectRows(survivors);
        }
        ASSERT_EQ(RowSet(view.Resync().enters),
                  Recompute(table, term, tc.where))
            << tc.name << ": term " << term->ToString() << " step "
            << step;
        ASSERT_EQ(view.version(), version);
      }
      // The view's writes cloned the buffers it shared with the seed.
      EXPECT_EQ(RowSet(seed), seed_rows) << tc.name;
    }
  }
}

TEST(MaintainedViewTest, DeltasReplayToTheMaintainedState) {
  BmoOptions options;
  PrefPtr term = Pareto(Lowest("price"), Highest("score"));
  std::mt19937 rng(99);
  Relation table(CarSchema());
  for (int i = 0; i < 30; ++i) table.Add(RandomCar(&rng));
  ivm::MaintainedView view(term, nullptr, table, 1, options);

  // A client that only sees deltas must converge to the view's state.
  std::vector<std::string> mirror = RowSet(view.Resync().enters);
  uint64_t version = 1;
  for (int step = 0; step < 80; ++step) {
    ++version;
    ivm::ViewDelta delta;
    if (table.size() == 0 || rng() % 3 != 0) {
      Tuple row = RandomCar(&rng);
      delta = view.ApplyInsert(row, table.size(), version);
      table.Add(row);
    } else {
      std::vector<size_t> dead = {rng() % table.size()};
      delta = view.ApplyDelete(dead, version);
      std::vector<size_t> survivors;
      for (size_t i = 0; i < table.size(); ++i) {
        if (i != dead[0]) survivors.push_back(i);
      }
      table = table.SelectRows(survivors);
    }
    ASSERT_FALSE(delta.resync);
    for (const Tuple& t : delta.exits.tuples()) {
      auto it = std::find(mirror.begin(), mirror.end(), t.ToString());
      ASSERT_NE(it, mirror.end()) << "exit for a row the client never had";
      mirror.erase(it);
    }
    for (const Tuple& t : delta.enters.tuples()) {
      mirror.push_back(t.ToString());
    }
    std::sort(mirror.begin(), mirror.end());
    ASSERT_EQ(mirror, RowSet(view.Resync().enters)) << "step " << step;
    if (!delta.Empty()) ASSERT_EQ(delta.version, version);
  }
  const ViewMaintenanceStats& ms = view.maintenance_stats();
  EXPECT_GT(ms.inserts, 0u);
  EXPECT_GT(ms.deletes, 0u);
}

TEST(MaintainedViewTest, WhereFilterRestrictsCandidates) {
  Relation table(CarSchema());
  table.Add({"Opel", 10, 5, 1.0});
  table.Add({"BMW", 1, 1, 2.0});  // best overall, but filtered out
  table.Add({"Opel", 20, 9, 0.5});
  auto where = [](const Tuple& t) { return t[0] == Value("Opel"); };
  ivm::MaintainedView view(Lowest("price"), where, table, 1);
  const Relation maxima = view.Resync().enters;
  ASSERT_EQ(maxima.size(), 1u);
  EXPECT_EQ(maxima.ValueAt(0, 1), Value(static_cast<int64_t>(10)));
  // A non-matching insert is invisible; a matching better one takes over.
  EXPECT_TRUE(view.ApplyInsert(Tuple{Value("Audi"), Value(static_cast<int64_t>(2)),
                                     Value(static_cast<int64_t>(2)), Value(1.0)},
                               3, 2)
                  .Empty());
  ivm::ViewDelta delta =
      view.ApplyInsert(Tuple{Value("Opel"), Value(static_cast<int64_t>(3)),
                             Value(static_cast<int64_t>(2)), Value(1.0)},
                       4, 3);
  ASSERT_EQ(delta.enters.size(), 1u);
  ASSERT_EQ(delta.exits.size(), 1u);
}

TEST(MaintainedViewTest, HeapBytesCountsOnlyWhatTheViewOwns) {
  Relation table = GenerateCars(20000, 17);
  const PrefPtr term = Pareto(Lowest("price"), Lowest("mileage"));
  ivm::MaintainedView view(term, nullptr, table, 1);
  const size_t n = view.candidates();
  ASSERT_EQ(n, table.size());
  // Right after the seed the column buffers are the snapshot's: the view
  // holds its table-row and witness ids, plus the antichain.
  EXPECT_GE(view.HeapBytes(), 2 * sizeof(uint32_t) * n);
  EXPECT_LE(view.HeapBytes(),
            (2 * n + 2 * view.antichain_size()) * sizeof(uint32_t));

  // A few inserts and deletes clone the buffers the view writes.
  const Relation extra = GenerateCars(8, 18);
  uint64_t version = 1;
  for (size_t k = 0; k < extra.size(); ++k) {
    Tuple row = extra.RowAt(k);
    row[0] = Value(static_cast<int64_t>(1000000 + k));  // fresh oid
    Relation next = table;
    next.Add(row);
    view.ApplyInsert(row, table.size(), ++version);
    table = std::move(next);
    const size_t victim = (k * 7919) % table.size();
    std::vector<size_t> survivors;
    for (size_t i = 0; i < table.size(); ++i) {
      if (i != victim) survivors.push_back(i);
    }
    view.ApplyDelete({victim}, ++version);
    table = table.SelectRows(survivors);
  }
  EXPECT_EQ(RowSet(view.Resync().enters), Recompute(table, term));
  // Whole-row plus projected Tuple candidates took about 650 B each on
  // this table; the columns must hold well under half of that.
  const double per_candidate =
      static_cast<double>(view.HeapBytes()) / view.candidates();
  EXPECT_GT(per_candidate, 100.0);  // the buffers are the view's own now
  EXPECT_LT(per_candidate, 325.0);
}

TEST(MaintainedViewTest, HeldDeltasShareNoBufferWithTheView) {
  // Two views absorb the same mutations; every delta of the first one is
  // held, as a subscriber queue holds it, and the second one's dropped. A
  // delta sharing a column with its view would make the view's next write
  // clone it, and would keep it out of the view's HeapBytes, so the two
  // views' heaps would differ. The rows reuse the table's makes, so both
  // views keep sharing the table's dictionary and it counts in neither.
  Relation table = GenerateCars(2000, 23);
  const PrefPtr term = Pareto(Lowest("price"), Lowest("mileage"));
  ivm::MaintainedView held_view(term, nullptr, table, 1);
  ivm::MaintainedView free_view(term, nullptr, table, 1);
  std::vector<ivm::ViewDelta> held = {held_view.Resync()};
  std::vector<Tuple> inserted;
  uint64_t version = 1;
  for (int64_t k = 0; k < 6; ++k) {
    // Each row beats every earlier one.
    Tuple row = table.RowAt(static_cast<size_t>(k));
    row[0] = Value(1000000 + k);
    row[5] = Value(int64_t{-1} - k);
    row[6] = Value(int64_t{-1} - k);
    ++version;
    held.push_back(held_view.ApplyInsert(row, table.size(), version));
    free_view.ApplyInsert(row, table.size(), version);
    table.Add(row);
    inserted.push_back(row);
    ASSERT_EQ(held.back().enters.size(), 1u);
    EXPECT_EQ(held.back().enters.RowAt(0), row);
    EXPECT_EQ(held_view.HeapBytes(), free_view.HeapBytes()) << "insert " << k;
  }
  // Deleting the last maximum exits it, and its predecessor re-enters.
  ++version;
  held.push_back(held_view.ApplyDelete({table.size() - 1}, version));
  free_view.ApplyDelete({table.size() - 1}, version);
  ASSERT_EQ(held.back().exits.size(), 1u);
  ASSERT_EQ(held.back().enters.size(), 1u);
  EXPECT_EQ(held.back().exits.RowAt(0), inserted[5]);
  EXPECT_EQ(held.back().enters.RowAt(0), inserted[4]);
  EXPECT_EQ(held_view.HeapBytes(), free_view.HeapBytes()) << "delete";
  for (const ivm::ViewDelta& delta : held) {
    for (const Relation* rows : {&delta.enters, &delta.exits}) {
      EXPECT_EQ(rows->schema(), table.schema());
      EXPECT_FALSE(rows->store().IsView());
    }
  }
  // A make no row had goes into the view's dictionary, which the held
  // deltas share: every held row still reads as it did.
  std::vector<std::vector<Tuple>> before;
  for (const ivm::ViewDelta& delta : held) {
    before.push_back(delta.enters.tuples());
  }
  Tuple row = inserted[4];
  row[1] = Value("make-new");
  row[5] = Value(int64_t{-100});
  const ivm::ViewDelta fresh =
      held_view.ApplyInsert(row, table.size() - 1, ++version);
  ASSERT_EQ(fresh.enters.size(), 1u);
  EXPECT_EQ(fresh.enters.RowAt(0), row);
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(held[i].enters.tuples(), before[i]) << "delta " << i;
  }
}

// --- engine integration ----------------------------------------------------

Relation SmallCars() {
  Relation car(CarSchema());
  car.Add({"Opel", 38, 30, 1.0});
  car.Add({"Opel", 41, 60, 2.0});
  car.Add({"BMW", 39, 20, 3.0});
  car.Add({"BMW", 45, 80, 4.0});
  return car;
}

TEST(EngineSubscribeTest, ViewBytesGaugeSumsLiveViews) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  EXPECT_EQ(engine.cache_stats().view_bytes, 0u);
  Engine::Subscription sub =
      engine.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  const size_t seeded = engine.cache_stats().view_bytes;
  EXPECT_GT(seeded, 0u);
  engine.Insert("car", {"Ford", 1, 1, 0.0});
  EXPECT_GT(engine.cache_stats().view_bytes, seeded);  // owns its columns
  sub.Cancel();
  EXPECT_EQ(engine.cache_stats().view_bytes, 0u);
}

TEST(EngineSubscribeTest, BootstrapResyncThenIncrementalDeltas) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  Engine::Subscription sub = engine.Subscribe(
      "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)");
  ASSERT_TRUE(sub.active());
  EXPECT_EQ(sub.table(), "car");
  EXPECT_EQ(engine.SubscriptionCount(), 1u);

  auto boot = sub.Poll();
  ASSERT_TRUE(boot.has_value());
  EXPECT_TRUE(boot->resync);
  EXPECT_EQ(RowSet(boot->enters),
            RowSet(engine.Execute("SELECT * FROM car PREFERRING LOWEST(price) "
                                  "AND LOWEST(mileage)")
                       .relation));

  // A dominated insert produces no delta; a dominating one enters and
  // demotes.
  engine.Insert("car", {"Ford", 50, 90, 0.0});
  EXPECT_FALSE(sub.Poll().has_value());
  engine.Insert("car", {"Ford", 1, 1, 0.0});
  auto delta = sub.WaitFor(milliseconds(1000));
  ASSERT_TRUE(delta.has_value());
  EXPECT_FALSE(delta->resync);
  ASSERT_EQ(delta->enters.size(), 1u);
  EXPECT_EQ(delta->enters.ValueAt(0, 0), Value("Ford"));
  EXPECT_EQ(delta->exits.size(), 2u);  // both previous maxima are beaten

  // Deleting the dominator brings the old maxima back.
  size_t removed = engine.Delete(
      "car", [](const Tuple& t) { return t[1] == Value(static_cast<int64_t>(1)); });
  EXPECT_EQ(removed, 1u);
  delta = sub.WaitFor(milliseconds(1000));
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->exits.size(), 1u);
  EXPECT_EQ(delta->enters.size(), 2u);

  sub.Cancel();
  EXPECT_EQ(engine.SubscriptionCount(), 0u);
  EXPECT_TRUE(sub.closed());
}

TEST(EngineSubscribeTest, SubscribedQueryStaysEquivalentToRecompute) {
  const char* kSql =
      "SELECT * FROM car WHERE price < 45 PREFERRING LOWEST(price) AND "
      "LOWEST(mileage)";
  std::mt19937 rng(7);
  Engine subscribed;
  Engine reference;
  Relation seed(CarSchema());
  for (int i = 0; i < 50; ++i) seed.Add(RandomCar(&rng));
  subscribed.RegisterTable("car", seed);
  reference.RegisterTable("car", seed);
  Engine::Subscription sub = subscribed.Subscribe(kSql);
  for (int step = 0; step < 40; ++step) {
    if (rng() % 3 != 0) {
      Tuple row = RandomCar(&rng);
      subscribed.Insert("car", row);
      reference.Insert("car", row);
    } else {
      int64_t cut = static_cast<int64_t>(rng() % 50);
      auto pred = [cut](const Tuple& t) {
        return t[1] == Value(cut);
      };
      subscribed.Delete("car", pred);
      reference.Delete("car", pred);
    }
    // The subscribed engine answers from the delta-refreshed exec entry;
    // the reference recomputes cold. They must agree bytewise.
    ASSERT_EQ(RowSet(subscribed.Execute(kSql).relation),
              RowSet(reference.Execute(kSql).relation))
        << "step " << step;
  }
  // The refresh path actually ran (mutations on a subscribed statement).
  EXPECT_GT(subscribed.cache_stats().exec_refreshes, 0u);
  EXPECT_GT(sub.view_stats().inserts, 0u);
}

TEST(EngineSubscribeTest, SlowSubscriberGetsCoalescedResync) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  Engine::Subscription sub = engine.Subscribe(
      "SELECT * FROM car PREFERRING LOWEST(price)", engine.options().bmo,
      /*max_pending_deltas=*/1);
  // Never polled: the bootstrap resync occupies the whole queue, so each
  // improving insert overflows and coalesces.
  for (int64_t price = 30; price > 25; --price) {
    engine.Insert("car", {"Ford", price, 1, 0.0});
  }
  EXPECT_GE(sub.coalesced_resyncs(), 1u);
  auto delta = sub.Poll();
  ASSERT_TRUE(delta.has_value());
  EXPECT_TRUE(delta->resync);
  EXPECT_EQ(RowSet(delta->enters),
            RowSet(engine.Execute("SELECT * FROM car PREFERRING LOWEST(price)")
                       .relation));
  EXPECT_FALSE(sub.Poll().has_value());  // backlog was dropped, not queued
}

TEST(EngineSubscribeTest, RejectsStatementsOutsideTheMaintainableFragment) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  EXPECT_THROW(engine.Subscribe("SELECT * FROM car"), psql::BadArgumentError);
  EXPECT_THROW(engine.Subscribe("SELECT make FROM car PREFERRING LOWEST(price)"),
               psql::BadArgumentError);
  EXPECT_THROW(
      engine.Subscribe("SELECT TOP 2 * FROM car PREFERRING LOWEST(price)"),
      psql::BadArgumentError);
  EXPECT_THROW(
      engine.Subscribe("EXPLAIN SELECT * FROM car PREFERRING LOWEST(price)"),
      psql::BadArgumentError);
  EXPECT_THROW(engine.Subscribe(
                   "SELECT * FROM car PREFERRING LOWEST(price) GROUPING make"),
               psql::BadArgumentError);
  EXPECT_THROW(engine.Subscribe("DELETE FROM car"), psql::BadArgumentError);
  EXPECT_THROW(engine.Subscribe("SELECT * FROM nope PREFERRING LOWEST(price)"),
               std::out_of_range);
}

TEST(EngineSubscribeTest, RegisterTableClosesSubscriptions) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  Engine::Subscription sub =
      engine.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  engine.RegisterTable("car", SmallCars());  // wholesale replacement
  EXPECT_TRUE(sub.closed());
  EXPECT_EQ(engine.SubscriptionCount(), 0u);
}

TEST(EngineSubscribeTest, SharedViewAcrossSubscribersOfTheSameStatement) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  Engine::Subscription a =
      engine.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  Engine::Subscription b =
      engine.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(engine.SubscriptionCount(), 2u);
  engine.Insert("car", {"Ford", 1, 1, 0.0});
  ASSERT_TRUE(a.Poll().has_value());  // bootstrap
  ASSERT_TRUE(b.Poll().has_value());
  EXPECT_TRUE(a.WaitFor(milliseconds(1000)).has_value());
  EXPECT_TRUE(b.WaitFor(milliseconds(1000)).has_value());
  a.Cancel();
  EXPECT_EQ(engine.SubscriptionCount(), 1u);
  // The view (shared) survives for b.
  engine.Insert("car", {"Ford", 0, 0, 0.0});
  EXPECT_TRUE(b.WaitFor(milliseconds(1000)).has_value());
}

// --- DELETE FROM -----------------------------------------------------------

TEST(EngineDeleteTest, SqlDeleteRoutesThroughTheEngine) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  psql::QueryResult result =
      engine.Execute("DELETE FROM car WHERE make = 'Opel'");
  ASSERT_EQ(result.relation.size(), 1u);
  EXPECT_EQ(result.relation.at(0)[0], Value(static_cast<int64_t>(2)));
  EXPECT_EQ(result.relation.schema().at(0).name, "deleted");
  EXPECT_EQ(engine.Snapshot("car")->size(), 2u);
  // No match: no version bump, and the count says zero.
  uint64_t version = engine.TableVersion("car");
  result = engine.Execute("DELETE FROM car WHERE make = 'Nope'");
  EXPECT_EQ(result.relation.at(0)[0], Value(static_cast<int64_t>(0)));
  EXPECT_EQ(engine.TableVersion("car"), version);
  // Unconditional delete empties the table.
  result = engine.Execute("DELETE FROM car");
  EXPECT_EQ(result.relation.at(0)[0], Value(static_cast<int64_t>(2)));
  EXPECT_EQ(engine.Snapshot("car")->size(), 0u);
  EXPECT_THROW(engine.Execute("DELETE FROM nope"), std::out_of_range);
}

TEST(EngineDeleteTest, DeleteInvalidatesStatsAndCaches) {
  Engine engine;
  engine.RegisterTable("car", SmallCars());
  auto before = engine.Stats("car");
  EXPECT_EQ(before->rows, 4u);
  EXPECT_EQ(engine.Delete("car", [](const Tuple& t) {
    return t[0] == Value("BMW");
  }),
            2u);
  auto after = engine.Stats("car");
  EXPECT_EQ(after->rows, 2u);
  const char* kSql = "SELECT * FROM car PREFERRING LOWEST(price)";
  Relation warm = engine.Execute(kSql).relation;
  EXPECT_TRUE(warm.SameRows(engine.Execute(kSql).relation));
}

}  // namespace
}  // namespace prefdb
