// Server-push tests for continuous preference queries: the kSubscribe /
// kDelta wire path. Covers the delta codec round-trip (NULL/NaN/string
// escapes included), subscribe-then-push end to end, delta interleaving
// with request/response traffic, the SET max_pending_deltas session
// option with slow-subscriber coalescing, and negative paths (invalid
// statements, malformed delta payloads). Part of CI's TSan matrix job.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "psql/error.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace prefdb::server {
namespace {

const char* kHost = "127.0.0.1";

Relation SmallCars() {
  Relation car(Schema{{"make", ValueType::kString},
                      {"price", ValueType::kInt},
                      {"mileage", ValueType::kInt}});
  car.Add({"Opel", 38, 30});
  car.Add({"Opel", 41, 60});
  car.Add({"BMW", 39, 20});
  return car;
}

std::vector<std::string> RowSet(const Relation& rel) {
  std::vector<std::string> out;
  for (const Tuple& t : rel.tuples()) out.push_back(t.ToString());
  std::sort(out.begin(), out.end());
  return out;
}

class PushFixture : public ::testing::Test {
 protected:
  virtual ServerOptions Options() { return ServerOptions{}; }
  void SetUp() override {
    engine_.RegisterTable("car", SmallCars());
    server_ = std::make_unique<Server>(&engine_, Options());
    server_->Start();
  }
  Client Connect() {
    Client client;
    client.Connect(kHost, server_->port());
    return client;
  }
  Engine engine_;
  std::unique_ptr<Server> server_;
};

/// A delta at `version` over `schema` holding `enters` and `exits`.
ivm::ViewDelta MakeDelta(const Schema& schema, uint64_t version, bool resync,
                         std::vector<Tuple> enters, std::vector<Tuple> exits) {
  ivm::ViewDelta delta;
  delta.version = version;
  delta.resync = resync;
  delta.enters = Relation(schema, std::move(enters));
  delta.exits = Relation(schema, std::move(exits));
  return delta;
}

TEST(DeltaCodecTest, RoundTripsExactly) {
  Schema schema({{"s", ValueType::kString},
                 {"i", ValueType::kInt},
                 {"d", ValueType::kDouble}});
  std::vector<Tuple> enters = {
      Tuple{Value("with space, comma\nand newline"), Value(static_cast<int64_t>(-7)),
            Value(std::nan(""))},
      Tuple{Value(), Value(static_cast<int64_t>(1) << 62), Value(-0.0)},
  };
  std::vector<Tuple> exits = {Tuple{Value(""), Value(static_cast<int64_t>(0)),
                                    Value(1.0 / 3.0)}};
  std::string payload =
      SerializeDelta(42, MakeDelta(schema, 9, true, enters, exits));
  auto parsed = ParseDelta(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->subscription, 42u);
  EXPECT_EQ(parsed->version, 9u);
  EXPECT_TRUE(parsed->resync);
  ASSERT_EQ(parsed->enters.size(), 2u);
  ASSERT_EQ(parsed->exits.size(), 1u);
  EXPECT_EQ(parsed->enters.schema().at(0).name, "s");
  EXPECT_EQ(parsed->enters.at(0)[0], Value("with space, comma\nand newline"));
  EXPECT_TRUE(std::isnan(parsed->enters.at(0)[2].as_double()));
  EXPECT_TRUE(std::signbit(parsed->enters.at(1)[2].as_double()));
  EXPECT_EQ(parsed->exits.at(0)[2], Value(1.0 / 3.0));
}

TEST(DeltaCodecTest, RejectsMalformedPayloads) {
  Schema schema({{"i", ValueType::kInt}});
  std::string good = SerializeDelta(
      1, MakeDelta(schema, 2, false, {Tuple{Value(static_cast<int64_t>(5))}},
                   {}));
  ASSERT_TRUE(ParseDelta(good).has_value());
  EXPECT_FALSE(ParseDelta("").has_value());
  EXPECT_FALSE(ParseDelta(good.substr(0, 16)).has_value());
  EXPECT_FALSE(ParseDelta(good + "trailing").has_value());
  // subscription, version, resync flag, then the schema (u32 count, u8
  // type, u32 length, "i"): the enters row count starts at byte 27.
  constexpr size_t kEntersAt = 8 + 8 + 1 + 4 + 1 + 4 + 1;
  auto with_enters = [&](uint64_t count) {
    std::string out = good;
    for (int i = 0; i < 8; ++i) {
      out[kEntersAt + i] = static_cast<char>(count >> (8 * i));
    }
    return out;
  };
  ASSERT_TRUE(ParseDelta(with_enters(1)).has_value());
  // Row-count lies (both directions) must not parse.
  EXPECT_FALSE(ParseDelta(with_enters(2)).has_value());
  EXPECT_FALSE(ParseDelta(with_enters(0)).has_value());
  EXPECT_FALSE(ParseDelta(with_enters(uint64_t{1} << 60)).has_value());
  std::string resync = good;
  resync[16] = 2;  // the flag is 0 or 1
  EXPECT_FALSE(ParseDelta(resync).has_value());
  // Arity mismatch: a one-column header in front of two-column rows.
  std::string two_cols = SerializeDelta(
      1, MakeDelta(Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}), 2,
                   false,
                   {Tuple{Value(static_cast<int64_t>(1)),
                          Value(static_cast<int64_t>(2))}},
                   {}));
  std::string one_col_header = SerializeDelta(
      1, MakeDelta(Schema({{"a", ValueType::kInt}}), 2, false, {}, {}));
  one_col_header.resize(kEntersAt);
  const size_t two_col_rows = kEntersAt + 1 + 4 + 1;  // a second attribute
  EXPECT_FALSE(
      ParseDelta(one_col_header + two_cols.substr(two_col_rows)).has_value());
}

TEST_F(PushFixture, SubscribeDeliversBootstrapThenDeltas) {
  Client client = Connect();
  ClientResponse sub =
      client.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  ASSERT_TRUE(sub.ok);
  EXPECT_GT(sub.handle, 0u);

  auto boot = client.ReadDelta(2000);
  ASSERT_TRUE(boot.has_value());
  EXPECT_EQ(boot->subscription, sub.handle);
  EXPECT_TRUE(boot->resync);
  EXPECT_EQ(RowSet(boot->enters),
            RowSet(engine_.Execute("SELECT * FROM car PREFERRING LOWEST(price)")
                       .relation));

  // A mutation from another session pushes a delta to this one.
  Client writer = Connect();
  ASSERT_TRUE(writer.Insert("car", Tuple{Value("Ford"),
                                         Value(static_cast<int64_t>(1)),
                                         Value(static_cast<int64_t>(1))})
                  .ok);
  auto delta = client.ReadDelta(2000);
  ASSERT_TRUE(delta.has_value());
  EXPECT_FALSE(delta->resync);
  ASSERT_EQ(delta->enters.size(), 1u);
  EXPECT_EQ(delta->enters.at(0)[0], Value("Ford"));
  EXPECT_EQ(delta->exits.size(), 1u);  // old minimum leaves
  EXPECT_FALSE(client.ReadDelta(50).has_value());  // quiet stream -> timeout

  // DELETE FROM over the wire triggers the exit/enter flow back.
  ASSERT_TRUE(writer.Query("DELETE FROM car WHERE make = 'Ford'").ok);
  delta = client.ReadDelta(2000);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->exits.size(), 1u);
  EXPECT_EQ(delta->enters.size(), 1u);

  EXPECT_GE(server_->stats().subscriptions_opened, 1u);
  // The pushed counter is bumped after the socket write, so the client
  // can observe a delta a beat before the server's count reflects it.
  for (int i = 0; i < 100 && server_->stats().deltas_pushed < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->stats().deltas_pushed, 3u);
  client.Goodbye();
  writer.Goodbye();
}

TEST_F(PushFixture, DeltasInterleaveWithRequestsViaStash) {
  Client client = Connect();
  ASSERT_TRUE(
      client.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)").ok);
  // Mutate from the same session: the push for our own insert may land
  // before the query response; Request() must stash it, not choke.
  ASSERT_TRUE(client.Insert("car", Tuple{Value("Ford"),
                                         Value(static_cast<int64_t>(1)),
                                         Value(static_cast<int64_t>(1))})
                  .ok);
  ClientResponse result =
      client.Query("SELECT * FROM car PREFERRING LOWEST(price)");
  ASSERT_TRUE(result.ok);
  ASSERT_EQ(result.relation.size(), 1u);
  EXPECT_EQ(result.relation.at(0)[0], Value("Ford"));
  // Bootstrap + insert delta are both retrievable, in order.
  auto boot = client.ReadDelta(2000);
  ASSERT_TRUE(boot.has_value());
  EXPECT_TRUE(boot->resync);
  auto delta = client.ReadDelta(2000);
  ASSERT_TRUE(delta.has_value());
  EXPECT_FALSE(delta->resync);
  client.Goodbye();
}

TEST_F(PushFixture, InvalidSubscriptionsAreRejected) {
  Client client = Connect();
  ClientResponse r = client.Subscribe("SELECT * FROM car");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, psql::ErrorCode::kBadArgument);
  r = client.Subscribe("SELECT TOP 2 * FROM car PREFERRING LOWEST(price)");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, psql::ErrorCode::kBadArgument);
  r = client.Subscribe("SELECT * FROM nope PREFERRING LOWEST(price)");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, psql::ErrorCode::kNotFound);
  r = client.Subscribe("SELEC nonsense");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error.code, psql::ErrorCode::kSyntax);
  // The session stays usable after rejections.
  EXPECT_TRUE(client.Ping().ok);
  client.Goodbye();
}

// The pusher normally drains the engine-side queue faster than mutations
// arrive, so overflowing a 1-slot queue from a test needs a genuinely
// slow consumer: the debug_push_delay_ms hook holds the pusher between
// drain attempts, letting a burst of inserts pile up engine-side.
class SlowPushFixture : public PushFixture {
 protected:
  ServerOptions Options() override {
    ServerOptions options;
    options.debug_push_delay_ms = 300;
    return options;
  }
};

TEST_F(SlowPushFixture, SetMaxPendingDeltasCoalescesSlowSubscriber) {
  Client client = Connect();
  // Negative: non-numeric value is rejected.
  ClientResponse bad = client.Set("max_pending_deltas", "lots");
  ASSERT_FALSE(bad.ok);
  EXPECT_EQ(bad.error.code, psql::ErrorCode::kBadArgument);

  ASSERT_TRUE(client.Set("max_pending_deltas", "1").ok);
  ClientResponse sub =
      client.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  ASSERT_TRUE(sub.ok);
  // Drain the bootstrap so the engine-side queue is empty, then a burst
  // of improving inserts lands within one pusher-delay window and
  // overflows the 1-slot queue.
  ASSERT_TRUE(client.ReadDelta(2000).has_value());
  Client writer = Connect();
  for (int64_t price = 30; price > 20; --price) {
    ASSERT_TRUE(writer.Insert("car", Tuple{Value("Ford"), Value(price),
                                           Value(static_cast<int64_t>(1))})
                    .ok);
  }
  // Whatever was coalesced, the client must be able to recover the exact
  // current state from the stream: apply deltas in order, resync resets.
  std::vector<std::string> mirror =
      RowSet(engine_.Execute("SELECT * FROM car PREFERRING LOWEST(price)")
                 .relation);
  std::vector<std::string> state;
  bool saw_resync = false;
  for (;;) {
    auto delta = client.ReadDelta(500);
    if (!delta) break;
    if (delta->resync) {
      saw_resync = true;
      state = RowSet(delta->enters);
      continue;
    }
    for (const std::string& gone : RowSet(delta->exits)) {
      auto it = std::find(state.begin(), state.end(), gone);
      if (it != state.end()) state.erase(it);
    }
    for (const std::string& fresh : RowSet(delta->enters)) {
      state.push_back(fresh);
    }
    std::sort(state.begin(), state.end());
  }
  EXPECT_TRUE(saw_resync)
      << "a 1-deep queue under a 10-insert burst must coalesce";
  EXPECT_EQ(state, mirror);
  client.Goodbye();
  writer.Goodbye();
}

TEST_F(PushFixture, ServerStopClosesPushersCleanly) {
  Client client = Connect();
  ASSERT_TRUE(
      client.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)").ok);
  ASSERT_TRUE(client.ReadDelta(2000).has_value());
  server_->Stop();
  // After stop, the connection eventually reports closure instead of
  // hanging; either a timeout-free nullopt (clean FIN) or a transport
  // throw is acceptable.
  try {
    auto delta = client.ReadDelta(2000);
    EXPECT_FALSE(delta.has_value());
  } catch (const std::exception&) {
    // connection reset — fine
  }
}

}  // namespace
}  // namespace prefdb::server
