// Concurrent preference-query-server tests: wire-protocol codec
// round-trips, N-client concurrent correctness against a single-threaded
// reference engine, snapshot reads racing INSERT invalidation, admission
// control (bounded queue backpressure) and per-query timeouts,
// malformed/oversized-frame handling, session limits, and graceful
// shutdown draining in-flight queries. The suite is part of CI's TSan
// matrix job: every path here must be data-race-free.

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "datagen/cars.h"
#include "psql/error.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/session_options.h"

namespace prefdb::server {
namespace {

constexpr uint64_t kCarSeed = 7;
constexpr size_t kCarRows = 2000;
const char* kHost = "127.0.0.1";

// The served workload: the engine_test mix plus ranked retrieval.
const char* kMixQueries[] = {
    "SELECT * FROM car PREFERRING LOWEST(price)",
    "SELECT oid, price, mileage FROM car "
    "PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)",
    "SELECT * FROM car WHERE price < 30000 "
    "PREFERRING (category = 'roadster' ELSE category <> 'passenger') "
    "AND price AROUND 20000 CASCADE LOWEST(mileage)",
    "SELECT * FROM car PREFERRING LOWEST(price) GROUPING category",
    "SELECT TOP 10 oid, price, mileage FROM car "
    "PREFERRING LOWEST(price) AND LOWEST(mileage)",
    "SELECT oid FROM car WHERE price < 42000 LIMIT 5",
};

/// One engine + running server per fixture; a second, never-served engine
/// computes the single-threaded reference results.
class ServedEngine {
 public:
  explicit ServedEngine(ServerOptions options = {}) {
    engine_.RegisterTable("car", GenerateCars(kCarRows, kCarSeed));
    reference_.RegisterTable("car", GenerateCars(kCarRows, kCarSeed));
    server_ = std::make_unique<Server>(&engine_, options);
    server_->Start();
  }

  Client Connect() {
    Client client;
    client.Connect(kHost, server_->port());
    return client;
  }

  /// The single-threaded reference execution, with the same options the
  /// server gives its sessions.
  psql::QueryResult Reference(const std::string& sql) {
    return reference_.Execute(sql, ServerOptions::DefaultSessionBmo());
  }

  Engine engine_;
  Engine reference_;
  std::unique_ptr<Server> server_;
};

// --- codec ---------------------------------------------------------------

TEST(ProtocolTest, ValueEncodingRoundTripsEveryType) {
  Tuple row{Value(), Value(int64_t{-42}), Value(3.5),
            Value("with space"), Value(std::string("line\nbreak, 'q'")),
            Value(std::nan("")), Value(1e300), Value(std::string())};
  std::string encoded;
  EncodeRow(row, &encoded);
  size_t pos = 0;
  auto decoded = DecodeRow(encoded, &pos);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(pos, encoded.size());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_double() && std::isnan(row[i].as_double())) {
      EXPECT_TRUE(std::isnan((*decoded)[i].as_double()));
    } else {
      EXPECT_EQ((*decoded)[i], row[i]) << "column " << i;
    }
  }
}

TEST(ProtocolTest, ResultSerializationRoundTrips) {
  psql::QueryResult result;
  Schema schema({{"name", ValueType::kString}, {"price", ValueType::kInt}});
  Relation rel(schema);
  rel.Add({"an,odd\nname", 42});
  rel.Add({Value(), 7});
  result.relation = rel;
  result.utilities = {0.75, 0.25};
  result.stats.kernel = "bnl[avx2,tile=8192]";
  auto parsed = ParseResult(SerializeResult(result));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->relation == rel);
  EXPECT_EQ(parsed->utilities, result.utilities);
  EXPECT_EQ(parsed->kernel, result.stats.kernel);
}

TEST(ProtocolTest, MalformedResultPayloadsAreRejected) {
  EXPECT_FALSE(ParseResult("").has_value());
  EXPECT_FALSE(ParseResult("schema a:INT\n").has_value());
  EXPECT_FALSE(
      ParseResult("schema a:INT\nutilities \nkernel \nrows 2\nI1\n")
          .has_value());
  EXPECT_FALSE(
      ParseResult("schema a:INT\nutilities \nkernel \nrows 1\nI1 I2\n")
          .has_value());
  EXPECT_FALSE(
      ParseResult("schema a:BOGUS\nutilities \nkernel \nrows 0\n")
          .has_value());
}

// Regression (found by fuzz/fuzz_protocol.cc): a declared row count far
// beyond the remaining payload must be rejected before the tuple vector
// reserves for it — a 40-byte frame claiming 2^64-1 rows asked the
// allocator for petabytes.
TEST(ProtocolTest, HugeDeclaredRowCountIsRejectedWithoutAllocating) {
  EXPECT_FALSE(
      ParseResult(
          "schema \nutilities \nkernel k\nrows 18446744073709551615\n")
          .has_value());
  EXPECT_FALSE(
      ParseResult("schema a:INT\nutilities \nkernel k\nrows 1000\nI1\n")
          .has_value());
}

// Regression (found by fuzz/fuzz_protocol.cc): an 'S' value whose declared
// byte count wraps `colon + 1 + count` around size_t used to pass the
// bounds check and drag the parse position backwards — an infinite loop
// on a 17-byte frame.
TEST(ProtocolTest, StringLengthOverflowDoesNotWrapThePosition) {
  std::string payload = "S18446744073709551615:x\n";
  size_t pos = 0;
  EXPECT_FALSE(DecodeRow(payload, &pos).has_value());
  EXPECT_FALSE(
      ParseResult("schema s:STRING\nutilities \nkernel k\nrows 1\n" + payload)
          .has_value());
}

TEST(ProtocolTest, ErrorCodesRoundTripByName) {
  for (psql::ErrorCode code :
       {psql::ErrorCode::kSyntax, psql::ErrorCode::kNotFound,
        psql::ErrorCode::kOverloaded, psql::ErrorCode::kTimeout,
        psql::ErrorCode::kProtocol, psql::ErrorCode::kInternal}) {
    psql::QueryError error{code, "message\nwith detail"};
    psql::QueryError back = psql::DeserializeError(SerializeError(error));
    EXPECT_EQ(back.code, code);
    EXPECT_EQ(back.message, error.message);
  }
}

// --- basic serving -------------------------------------------------------

TEST(ServerTest, QueryMatchesSingleThreadedReference) {
  ServedEngine served;
  Client client = served.Connect();
  for (const char* sql : kMixQueries) {
    ClientResponse response = client.Query(sql);
    ASSERT_TRUE(response.ok) << sql << ": " << response.error.message;
    psql::QueryResult expected = served.Reference(sql);
    EXPECT_TRUE(response.relation == expected.relation) << sql;
    EXPECT_EQ(response.utilities, expected.utilities) << sql;
  }
  EXPECT_TRUE(client.Ping().ok);
  EXPECT_TRUE(client.Goodbye().ok);
}

TEST(ServerTest, PreparedHandlesRunTheStatement) {
  ServedEngine served;
  Client client = served.Connect();
  const char* sql = kMixQueries[1];
  ClientResponse prepared = client.Prepare(sql);
  ASSERT_TRUE(prepared.ok);
  ASSERT_GT(prepared.handle, 0u);
  psql::QueryResult expected = served.Reference(sql);
  for (int i = 0; i < 3; ++i) {
    ClientResponse run = client.Run(prepared.handle);
    ASSERT_TRUE(run.ok) << run.error.message;
    EXPECT_TRUE(run.relation == expected.relation);
  }
  ClientResponse bad = client.Run(999);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error.code, psql::ErrorCode::kNotFound);
}

TEST(ServerTest, SessionOptionsApplyAndValidate) {
  ServedEngine served;
  Client client = served.Connect();
  EXPECT_TRUE(client.Set("algorithm", "bnl").ok);
  // Every query runs on one worker thread: there is no threads option.
  EXPECT_EQ(client.Set("threads", "2").error.code,
            psql::ErrorCode::kBadArgument);
  ClientResponse response = client.Query(kMixQueries[0]);
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(response.relation ==
              served.Reference(kMixQueries[0]).relation);

  // The divide & conquer evaluator is a library function, not a planned
  // kernel, and only algorithm=naive selects the closure path.
  for (const auto& [name, value] :
       {std::pair<const char*, const char*>{"algorithm", "quantum"},
        {"algorithm", "dc"},
        {"algorithm", "decomposition"},
        {"vectorize", "off"},
        {"vectorize", "on"}}) {
    EXPECT_EQ(client.Set(name, value).error.code,
              psql::ErrorCode::kBadArgument)
        << name << "=" << value;
  }
  EXPECT_EQ(client.Set("no_such_option", "1").error.code,
            psql::ErrorCode::kBadArgument);
  EXPECT_EQ(client.RoundTrip(Frame{FrameType::kSet, "garbage"}).error.code,
            psql::ErrorCode::kBadArgument);
  // Counts take digits only, and timeouts stop at the cap.
  for (const std::string& bad :
       {std::string("-1"), std::string("+5"), std::string(" 5"),
        std::to_string(SessionOptions::kMaxTimeoutMs + 1)}) {
    EXPECT_EQ(client.Set("timeout_ms", bad).error.code,
              psql::ErrorCode::kBadArgument)
        << "'" << bad << "'";
  }
  EXPECT_EQ(client.Set("max_pending_deltas", "-1").error.code,
            psql::ErrorCode::kBadArgument);
}

TEST(ServerTest, SyntaxErrorsCarryCaretContext) {
  ServedEngine served;
  Client client = served.Connect();
  ClientResponse response = client.Query("SELECT * car PREFERRING");
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, psql::ErrorCode::kSyntax);
  EXPECT_NE(response.error.message.find('^'), std::string::npos)
      << response.error.message;
  // The session survives a failed query.
  EXPECT_TRUE(client.Ping().ok);
  EXPECT_EQ(client.Query("SELECT * FROM no_such_table").error.code,
            psql::ErrorCode::kNotFound);
}

TEST(ServerTest, InsertAppendsARowVisibleToQueries) {
  ServedEngine served;
  Client client = served.Connect();
  ClientResponse before = client.Query("SELECT * FROM car");
  ASSERT_TRUE(before.ok);
  const Relation& car = *served.engine_.Snapshot("car");
  Tuple row = car.at(0);
  ASSERT_TRUE(client.Insert("car", row).ok);
  ClientResponse after = client.Query("SELECT * FROM car");
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.relation.size(), before.relation.size() + 1);
  EXPECT_EQ(client.Insert("no_such_table", row).error.code,
            psql::ErrorCode::kNotFound);
}

// --- concurrency ---------------------------------------------------------

TEST(ServerTest, SixtyFourConcurrentSessionsMatchReference) {
  constexpr size_t kSessions = 64;
  constexpr int kQueriesPerSession = 8;
  ServedEngine served;
  // Reference results, precomputed single-threaded.
  std::vector<psql::QueryResult> expected;
  for (const char* sql : kMixQueries) expected.push_back(served.Reference(sql));

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      Client client;
      client.Connect(kHost, served.server_->port());
      for (int q = 0; q < kQueriesPerSession; ++q) {
        size_t mix = (s + static_cast<size_t>(q)) % std::size(kMixQueries);
        ClientResponse response = client.Query(kMixQueries[mix]);
        if (!response.ok) {
          failures.fetch_add(1);
          continue;
        }
        if (!(response.relation == expected[mix].relation) ||
            response.utilities != expected[mix].utilities) {
          mismatches.fetch_add(1);
        }
      }
      client.Goodbye();
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  ServerStats stats = served.server_->stats();
  EXPECT_EQ(stats.sessions_accepted, kSessions);
  EXPECT_EQ(stats.queries_ok, kSessions * kQueriesPerSession);
  // The shared caches were actually shared: far fewer misses than runs.
  Engine::CacheStats cache = served.engine_.cache_stats();
  EXPECT_GE(cache.plan_hits + cache.exec_hits, kSessions);
  EXPECT_GT(cache.lock_acquisitions, 0u);
}

TEST(ServerTest, SnapshotReadsRaceInsertInvalidation) {
  ServedEngine served;
  constexpr size_t kReaders = 8;
  constexpr int kReads = 20;
  constexpr int kInserts = 40;
  const Relation car = *served.engine_.Snapshot("car");

  std::atomic<bool> stop{false};
  std::atomic<int> bad_results{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      Client client;
      client.Connect(kHost, served.server_->port());
      for (int q = 0; q < kReads; ++q) {
        ClientResponse response = client.Query(
            "SELECT * FROM car PREFERRING LOWEST(price) AND "
            "LOWEST(mileage)");
        // Any consistent snapshot yields a non-empty maxima set whose
        // rows all come from some version of the table; emptiness or an
        // error would mean a torn read.
        if (!response.ok || response.relation.empty()) bad_results.fetch_add(1);
      }
      client.Goodbye();
    });
  }
  std::thread writer([&] {
    Client client;
    client.Connect(kHost, served.server_->port());
    for (int i = 0; i < kInserts && !stop.load(); ++i) {
      if (!client.Insert("car", car.at(static_cast<size_t>(i))).ok) {
        bad_results.fetch_add(1);
      }
    }
    client.Goodbye();
  });
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad_results.load(), 0);

  // After the dust settles the served result equals a fresh single-thread
  // reference over the final table state.
  Engine settled;
  settled.RegisterTable("car", *served.engine_.Snapshot("car"));
  Client client = served.Connect();
  ClientResponse final_response = client.Query(
      "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)");
  ASSERT_TRUE(final_response.ok);
  EXPECT_TRUE(final_response.relation ==
              settled
                  .Execute(
                      "SELECT * FROM car PREFERRING LOWEST(price) AND "
                      "LOWEST(mileage)",
                      ServerOptions::DefaultSessionBmo())
                  .relation);
}

// --- admission control + timeouts ---------------------------------------

TEST(ServerTest, FullQueueRejectsWithOverloaded) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  options.debug_execute_delay_ms = 100;
  ServedEngine served(options);

  constexpr size_t kClients = 8;
  std::atomic<int> ok{0}, overloaded{0}, other{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client;
      client.Connect(kHost, served.server_->port());
      ClientResponse response = client.Query(kMixQueries[0]);
      if (response.ok) {
        ok.fetch_add(1);
      } else if (response.error.code == psql::ErrorCode::kOverloaded) {
        overloaded.fetch_add(1);
      } else {
        other.fetch_add(1);
      }
      client.Goodbye();
    });
  }
  for (auto& t : threads) t.join();
  // One running + one queued at a time against 8 concurrent 100ms
  // queries: the bounded queue must have pushed back on someone.
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(overloaded.load(), 0);
  EXPECT_EQ(other.load(), 0);
  ServerStats stats = served.server_->stats();
  EXPECT_EQ(stats.queries_rejected_overload,
            static_cast<uint64_t>(overloaded.load()));
  EXPECT_LE(stats.peak_queue_depth, options.queue_capacity);
}

TEST(ServerTest, PerQueryDeadlineAnswersTimeout) {
  ServerOptions options;
  options.num_workers = 1;
  options.debug_execute_delay_ms = 300;
  ServedEngine served(options);
  Client client = served.Connect();
  ASSERT_TRUE(client.Set("timeout_ms", "50").ok);
  ClientResponse response = client.Query(kMixQueries[0]);
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, psql::ErrorCode::kTimeout);
  EXPECT_GE(served.server_->stats().queries_timeout, 1u);
  // The session is still usable afterwards (the late result is
  // discarded, not written to the socket).
  ASSERT_TRUE(client.Set("timeout_ms", "0").ok);
  EXPECT_TRUE(client.Query(kMixQueries[5]).ok);
}

// --- malformed input -----------------------------------------------------

TEST(ServerTest, UnknownFrameTypeAnswersProtocolError) {
  ServedEngine served;
  Client client = served.Connect();
  ClientResponse response =
      client.RoundTrip(Frame{static_cast<FrameType>('Z'), "???"});
  ASSERT_FALSE(response.ok);
  EXPECT_EQ(response.error.code, psql::ErrorCode::kProtocol);
  // Framing stayed in sync; the session keeps serving.
  EXPECT_TRUE(client.Ping().ok);
  EXPECT_GE(served.server_->stats().protocol_errors, 1u);
}

TEST(ServerTest, MalformedInsertPayloadAnswersProtocolError) {
  ServedEngine served;
  Client client = served.Connect();
  EXPECT_EQ(client.RoundTrip(Frame{FrameType::kInsert, "car"}).error.code,
            psql::ErrorCode::kProtocol);
  EXPECT_EQ(
      client.RoundTrip(Frame{FrameType::kInsert, "car\nI1 Zjunk\n"}).error.code,
      psql::ErrorCode::kProtocol);
  EXPECT_TRUE(client.Ping().ok);
}

TEST(ServerTest, OversizedFrameIsRejectedAndConnectionClosed) {
  ServerOptions options;
  options.max_frame_bytes = 256;
  ServedEngine served(options);
  Client client = served.Connect();
  std::string big(1024, 'x');
  client.SendRawBytes(EncodeFrame(Frame{FrameType::kQuery, big}));
  Frame reply = client.ReadResponse();
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(psql::DeserializeError(reply.payload).code,
            psql::ErrorCode::kOversized);
  // The server closed the stream (the payload cannot be skipped).
  EXPECT_THROW(client.ReadResponse(), std::runtime_error);
  // ...and other sessions are unaffected.
  Client fresh = served.Connect();
  EXPECT_TRUE(fresh.Ping().ok);
}

TEST(ServerTest, TruncatedHeaderJustDropsTheSession) {
  ServedEngine served;
  Client client = served.Connect();
  client.SendRawBytes("\x00\x00");  // half a header, then close
  client.Close();
  // The server must shrug it off and keep serving.
  Client fresh = served.Connect();
  EXPECT_TRUE(fresh.Ping().ok);
}

// --- limits + shutdown ---------------------------------------------------

TEST(ServerTest, SessionLimitTurnsAwayExtraConnections) {
  ServerOptions options;
  options.max_sessions = 2;
  ServedEngine served(options);
  Client a = served.Connect();
  Client b = served.Connect();
  ASSERT_TRUE(a.Ping().ok);
  ASSERT_TRUE(b.Ping().ok);
  // The server writes the rejection unprompted, tagged kNoRequestId, and
  // closes. Read it without sending first: a write to the closed socket
  // would race an RST that can discard the frame.
  Client c;
  c.Connect(kHost, served.server_->port());
  uint64_t request_id = 1;
  Frame reply = c.ReadResponse(&request_id);
  EXPECT_EQ(request_id, kNoRequestId);
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(psql::DeserializeError(reply.payload).code,
            psql::ErrorCode::kOverloaded);
  EXPECT_GE(served.server_->stats().sessions_rejected, 1u);
  // Freeing a slot readmits.
  a.Goodbye();
  // The accept loop reaps finished sessions lazily; retry briefly.
  bool admitted = false;
  for (int attempt = 0; attempt < 50 && !admitted; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    try {
      Client d;
      d.Connect(kHost, served.server_->port());
      admitted = d.Ping().ok;
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_TRUE(admitted);
}

TEST(ServerTest, GracefulShutdownDrainsInFlightQueries) {
  ServerOptions options;
  options.debug_execute_delay_ms = 200;
  ServedEngine served(options);

  std::mutex mu;
  std::condition_variable cv;
  bool sent = false;
  ClientResponse response;
  std::thread in_flight([&] {
    Client client;
    client.Connect(kHost, served.server_->port());
    {
      std::lock_guard<std::mutex> lock(mu);
      sent = true;
    }
    cv.notify_one();
    response = client.Query(kMixQueries[0]);  // rides through the shutdown
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return sent; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  served.server_->Stop();
  in_flight.join();

  ASSERT_TRUE(response.ok) << response.error.message;
  EXPECT_TRUE(response.relation ==
              served.Reference(kMixQueries[0]).relation);
  EXPECT_FALSE(served.server_->running());
  // The port is closed for new work.
  Client late;
  bool refused = false;
  try {
    late.Connect(kHost, served.server_->port());
    late.Ping();
  } catch (const std::runtime_error&) {
    refused = true;
  }
  EXPECT_TRUE(refused);
}

TEST(ServerTest, StopIsIdempotentAndRestartable) {
  Engine engine;
  engine.RegisterTable("car", GenerateCars(100, 1));
  Server server(&engine);
  server.Start();
  uint16_t first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  server.Stop();
  server.Start();
  Client client;
  client.Connect(kHost, server.port());
  EXPECT_TRUE(client.Query("SELECT * FROM car PREFERRING LOWEST(price)").ok);
  server.Stop();
}

}  // namespace
}  // namespace prefdb::server
