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
#include <cstring>
#include <limits>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <stdexcept>
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

/// Little-endian writers for hand-made frames (the grammar in protocol.h).
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}
void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  *out += s;
}

/// A result header: schema, no utilities, kernel "k".
std::string ResultHeader(const Schema& schema) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(schema.size()));
  for (const Attribute& a : schema.attributes()) {
    out.push_back(static_cast<char>(a.type));
    PutStr(&out, a.name);
  }
  PutU32(&out, 0);
  PutStr(&out, "k");
  return out;
}

/// Same runtime type and same value, bit for bit: NaN payloads, -0.0 and
/// int/double are told apart, unlike Value::operator==.
::testing::AssertionResult SameCells(const Relation& got,
                                     const Relation& want) {
  if (!(got.schema() == want.schema())) {
    return ::testing::AssertionFailure()
           << "schema " << got.schema().ToString() << " vs "
           << want.schema().ToString();
  }
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " rows vs " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t c = 0; c < want.schema().size(); ++c) {
      const Value g = got.ValueAt(i, c);
      const Value w = want.ValueAt(i, c);
      bool same = g.type() == w.type();
      if (same && w.is_double()) {
        const double gd = g.as_double();
        const double wd = w.as_double();
        same = std::memcmp(&gd, &wd, sizeof gd) == 0;
      } else if (same && !w.is_null()) {
        same = g == w;
      }
      if (!same) {
        return ::testing::AssertionFailure()
               << "cell (" << i << ", " << c << "): " << g.ToString()
               << " vs " << w.ToString();
      }
    }
  }
  return ::testing::AssertionSuccess();
}

std::string Encode(const Relation& r) {
  psql::QueryResult result;
  result.relation = r;
  result.stats.kernel = "k";
  return SerializeResult(result);
}

TEST(ProtocolTest, EdgeCellsRoundTripExactly) {
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t above_2_53 = (int64_t{1} << 53) + 1;
  const double payload_nan = -std::nan("0x5a5a");
  Relation rel(Schema({{"i", ValueType::kInt},
                       {"d", ValueType::kDouble},
                       {"s", ValueType::kString},
                       {"mixed", ValueType::kString}}));
  rel.Add({Value(kMin), Value(std::nan("")), Value(std::string()),
           Value("text")});
  rel.Add({Value(kMax), Value(-0.0), Value(std::string("nul\0byte", 8)),
           Value(above_2_53)});
  rel.Add({Value(above_2_53), Value(inf), Value("line\nbreak, 'q'"),
           Value(-0.0)});
  rel.Add({Value(), Value(-inf), Value(), Value()});
  rel.Add({Value(int64_t{0}), Value(payload_nan), Value("line\nbreak, 'q'"),
           Value(2.5)});
  psql::QueryResult result;
  result.relation = rel;
  result.utilities = {0.75, -0.0, std::nan(""), inf};
  result.stats.kernel = "bnl[avx2,tile=8192]";
  auto parsed = ParseResult(SerializeResult(result));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(SameCells(parsed->relation, rel));
  ASSERT_EQ(parsed->utilities.size(), result.utilities.size());
  EXPECT_EQ(std::memcmp(parsed->utilities.data(), result.utilities.data(),
                        sizeof(double) * result.utilities.size()),
            0);
  EXPECT_EQ(parsed->kernel, result.stats.kernel);
  EXPECT_FALSE(parsed->relation.store().IsView());
}

TEST(ProtocolTest, EmptyShapesRoundTrip) {
  // Zero rows, zero columns, and zero columns with rows (one zero byte per
  // row on the wire).
  Relation no_rows(Schema({{"a", ValueType::kInt}, {"b", ValueType::kString}}));
  Relation no_cols;
  Relation empty_rows(Schema{}, {Tuple{}, Tuple{}, Tuple{}});
  for (const Relation* r : {&no_rows, &no_cols, &empty_rows}) {
    auto parsed = ParseResult(Encode(*r));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(SameCells(parsed->relation, *r));
    EXPECT_EQ(Encode(parsed->relation), Encode(*r));
  }
  std::string padded = ResultHeader(Schema{});
  PutU64(&padded, 2);
  padded += std::string("\0\1", 2);
  EXPECT_FALSE(ParseResult(padded).has_value());
}

TEST(ProtocolTest, DeltaShapesRoundTrip) {
  const Schema schema({{"s", ValueType::kString}, {"d", ValueType::kDouble}});
  Relation rows(schema);
  rows.Add({Value("a"), Value(-0.0)});
  rows.Add({Value(), Value(std::nan(""))});
  const Relation none(schema);
  struct Shape {
    const char* name;
    bool resync;
    const Relation* enters;
    const Relation* exits;
  };
  for (const Shape& shape : {Shape{"exits only", false, &none, &rows},
                             Shape{"enters only", false, &rows, &none},
                             Shape{"zero-row resync", true, &none, &none}}) {
    ivm::ViewDelta delta;
    delta.version = 11;
    delta.resync = shape.resync;
    delta.enters = *shape.enters;
    delta.exits = *shape.exits;
    const std::string wire = SerializeDelta(3, delta);
    auto parsed = ParseDelta(wire);
    ASSERT_TRUE(parsed.has_value()) << shape.name;
    EXPECT_EQ(parsed->subscription, 3u) << shape.name;
    EXPECT_EQ(parsed->version, 11u) << shape.name;
    EXPECT_EQ(parsed->resync, shape.resync) << shape.name;
    EXPECT_TRUE(SameCells(parsed->enters, *shape.enters)) << shape.name;
    EXPECT_TRUE(SameCells(parsed->exits, *shape.exits)) << shape.name;
    EXPECT_EQ(SerializeDelta(3, *parsed), wire) << shape.name;
  }
}

TEST(ProtocolTest, DeltaSchemaMismatchIsRefused) {
  ivm::ViewDelta delta;
  delta.enters = Relation(Schema({{"a", ValueType::kInt}}));
  delta.exits = Relation(Schema({{"b", ValueType::kInt}}));
  EXPECT_THROW(SerializeDelta(1, delta), std::invalid_argument);
  delta.exits = Relation(Schema({{"a", ValueType::kDouble}}));
  EXPECT_THROW(SerializeDelta(1, delta), std::invalid_argument);
  delta.exits = Relation(Schema{});
  EXPECT_THROW(SerializeDelta(1, delta), std::invalid_argument);
  delta.exits = Relation(Schema({{"a", ValueType::kInt}}));
  EXPECT_TRUE(ParseDelta(SerializeDelta(1, delta)).has_value());
}

TEST(ProtocolTest, EncodingIsCanonical) {
  Relation base(Schema({{"n", ValueType::kDouble},
                        {"s", ValueType::kString},
                        {"i", ValueType::kInt}}));
  base.Add({Value(1), Value("b"), Value(7)});
  base.Add({Value(2.5), Value("a"), Value()});
  base.Add({Value(std::nan("")), Value("c"), Value(9)});
  base.Add({Value(-0.0), Value("a"), Value(3.5)});
  base.Add({Value(), Value(), Value(int64_t{1} << 60)});

  // A view and its flattened copy.
  Relation view = base.SelectRows({4, 2, 0, 3, 1});
  ASSERT_TRUE(view.store().IsView());
  Relation flat(view.schema());
  for (size_t i = 0; i < view.size(); ++i) flat.Add(view.RowAt(i));
  EXPECT_EQ(Encode(view), Encode(flat));

  // A relation rebuilt from its own frame.
  auto parsed = ParseResult(Encode(view));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(Encode(parsed->relation), Encode(view));

  // Unused dictionary entries ("b", "c" after the erase) and an int
  // shadow with no int left in the column.
  Relation erased = base;
  erased.EraseRows({1, 0, 1, 0, 0});
  ASSERT_EQ(erased.store().column(1).dict->size(), 3u);
  ASSERT_FALSE(erased.store().column(0).ints.empty());
  ASSERT_EQ(erased.store().column(0).int_count, 0u);
  Relation fresh(base.schema());
  for (size_t i : {1, 3, 4}) fresh.Add(base.RowAt(i));
  ASSERT_TRUE(fresh.store().column(0).ints.empty());
  EXPECT_EQ(Encode(erased), Encode(fresh));
  // The same through a view whose selection skips column n's int row.
  Relation no_ints = base.SelectRows({1, 3, 4});
  EXPECT_EQ(Encode(no_ints), Encode(fresh));

  // A few rows over a dictionary far larger than them encode like the
  // same rows in a fresh relation; so does a column that is all NULL.
  Relation wide(Schema({{"s", ValueType::kString}, {"z", ValueType::kInt}}));
  for (int i = 0; i < 5000; ++i) {
    wide.Add({Value("v" + std::to_string(i)), Value()});
  }
  Relation few = wide.SelectRows({4321, 7, 4321});
  ASSERT_EQ(few.store().column(0).dict->size(), 5000u);
  Relation few_fresh(wide.schema());
  for (size_t i = 0; i < few.size(); ++i) few_fresh.Add(few.RowAt(i));
  EXPECT_EQ(Encode(few), Encode(few_fresh));
  auto few_parsed = ParseResult(Encode(few));
  ASSERT_TRUE(few_parsed.has_value());
  ASSERT_EQ(few_parsed->relation.size(), 3u);
  EXPECT_EQ(few_parsed->relation.RowAt(0)[0], Value("v4321"));
  EXPECT_EQ(few_parsed->relation.RowAt(1)[0], Value("v7"));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(few_parsed->relation.RowAt(i)[1].is_null());
  }
}

TEST(ProtocolTest, MalformedResultPayloadsAreRejected) {
  const Schema strings({{"s", ValueType::kString}});
  const std::string header = ResultHeader(strings);
  // One string row "x": tag, no numerics, dictionary {"x"}, code 0.
  std::string valid = header;
  PutU64(&valid, 1);
  valid.push_back(3);
  PutU32(&valid, 1);
  PutStr(&valid, "x");
  PutU32(&valid, 0);
  ASSERT_TRUE(ParseResult(valid).has_value());
  ASSERT_EQ(Encode(ParseResult(valid)->relation), valid);

  EXPECT_FALSE(ParseResult("").has_value());
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(ParseResult(valid.substr(0, cut)).has_value()) << cut;
  }
  EXPECT_FALSE(ParseResult(valid + "x").has_value());  // trailing bytes

  auto with_code = [&](uint32_t code) {
    std::string out = valid;
    out.resize(out.size() - 4);
    PutU32(&out, code);
    return out;
  };
  EXPECT_FALSE(ParseResult(with_code(1)).has_value());  // past the dict
  EXPECT_FALSE(ParseResult(with_code(0xffffffffu)).has_value());

  std::string bad_tag = valid;
  bad_tag[header.size() + 8] = 4;
  EXPECT_FALSE(ParseResult(bad_tag).has_value());
  std::string bad_type = valid;
  bad_type[4] = 9;  // the declared type of the first attribute
  EXPECT_FALSE(ParseResult(bad_type).has_value());

  // Non-canonical dictionaries: an unused entry, a repeated entry, and
  // codes out of first-occurrence order.
  auto two_rows = [&](const std::vector<std::string>& dict, uint32_t c0,
                      uint32_t c1) {
    std::string out = header;
    PutU64(&out, 2);
    out += std::string("\3\3", 2);
    PutU32(&out, static_cast<uint32_t>(dict.size()));
    for (const std::string& s : dict) PutStr(&out, s);
    PutU32(&out, c0);
    PutU32(&out, c1);
    return out;
  };
  ASSERT_TRUE(ParseResult(two_rows({"x", "y"}, 0, 1)).has_value());
  ASSERT_TRUE(ParseResult(two_rows({"x"}, 0, 0)).has_value());
  EXPECT_FALSE(ParseResult(two_rows({"x", "y"}, 0, 0)).has_value());
  EXPECT_FALSE(ParseResult(two_rows({"x", "x"}, 0, 1)).has_value());
  EXPECT_FALSE(ParseResult(two_rows({"x", "y"}, 1, 0)).has_value());

  // A string length beyond the payload.
  std::string long_str = header;
  PutU64(&long_str, 1);
  long_str.push_back(3);
  PutU32(&long_str, 1);
  PutU32(&long_str, 0xffffffffu);
  long_str += "x";
  EXPECT_FALSE(ParseResult(long_str).has_value());
}

// A declared count far beyond the remaining payload must be rejected
// before anything is allocated for it.
TEST(ProtocolTest, HugeDeclaredCountsAreRejectedWithoutAllocating) {
  std::string rows = ResultHeader(Schema({{"a", ValueType::kInt}}));
  PutU64(&rows, std::numeric_limits<uint64_t>::max());
  rows.push_back(1);
  EXPECT_FALSE(ParseResult(rows).has_value());
  std::string no_cols = ResultHeader(Schema{});
  PutU64(&no_cols, uint64_t{1} << 40);
  EXPECT_FALSE(ParseResult(no_cols).has_value());
  std::string attrs;
  PutU32(&attrs, 0xffffffffu);
  EXPECT_FALSE(ParseResult(attrs).has_value());
  std::string utilities;
  PutU32(&utilities, 0);
  PutU32(&utilities, 0x20000000u);
  EXPECT_FALSE(ParseResult(utilities).has_value());
  std::string dict = ResultHeader(Schema({{"s", ValueType::kString}}));
  PutU64(&dict, 1);
  dict.push_back(3);
  PutU32(&dict, 0xffffffffu);
  EXPECT_FALSE(ParseResult(dict).has_value());
}

TEST(ProtocolTest, InsertRowsRoundTrip) {
  Tuple row{Value(), Value(std::numeric_limits<int64_t>::min()), Value(-0.0),
            Value(std::string("a\0b", 3))};
  std::string payload = SerializeInsert("car", row);
  auto parsed = ParseInsert(payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->table, "car");
  ASSERT_EQ(parsed->row.size(), row.size());
  EXPECT_TRUE(parsed->row[0].is_null());
  EXPECT_EQ(parsed->row[1], row[1]);
  EXPECT_TRUE(parsed->row[2].is_double() &&
              std::signbit(parsed->row[2].as_double()));
  EXPECT_EQ(parsed->row[3], row[3]);
  EXPECT_FALSE(ParseInsert(payload + "x").has_value());
  EXPECT_FALSE(ParseInsert(payload.substr(0, payload.size() - 1)).has_value());
  EXPECT_FALSE(ParseInsert("").has_value());
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

TEST(ServerTest, CountsEncodedResultBytesAndTime) {
  ServedEngine served;
  Client client = served.Connect();
  ServerStats before = served.server_->stats();
  EXPECT_EQ(before.result_bytes, 0u);
  EXPECT_EQ(before.encode_ns, 0u);
  client.SendRawBytes(
      EncodeTaggedFrame(1, Frame{FrameType::kQuery, kMixQueries[0]}));
  Frame reply = client.ReadResponse();
  ASSERT_EQ(reply.type, FrameType::kResult);
  ServerStats after = served.server_->stats();
  EXPECT_EQ(after.result_bytes, reply.payload.size());
  EXPECT_GT(after.encode_ns, 0u);
  // Acknowledgements, handles and errors are not result frames.
  ASSERT_TRUE(client.Ping().ok);
  ASSERT_FALSE(client.Query("SELECT nonsense").ok);
  ClientResponse sub =
      client.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  ASSERT_TRUE(sub.ok);
  std::optional<WireDelta> delta = client.ReadDelta(5000);
  ASSERT_TRUE(delta.has_value());
  // The encoding is canonical, so re-encoding the push gives its size.
  const size_t delta_bytes =
      SerializeDelta(delta->subscription, *delta).size();
  ServerStats pushed = served.server_->stats();
  EXPECT_EQ(pushed.result_bytes, reply.payload.size() + delta_bytes);
  EXPECT_GT(pushed.encode_ns, after.encode_ns);
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
  const std::string valid = SerializeInsert("car", Tuple{Value(1)});
  std::string bad_tag = valid;
  bad_tag[bad_tag.size() - 13] = 7;  // the row's tag, before 8 + 4 bytes
  std::string two_rows;
  PutStr(&two_rows, "car");
  PutU32(&two_rows, 0);
  PutU64(&two_rows, 2);
  two_rows += std::string(2, '\0');
  for (const std::string& payload :
       {std::string("car"), valid.substr(0, valid.size() - 1), valid + "x",
        bad_tag, two_rows}) {
    EXPECT_EQ(client.RoundTrip(Frame{FrameType::kInsert, payload}).error.code,
              psql::ErrorCode::kProtocol);
  }
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
