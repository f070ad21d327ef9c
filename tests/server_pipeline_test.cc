// Pipelining tests: request-id tagged frames with out-of-order
// completion routed by the epoll event loop, duplicate/zero/unknown
// request-id protocol errors, connection-level faults tagged
// kNoRequestId, partial-frame reassembly under byte-dribble writes, and
// the FrameAssembler unit surface. Part of CI's TSan matrix job: the event
// loop / worker pool / async client interplay must be data-race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "datagen/cars.h"
#include "psql/error.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/session_options.h"
#include "server/wire_io.h"

namespace prefdb::server {
namespace {

const char* kHost = "127.0.0.1";

const char* kMixQueries[] = {
    "SELECT * FROM car PREFERRING LOWEST(price)",
    "SELECT oid, price, mileage FROM car "
    "PREFERRING LOWEST(price) AND LOWEST(mileage)",
    "SELECT * FROM car PREFERRING LOWEST(price) GROUPING category",
    "SELECT TOP 5 oid, price FROM car PREFERRING LOWEST(price)",
    "SELECT oid FROM car WHERE price < 42000 LIMIT 5",
};

class PipelineFixture : public ::testing::Test {
 protected:
  virtual ServerOptions Options() { return ServerOptions{}; }
  void SetUp() override {
    engine_.RegisterTable("car", GenerateCars(1000, 11));
    reference_.RegisterTable("car", GenerateCars(1000, 11));
    server_ = std::make_unique<Server>(&engine_, Options());
    server_->Start();
  }
  Client Connect() {
    Client client;
    client.Connect(kHost, server_->port());
    return client;
  }
  psql::QueryResult Reference(const std::string& sql) {
    return reference_.Execute(sql, ServerOptions::DefaultSessionBmo());
  }
  Engine engine_;
  Engine reference_;
  std::unique_ptr<Server> server_;
};

// --- codec ---------------------------------------------------------------

TEST(TaggedFrameTest, TaggedFrameRoundTrips) {
  Frame frame{FrameType::kQuery, "SELECT * FROM car"};
  std::string wire = EncodeTaggedFrame(0x0123456789abcdefULL, frame);
  FrameAssembler assembler(1 << 20);
  assembler.Append(wire.data(), wire.size());
  Frame decoded;
  ASSERT_EQ(assembler.TryNext(&decoded), FrameAssembler::Next::kFrame);
  EXPECT_EQ(assembler.buffered(), 0u);
  uint64_t request_id = 0;
  ASSERT_TRUE(DecodeTaggedPayload(&decoded, &request_id));
  EXPECT_EQ(request_id, 0x0123456789abcdefULL);
  EXPECT_EQ(decoded.type, frame.type);
  EXPECT_EQ(decoded.payload, frame.payload);
}

TEST(TaggedFrameTest, ShortPayloadFailsToDecode) {
  Frame frame{FrameType::kQuery, "1234567"};  // 7 bytes < the 8-byte id
  uint64_t request_id = 0;
  EXPECT_FALSE(DecodeTaggedPayload(&frame, &request_id));
}

// --- FrameAssembler units --------------------------------------------------

TEST(FrameAssemblerTest, ReassemblesFromSingleBytes) {
  Frame a{FrameType::kPing, ""};
  Frame b{FrameType::kQuery, "SELECT 1"};
  std::string wire = EncodeFrame(a) + EncodeTaggedFrame(7, b);
  FrameAssembler assembler(1 << 20);
  std::vector<Frame> seen;
  for (char c : wire) {
    assembler.Append(&c, 1);
    Frame frame;
    while (assembler.TryNext(&frame) == FrameAssembler::Next::kFrame) {
      seen.push_back(frame);
    }
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].type, FrameType::kPing);
  EXPECT_EQ(seen[1].type, FrameType::kQuery);
  uint64_t request_id = 0;
  ASSERT_TRUE(DecodeTaggedPayload(&seen[1], &request_id));
  EXPECT_EQ(request_id, 7u);
  EXPECT_EQ(seen[1].payload, "SELECT 1");
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssemblerTest, OversizedFrameConsumesHeaderAndReportsLength) {
  FrameAssembler assembler(16);
  std::string wire = EncodeFrame(Frame{FrameType::kQuery,
                                       std::string(100, 'x')});
  assembler.Append(wire.data(), wire.size());
  Frame frame;
  uint32_t oversized_len = 0;
  EXPECT_EQ(assembler.TryNext(&frame, &oversized_len),
            FrameAssembler::Next::kOversized);
  EXPECT_EQ(oversized_len, 100u);
}

TEST(ReadAvailableTest, CapsBytesPerPassAndDrainsOnTheNext) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetNonBlocking(fds[0]));
  constexpr size_t kPayload = 160 * 1024;  // fits default socket buffers
  ASSERT_TRUE(WriteFully(fds[1], std::string(kPayload, 'x')));
  FrameAssembler assembler(1 << 20);
  size_t bytes_read = 0;
  // The capped pass stops once the fairness budget is consumed, well
  // before EAGAIN — the event loop's guard against one hot connection.
  EXPECT_EQ(ReadAvailable(fds[0], &assembler, 64 * 1024, &bytes_read),
            IoStatus::kWouldBlock);
  EXPECT_GE(bytes_read, 64 * 1024u);
  EXPECT_LT(bytes_read, kPayload);
  // An uncapped follow-up drains the remainder; nothing was lost.
  size_t rest = 0;
  EXPECT_EQ(ReadAvailable(fds[0], &assembler, SIZE_MAX, &rest),
            IoStatus::kWouldBlock);
  EXPECT_EQ(bytes_read + rest, kPayload);
  EXPECT_EQ(assembler.buffered(), kPayload);
  close(fds[0]);
  close(fds[1]);
}

// --- pipelining ------------------------------------------------------------

class TwoWorkerFixture : public PipelineFixture {
 protected:
  ServerOptions Options() override {
    ServerOptions options;
    // The out-of-order test needs real execution overlap: one worker
    // pinned on the delayed query while another answers the fast one.
    options.num_workers = 2;
    options.debug_execute_delay_ms = 400;
    options.debug_delay_substring = "mileage";  // only the slow query
    return options;
  }
};

TEST_F(TwoWorkerFixture, ResponsesCompleteOutOfOrder) {
  Client client = Connect();
  const char* slow_sql = kMixQueries[1];  // contains "mileage"
  const char* fast_sql = kMixQueries[4];
  Client::ResponseFuture slow = client.SendQuery(slow_sql);
  Client::ResponseFuture fast = client.SendQuery(fast_sql);
  ClientResponse fast_response = fast.Get();
  // The fast query's response arrived while the slow one was still
  // executing — the whole point of tagging frames with request ids.
  EXPECT_FALSE(slow.ready());
  ASSERT_TRUE(fast_response.ok) << fast_response.error.message;
  EXPECT_TRUE(fast_response.relation == Reference(fast_sql).relation);
  ClientResponse slow_response = slow.Get();
  ASSERT_TRUE(slow_response.ok) << slow_response.error.message;
  EXPECT_TRUE(slow_response.relation == Reference(slow_sql).relation);
  EXPECT_TRUE(client.Goodbye().ok);
}

TEST_F(PipelineFixture, DepthEightPipelineMatchesSequentialReference) {
  Client client = Connect();
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Client::ResponseFuture> futures;
    futures.reserve(std::size(kMixQueries));
    for (const char* sql : kMixQueries) {
      futures.push_back(client.SendQuery(sql));
    }
    // Resolve in reverse order: Get() must route earlier responses into
    // their futures while hunting for the last one.
    for (size_t i = futures.size(); i-- > 0;) {
      ClientResponse response = futures[i].Get();
      ASSERT_TRUE(response.ok) << kMixQueries[i] << ": "
                               << response.error.message;
      EXPECT_TRUE(response.relation == Reference(kMixQueries[i]).relation)
          << kMixQueries[i];
    }
  }
  ServerStats stats = server_->stats();
  EXPECT_EQ(stats.queries_ok,
            static_cast<uint64_t>(kRounds * std::size(kMixQueries)));
  EXPECT_TRUE(client.Goodbye().ok);
}

TEST_F(PipelineFixture, PipelinedSessionMixesQueriesAndSubscriptions) {
  Client client = Connect();
  ClientResponse sub =
      client.Subscribe("SELECT * FROM car PREFERRING LOWEST(price)");
  ASSERT_TRUE(sub.ok);
  ASSERT_TRUE(client.ReadDelta(2000).has_value());  // bootstrap resync
  // Pipeline an insert with queries; the insert's delta must arrive on
  // the same connection without desynchronizing response routing.
  Client::ResponseFuture q1 = client.SendQuery(kMixQueries[0]);
  // Matches the GenerateCars schema; price 1 undercuts the skyline so the
  // insert is guaranteed to produce a delta.
  Client::ResponseFuture ins = client.SendInsert(
      "car",
      Tuple{Value(static_cast<int64_t>(1000000)), Value("Ford"),
            Value("roadster"), Value("red"), Value("manual"),
            Value(static_cast<int64_t>(1)), Value(static_cast<int64_t>(1)),
            Value(static_cast<int64_t>(90)),
            Value(static_cast<int64_t>(2020)), Value(7.5),
            Value(static_cast<int64_t>(3)),
            Value(static_cast<int64_t>(500))});
  Client::ResponseFuture q2 = client.SendQuery(kMixQueries[4]);
  EXPECT_TRUE(q1.Get().ok);
  EXPECT_TRUE(ins.Get().ok);
  EXPECT_TRUE(q2.Get().ok);
  auto delta = client.ReadDelta(2000);
  ASSERT_TRUE(delta.has_value());
  EXPECT_EQ(delta->subscription, sub.handle);
  EXPECT_TRUE(client.Goodbye().ok);
}

// --- goodbye drains in-flight work -------------------------------------------

class SlowWorkerFixture : public PipelineFixture {
 protected:
  ServerOptions Options() override {
    ServerOptions options;
    options.num_workers = 1;  // later inserts queue behind the first
    options.debug_execute_delay_ms = 100;
    return options;
  }
};

TEST_F(SlowWorkerFixture, GoodbyeDrainsPipelinedInFlightRequests) {
  Client client = Connect();
  // Three slow inserts pipelined ahead of the goodbye: with one worker,
  // the later two are still queued when the goodbye frame dispatches.
  // Every one must execute and flush its ack before the bye — a "send
  // work, send goodbye" client may never lose writes silently.
  std::vector<Client::ResponseFuture> inserts;
  for (int64_t i = 0; i < 3; ++i) {
    inserts.push_back(client.SendInsert(
        "car",
        Tuple{Value(static_cast<int64_t>(2000000 + i)), Value("Ford"),
              Value("roadster"), Value("red"), Value("manual"),
              Value(static_cast<int64_t>(999000 + i)),
              Value(static_cast<int64_t>(999999)),
              Value(static_cast<int64_t>(90)),
              Value(static_cast<int64_t>(2020)), Value(7.5),
              Value(static_cast<int64_t>(3)),
              Value(static_cast<int64_t>(500))}));
  }
  // Goodbye() pumps the socket: the insert acks route to their futures
  // while it waits for the deferred bye.
  ClientResponse bye = client.Goodbye();
  ASSERT_TRUE(bye.ok) << bye.error.message;
  EXPECT_EQ(bye.info, "bye");
  for (auto& future : inserts) {
    ASSERT_TRUE(future.ready());  // answered before, not instead of, the bye
    EXPECT_TRUE(future.Get().ok);
  }
  // The inserts actually executed, not just got acked.
  psql::QueryResult all =
      engine_.Execute("SELECT oid FROM car WHERE price >= 999000",
                      ServerOptions::DefaultSessionBmo());
  EXPECT_EQ(all.relation.size(), 3u);
}

// --- out-buffer backpressure -------------------------------------------------

class TinyOutBufFixture : public PipelineFixture {
 protected:
  ServerOptions Options() override {
    ServerOptions options;
    options.max_outbuf_bytes = 64 * 1024;
    return options;
  }
};

TEST_F(TinyOutBufFixture, NonReadingPipelinerPausesReadsAndLosesNothing) {
  Client client = Connect();
  // Full-table scans (~100 KB serialized each) pipelined in rounds while
  // the client reads nothing back. Once the kernel socket buffers fill,
  // pending responses pile up server-side past the 64 KiB cap, so a
  // later round's read pass must find reading paused — bounded memory
  // instead of an out-buffer growing with every unread response.
  const char* sql = "SELECT * FROM car WHERE price >= 0 LIMIT 1000";
  constexpr int kRounds = 30;
  constexpr int kPerRound = 10;
  std::vector<Client::ResponseFuture> futures;
  futures.reserve(kRounds * kPerRound);
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      futures.push_back(client.SendQuery(sql));
    }
    // Wait until this round's responses sit in the out-buffer (queries_ok
    // counts a response in the same critical section that appends it), so
    // the next round's read pass sees a fixed backlog however fast the
    // worker runs. A paused connection reads no further requests, so the
    // wait ends there too.
    const uint64_t answered = static_cast<uint64_t>((round + 1) * kPerRound);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (server_->stats().queries_ok < answered &&
           server_->stats().read_pauses == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GT(server_->stats().read_pauses, 0u);
  // Backpressure deferred — not dropped — the paused requests: draining
  // the socket releases every response intact.
  psql::QueryResult expected = Reference(sql);
  for (auto& future : futures) {
    ClientResponse response = future.Get();
    ASSERT_TRUE(response.ok) << response.error.message;
    EXPECT_TRUE(response.relation == expected.relation);
  }
  EXPECT_TRUE(client.Goodbye().ok);
  EXPECT_EQ(server_->stats().queries_ok,
            static_cast<uint64_t>(kRounds * kPerRound));
}

// --- request-id protocol errors ---------------------------------------------

TEST_F(TwoWorkerFixture, DuplicateInFlightRequestIdIsRejected) {
  Client client = Connect();
  // Pin request id 7 on the delayed query, then reuse it while it is
  // still executing. The duplicate is answered immediately with a
  // protocol error; the original completes normally afterwards.
  client.SendRawBytes(EncodeTaggedFrame(7, Frame{FrameType::kQuery,
                                                 kMixQueries[1]}));
  client.SendRawBytes(EncodeTaggedFrame(7, Frame{FrameType::kPing, ""}));
  Frame first = client.ReadResponse();
  ASSERT_EQ(first.type, FrameType::kError);
  psql::QueryError error = psql::DeserializeError(first.payload);
  EXPECT_EQ(error.code, psql::ErrorCode::kProtocol);
  EXPECT_NE(error.message.find("already in flight"), std::string::npos);
  Frame second = client.ReadResponse();
  EXPECT_EQ(second.type, FrameType::kResult);
  // The connection survives the duplicate.
  client.SendRawBytes(EncodeTaggedFrame(8, Frame{FrameType::kPing, ""}));
  EXPECT_EQ(client.ReadResponse().type, FrameType::kOk);
}

TEST_F(PipelineFixture, ZeroRequestIdIsRejectedAndCloses) {
  // Id 0 tags connection-level faults, so a request carrying it is one:
  // the server answers with an id-0 protocol error, then closes, exactly
  // as the client treats every id-0 error.
  Client client = Connect();
  client.SendRawBytes(EncodeTaggedFrame(kNoRequestId,
                                        Frame{FrameType::kPing, ""}));
  Frame reply = client.ReadResponse();
  ASSERT_EQ(reply.type, FrameType::kError);
  EXPECT_EQ(psql::DeserializeError(reply.payload).code,
            psql::ErrorCode::kProtocol);
  EXPECT_THROW(client.ReadResponse(), std::runtime_error);
}

TEST_F(PipelineFixture, UntaggedV2FrameClosesTheConnection) {
  const std::string inputs[] = {
      // A 3-byte payload cannot carry the 8-byte request id: unframable.
      EncodeFrame(Frame{FrameType::kQuery, "abc"}),
      // An old client's version hello ('V', payload "2") gets the same
      // answer: there is no negotiation to special-case it.
      EncodeFrame(Frame{static_cast<FrameType>('V'), "2"}),
  };
  for (const std::string& bytes : inputs) {
    Client client = Connect();
    client.SendRawBytes(bytes);
    Frame reply = client.ReadResponse();
    ASSERT_EQ(reply.type, FrameType::kError);
    EXPECT_EQ(psql::DeserializeError(reply.payload).code,
              psql::ErrorCode::kProtocol);
    EXPECT_THROW(client.ReadResponse(), std::runtime_error);
  }
}

/// A hand-rolled one-connection server on an ephemeral loopback port:
/// `script` runs on its own thread against the accepted fd, so a test
/// can put arbitrary bytes in front of a real Client.
class Impostor {
 public:
  explicit Impostor(std::function<void(int fd)> script) {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listen_fd_ < 0 ||
        bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        listen(listen_fd_, 1) != 0 ||
        getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      if (listen_fd_ >= 0) close(listen_fd_);
      throw std::runtime_error("impostor listener setup failed");
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, script = std::move(script)] {
      int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      script(fd);
      close(fd);
    });
  }
  Impostor(const Impostor&) = delete;
  Impostor& operator=(const Impostor&) = delete;
  ~Impostor() {
    // Wakes a still-blocked accept() if the test failed before
    // connecting; a no-op once the connection was accepted.
    shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
    close(listen_fd_);
  }
  uint16_t port() const { return port_; }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientRoutingTest, UnknownRequestIdOnTheWireThrows) {
  // Answers request 1 with a response tagged 999: the client must refuse
  // to guess.
  Impostor impostor([](int fd) {
    Frame request;
    ASSERT_EQ(ReadFrame(fd, &request, 1 << 20), ReadStatus::kOk);
    ASSERT_TRUE(WriteFully(
        fd, EncodeTaggedFrame(999, Frame{FrameType::kOk, "pong"})));
  });
  Client client;
  client.Connect(kHost, impostor.port());
  Client::ResponseFuture future = client.SendPing();
  EXPECT_THROW(future.Get(), psql::ProtocolError);
}

TEST(ClientRoutingTest, ConnectionLevelErrorThrowsWithTheServersMessage) {
  // Answers request 1 with an error tagged kNoRequestId: a fault no
  // request owns. Get() must surface it as a ServerError carrying the
  // server's message, not as an unknown-id routing failure.
  Impostor impostor([](int fd) {
    Frame request;
    ASSERT_EQ(ReadFrame(fd, &request, 1 << 20), ReadStatus::kOk);
    ASSERT_TRUE(WriteFully(
        fd, EncodeTaggedFrame(
                kNoRequestId,
                Frame{FrameType::kError,
                      psql::SerializeError(psql::QueryError{
                          psql::ErrorCode::kOverloaded,
                          "session limit reached (2)"})})));
  });
  Client client;
  client.Connect(kHost, impostor.port());
  Client::ResponseFuture future = client.SendPing();
  try {
    future.Get();
    ADD_FAILURE() << "Get() returned instead of throwing";
  } catch (const psql::ServerError& e) {
    EXPECT_NE(std::string(e.what()).find("session limit reached (2)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(client.connected());
}

// --- partial-frame reassembly over the wire ---------------------------------

TEST_F(PipelineFixture, ByteDribbledFramesAreReassembled) {
  Client client = Connect();
  std::string wire =
      EncodeTaggedFrame(3, Frame{FrameType::kQuery, kMixQueries[4]});
  // Force the frame across many reads: a few bytes per write with pauses
  // long enough that the event loop drains between them.
  size_t pos = 0;
  while (pos < wire.size()) {
    size_t chunk = std::min<size_t>(3, wire.size() - pos);
    client.SendRawBytes(wire.substr(pos, chunk));
    pos += chunk;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Frame reply = client.ReadResponse();
  ASSERT_EQ(reply.type, FrameType::kResult);
  auto parsed = ParseResult(reply.payload);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->relation == Reference(kMixQueries[4]).relation);
}

// --- SessionOptions ---------------------------------------------------------

TEST(SessionOptionsTest, AppliesAndSerializesTheWholeVocabulary) {
  SessionOptions options;
  EXPECT_EQ(options.Apply("timeout_ms", "1500"), "");
  EXPECT_EQ(options.timeout_ms, 1500u);
  EXPECT_EQ(options.Apply("algorithm", "sfs"), "");
  EXPECT_EQ(options.bmo.algorithm, BmoAlgorithm::kSortFilter);
  EXPECT_EQ(options.Apply("simd", "scalar"), "");
  EXPECT_EQ(options.Apply("max_pending_deltas", "8"), "");
  EXPECT_EQ(options.max_pending_deltas, 8u);

  EXPECT_NE(options.Apply("timeout_ms", "many"), "");
  // Counts are digits only: a sign or whitespace is rejected, not
  // negated or skipped, and a rejected value leaves the field untouched.
  for (const char* count : {"-1", "+5", " 5", ""}) {
    EXPECT_NE(options.Apply("timeout_ms", count), "") << "'" << count << "'";
    EXPECT_NE(options.Apply("max_pending_deltas", count), "")
        << "'" << count << "'";
  }
  EXPECT_EQ(options.timeout_ms, 1500u);
  EXPECT_EQ(options.max_pending_deltas, 8u);
  // A deadline past the cap would overflow now + timeout.
  EXPECT_EQ(options.Apply("timeout_ms",
                          std::to_string(SessionOptions::kMaxTimeoutMs)),
            "");
  EXPECT_NE(options.Apply("timeout_ms",
                          std::to_string(SessionOptions::kMaxTimeoutMs + 1)),
            "");
  EXPECT_NE(options.Apply("timeout_ms", "18446744073709551611"), "");
  EXPECT_EQ(options.timeout_ms, SessionOptions::kMaxTimeoutMs);
  EXPECT_EQ(options.Apply("timeout_ms", "1500"), "");
  EXPECT_NE(options.Apply("threads", "4"), "");
  EXPECT_NE(options.Apply("algorithm", "parallel"), "");
  EXPECT_NE(options.Apply("algorithm", "quantum"), "");
  EXPECT_NE(options.Apply("simd", "off"), "");
  EXPECT_NE(options.Apply("no_such_option", "1"), "");
  EXPECT_NE(options.ApplyWire("garbage"), "");

  // Serialize() round-trips through Apply() onto a fresh struct.
  SessionOptions copy;
  for (const auto& [name, value] : options.Serialize()) {
    EXPECT_EQ(copy.Apply(name, value), "") << name << "=" << value;
  }
  EXPECT_EQ(copy.timeout_ms, options.timeout_ms);
  EXPECT_EQ(copy.bmo.algorithm, options.bmo.algorithm);
  EXPECT_EQ(copy.bmo.simd, options.bmo.simd);
  EXPECT_EQ(copy.max_pending_deltas, options.max_pending_deltas);

  // Every algorithm and SIMD mode survives the round trip under its
  // BmoAlgorithmName / SimdModeName.
  for (BmoAlgorithm algorithm :
       {BmoAlgorithm::kAuto, BmoAlgorithm::kNaive,
        BmoAlgorithm::kBlockNestedLoop, BmoAlgorithm::kSortFilter}) {
    for (SimdMode simd :
         {SimdMode::kAuto, SimdMode::kScalar, SimdMode::kAvx2}) {
      SessionOptions sent;
      sent.bmo.algorithm = algorithm;
      sent.bmo.simd = simd;
      SessionOptions received;
      for (const auto& [name, value] : sent.Serialize()) {
        EXPECT_EQ(received.Apply(name, value), "") << name << "=" << value;
      }
      EXPECT_EQ(received.bmo.algorithm, algorithm)
          << BmoAlgorithmName(algorithm);
      EXPECT_EQ(received.bmo.simd, simd) << SimdModeName(simd);
    }
  }
}

TEST_F(PipelineFixture, ConfigureAppliesSessionOptionsOverTheWire) {
  Client client = Connect();
  SessionOptions options;
  options.bmo.algorithm = BmoAlgorithm::kBlockNestedLoop;
  options.timeout_ms = 10000;
  client.Configure(options);
  ClientResponse response = client.Query(kMixQueries[0]);
  ASSERT_TRUE(response.ok);
  EXPECT_TRUE(response.relation == Reference(kMixQueries[0]).relation);
}

// --- mixed pipelined load (TSan surface) ------------------------------------

TEST_F(PipelineFixture, SixteenPipelinedSessionsWithSubscriptionsStayCoherent) {
  constexpr size_t kSessions = 16;
  constexpr int kRounds = 3;
  std::vector<psql::QueryResult> expected;
  for (const char* sql : kMixQueries) expected.push_back(Reference(sql));

  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> sessions;
  sessions.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      Client client;
      client.Connect(kHost, server_->port());
      // Odd sessions also hold a subscription so delta pushes interleave
      // with pipelined responses on the same connections.
      if (s % 2 == 1) {
        if (!client
                 .Subscribe("SELECT * FROM car PREFERRING LOWEST(price)")
                 .ok) {
          failures.fetch_add(1);
        }
      }
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Client::ResponseFuture> futures;
        for (const char* sql : kMixQueries) {
          futures.push_back(client.SendQuery(sql));
        }
        for (size_t i = 0; i < futures.size(); ++i) {
          ClientResponse response = futures[i].Get();
          if (!response.ok) {
            failures.fetch_add(1);
          } else if (!(response.relation == expected[i].relation)) {
            mismatches.fetch_add(1);
          }
        }
      }
      client.Goodbye();
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server_->stats().queries_ok,
            kSessions * kRounds * std::size(kMixQueries));
}

}  // namespace
}  // namespace prefdb::server
