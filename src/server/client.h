// Client for the prefdb wire protocol — the counterpart of server.h,
// used by the tests, the load driver (bench/bench_server.cc) and example
// programs. One connection = one server session; the client must not be
// shared across threads without external serialization (drivers open one
// Client per thread).
//
// Every request is tagged with a fresh request id (protocol.h), and the
// client exposes two surfaces over one socket:
//
//   async     Send*(...) writes the request immediately and returns a
//             ResponseFuture. Many futures may be outstanding at once
//             (pipelining); responses are routed back by request id, so
//             completion order does not matter. Futures are lazily
//             pumped: the socket is only read inside Get()/ready(), on
//             the caller's thread — there is no background thread.
//   blocking  Query()/Prepare()/... are one-liners over the async
//             surface (Send + Get), preserving the original
//             request/response API.

#ifndef PREFDB_SERVER_CLIENT_H_
#define PREFDB_SERVER_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "psql/error.h"
#include "relation/relation.h"
#include "server/protocol.h"
#include "server/session_options.h"

namespace prefdb::server {

/// Outcome of one request. Transport failures (connection reset, a frame
/// that fails to parse) throw std::runtime_error instead — after that the
/// connection is unusable. Server-reported errors land here.
struct ClientResponse {
  bool ok = false;
  /// Set when !ok.
  psql::QueryError error;
  /// kResult responses: the result set.
  Relation relation;
  std::vector<double> utilities;
  std::string kernel;
  /// kOk responses: the acknowledgement text ("pong", the SET echo, ...).
  std::string info;
  /// kPrepare responses: the prepared-statement handle.
  uint64_t handle = 0;
};

class Client {
 public:
  /// Handle for one in-flight request. Get() blocks until THIS request's
  /// response arrives, reading the socket and routing any other frames
  /// that land first (other requests' responses into their futures,
  /// kDelta pushes into the session stash). Get() a second time returns
  /// the cached response. Futures may outlive the order they were
  /// created in, but not the Client.
  class ResponseFuture {
   public:
    ResponseFuture() = default;
    ClientResponse Get();
    /// True once the response has been received (never reads the
    /// socket).
    bool ready() const;
    uint64_t request_id() const { return request_id_; }

   private:
    friend class Client;
    struct Slot;
    ResponseFuture(Client* client, uint64_t request_id,
                   std::shared_ptr<Slot> slot)
        : client_(client), request_id_(request_id), slot_(std::move(slot)) {}

    Client* client_ = nullptr;
    uint64_t request_id_ = 0;
    std::shared_ptr<Slot> slot_;
  };

  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects over TCP; throws std::runtime_error on failure.
  void Connect(const std::string& host, uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void Close();

  // --- async surface (pipelining) ------------------------------------
  ResponseFuture SendQuery(const std::string& sql);
  ResponseFuture SendPrepare(const std::string& sql);
  ResponseFuture SendRun(uint64_t handle);
  ResponseFuture SendSet(const std::string& name, const std::string& value);
  ResponseFuture SendInsert(const std::string& table, const Tuple& row);
  ResponseFuture SendSubscribe(const std::string& sql);
  ResponseFuture SendPing();

  // --- blocking surface (Send + Get) ----------------------------------
  /// Executes one Preference SQL statement.
  ClientResponse Query(const std::string& sql) { return SendQuery(sql).Get(); }
  /// Server-side prepared statement; Run() it by handle.
  ClientResponse Prepare(const std::string& sql) {
    return SendPrepare(sql).Get();
  }
  ClientResponse Run(uint64_t handle) { return SendRun(handle).Get(); }
  /// Session option ("timeout_ms", "algorithm", "simd",
  /// "max_pending_deltas"; see server/session_options.h).
  ClientResponse Set(const std::string& name, const std::string& value) {
    return SendSet(name, value).Get();
  }
  /// Applies a whole SessionOptions (one SET round-trip per field);
  /// throws on the first server-rejected option.
  void Configure(const SessionOptions& options);
  /// Appends one row to a table.
  ClientResponse Insert(const std::string& table, const Tuple& row) {
    return SendInsert(table, row).Get();
  }
  /// Opens a continuous query (`SELECT * FROM t [WHERE ...] PREFERRING
  /// ...`); `handle` in the response is the subscription id stamped on
  /// every kDelta push. The first delta is a resync snapshot of the
  /// current result.
  ClientResponse Subscribe(const std::string& sql) {
    return SendSubscribe(sql).Get();
  }
  /// Consumes the next delta push (any subscription of this session):
  /// stashed frames first, else waits up to `timeout_ms` for one on the
  /// wire. Responses to still-outstanding pipelined requests that arrive
  /// while waiting are routed to their futures. nullopt on timeout;
  /// throws on transport error or a malformed frame.
  std::optional<WireDelta> ReadDelta(uint64_t timeout_ms);
  /// Deltas stashed by interleaved request/response traffic, readable
  /// without touching the socket.
  size_t stashed_deltas() const { return pending_deltas_.size(); }
  ClientResponse Ping() { return SendPing().Get(); }
  /// Polite close: tells the server, waits for the ack, closes the fd.
  ClientResponse Goodbye();

  // --- test/debug surface ---------------------------------------------
  /// Sends an arbitrary frame (even a malformed one) and reads back the
  /// server's single response. The frame is tagged with a fresh request
  /// id and the response's tag is stripped; SendRawBytes controls the
  /// exact bytes on the wire.
  ClientResponse RoundTrip(const Frame& frame);
  /// Sends raw bytes as-is (for malformed-header tests).
  void SendRawBytes(const std::string& bytes);
  /// Reads one frame off the socket and strips its request id (stored in
  /// `*request_id` when non-null); throws on transport error/EOF (closing
  /// the client) or a payload too short for the id. Bypasses response
  /// routing — do not mix with outstanding futures.
  Frame ReadResponse(uint64_t* request_id = nullptr);

 private:
  ResponseFuture Send(const Frame& frame);
  /// Reads one frame and routes it: a delta is stashed, a response
  /// resolves its future. A kError tagged kNoRequestId is a
  /// connection-level fault (session limit, unframable stream): the
  /// client closes and throws psql::ServerError carrying the server's
  /// message.
  void PumpOne();
  static ClientResponse ParseResponse(Frame reply);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::unordered_map<uint64_t, std::shared_ptr<ResponseFuture::Slot>>
      outstanding_;
  /// kDelta frames that arrived while a request was waiting for its
  /// response (the server pushes asynchronously); drained by ReadDelta.
  std::deque<WireDelta> pending_deltas_;
};

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_CLIENT_H_
