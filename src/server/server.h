// The prefdb preference query server: concurrent serving on the Engine
// seam. One shared prefdb::Engine (plan/exec caches, COW snapshots) behind
// a TCP front end speaking the length-prefixed, request-id tagged
// protocol of protocol.h (pipelined: many requests in flight per
// connection).
//
// Architecture (all threads owned by the Server):
//
//   event loop      ONE thread multiplexing the listener and every
//                   connection through edge-triggered epoll. It owns all
//                   socket I/O: non-blocking reads feed a per-connection
//                   FrameAssembler (partial-frame reassembly), writes
//                   drain a per-connection out-buffer (EPOLLOUT armed
//                   only under backpressure) — so all writes on a
//                   connection are serialized by construction. Reads are
//                   bounded both per pass (loop fairness: one line-rate
//                   connection cannot pin the loop) and by the reader:
//                   a connection whose out-buffer exceeds
//                   max_outbuf_bytes is not read (and its delta drains
//                   are deferred) until the client consumes what is
//                   already owed, so a non-reading pipeliner cannot
//                   grow server memory without bound. Sessions
//                   (SessionOptions, prepared handles, subscriptions)
//                   are plain event-loop state: no per-session thread,
//                   no per-session read stack, which is what lifts the
//                   practical connection count.
//   worker pool     num_workers threads draining a bounded job queue;
//                   queries/runs/inserts are admitted here, tagged with
//                   (connection, request_id). A completion re-checks the
//                   in-flight table under the connection's out-buffer
//                   lock, appends the encoded response, and signals the
//                   loop's eventfd — late results for a request already
//                   answered (TIMEOUT) or a connection already gone are
//                   dropped. A full queue rejects with OVERLOADED
//                   (backpressure, not buffering); a query that misses
//                   its deadline while queued is answered TIMEOUT
//                   without ever executing, and one still running at
//                   the deadline is answered TIMEOUT by the loop's
//                   deadline timer while the worker's result is
//                   discarded on completion.
//   delta push      no pusher threads: each subscription's delta queue
//                   carries a notifier (ivm::SubscriptionState hook)
//                   that flags the connection and signals the eventfd;
//                   the event loop drains via Poll() and appends kDelta
//                   frames — tagged with the request id of the
//                   kSubscribe that opened the stream — to the same
//                   out-buffer as responses. A slow subscriber's backlog
//                   is still coalesced engine-side into one resync
//                   snapshot (max_pending_deltas).
//
// With many requests pipelined on one connection, responses come back in
// completion order, not request order — the request id is the client's
// correlation key.
//
// Reads are snapshot-consistent: a query executes against the relation
// snapshot its exec-cache entry was compiled for, so INSERT frames racing
// concurrent queries are safe (each query sees a consistent old-or-new
// state — the Engine's COW contract).
//
// Stop() is graceful: stop accepting, shut every connection's read side,
// let every admitted query finish and flush its response, then retire
// the workers.

#ifndef PREFDB_SERVER_SERVER_H_
#define PREFDB_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "engine/engine.h"

namespace prefdb::server {

struct ServerOptions {
  /// Bind address. Tests and local serving use the loopback default.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Query-execution workers (0 = hardware concurrency).
  size_t num_workers = 0;
  /// Concurrent-connection cap; connections beyond it are turned away
  /// with an OVERLOADED error frame tagged kNoRequestId, then closed.
  size_t max_sessions = 4096;
  /// Bound on queries admitted but not yet executing. A full queue is
  /// backpressure: new queries get an OVERLOADED error immediately.
  size_t queue_capacity = 1024;
  /// Per-query deadline in milliseconds (0 = none). Sessions may lower
  /// or raise their own via "SET timeout_ms=<n>".
  uint64_t query_timeout_ms = 30000;
  /// Frames larger than this are answered with an OVERSIZED error and
  /// the connection is closed (the remainder of the stream cannot be
  /// skipped cheaply).
  size_t max_frame_bytes = 1 << 20;
  /// Per-connection cap on buffered-but-unsent response bytes. While a
  /// connection's out-buffer holds at least this much, the server stops
  /// reading its requests and defers its delta pushes until the client
  /// drains — a pipelining client that never reads its socket cannot
  /// grow server memory without bound. The cap bounds accumulation, not
  /// a single frame: one response larger than it still buffers whole.
  size_t max_outbuf_bytes = 8 << 20;
  /// Per-subscription bound on deltas queued server-side for a slow
  /// subscriber before the backlog is coalesced into one resync snapshot
  /// (0 = the engine's EngineOptions::max_pending_deltas default).
  /// Sessions may override their own via "SET max_pending_deltas=<n>".
  size_t max_pending_deltas = 0;
  /// Starting BmoOptions for every session. Workers already provide the
  /// serving-side parallelism, so per-query kernels default to one
  /// thread; sessions opt into more via "SET threads=<n>".
  BmoOptions session_bmo = DefaultSessionBmo();
  /// Test hook: artificial per-query execution delay (milliseconds),
  /// applied in the worker before the engine call. Lets admission and
  /// timeout paths be exercised deterministically.
  uint64_t debug_execute_delay_ms = 0;
  /// Test hook: when nonempty, debug_execute_delay_ms applies only to
  /// queries whose SQL contains this substring — pins one pipelined
  /// request slow so out-of-order completion is deterministic.
  std::string debug_delay_substring;
  /// Test hook: minimum interval (milliseconds) between delta-drain
  /// passes for a connection — simulates a slow subscriber so the
  /// engine-side queue overflow / coalesced-resync path is exercised
  /// deterministically.
  uint64_t debug_push_delay_ms = 0;

  static BmoOptions DefaultSessionBmo() {
    BmoOptions bmo;
    bmo.num_threads = 1;
    bmo.parallel_threshold = SIZE_MAX;  // workers are the parallelism
    return bmo;
  }
};

/// Monotonic counters, readable while serving. Snapshot semantics.
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_rejected = 0;
  /// Queries answered with a result frame.
  uint64_t queries_ok = 0;
  /// Queries answered with a classified error frame (syntax etc.).
  uint64_t queries_error = 0;
  /// Queries rejected by admission control (bounded queue full).
  uint64_t queries_rejected_overload = 0;
  /// Queries answered TIMEOUT (queued past or running past deadline).
  uint64_t queries_timeout = 0;
  /// Malformed / unknown / oversized frames seen.
  uint64_t protocol_errors = 0;
  /// High-water mark of the admission queue.
  uint64_t peak_queue_depth = 0;
  /// Read passes suspended because a connection's out-buffer exceeded
  /// max_outbuf_bytes (reading resumes once the client drains it).
  uint64_t read_pauses = 0;
  /// Subscriptions accepted (kSubscribe answered with a handle).
  uint64_t subscriptions_opened = 0;
  /// kDelta frames pushed to clients (resyncs included).
  uint64_t deltas_pushed = 0;
};

/// A running server. Start() spawns the threads; Stop() (or destruction)
/// drains them. The Engine outlives the Server and may also be used
/// directly by the embedding process while serving.
class Server {
 public:
  Server(Engine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns accept/worker threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void Start();

  /// Graceful shutdown: stop accepting, complete and flush every
  /// admitted query, close all sessions, join all threads. Idempotent.
  void Stop();

  bool running() const;
  /// The bound TCP port (valid after Start()).
  uint16_t port() const;
  ServerStats stats() const;
  Engine& engine();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_SERVER_H_
