#include "server/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "psql/error.h"
#include "server/protocol.h"
#include "server/session_options.h"
#include "server/wire_io.h"

namespace prefdb::server {

namespace {

using Clock = std::chrono::steady_clock;

Frame ErrorFrame(psql::ErrorCode code, const std::string& message) {
  return Frame{FrameType::kError,
               psql::SerializeError(psql::QueryError{code, message})};
}

Frame ErrorFrame(const psql::QueryError& error) {
  return Frame{FrameType::kError, psql::SerializeError(error)};
}

bool IsTimeoutFrame(const Frame& frame) {
  return frame.type == FrameType::kError &&
         psql::DeserializeError(frame.payload).code ==
             psql::ErrorCode::kTimeout;
}

struct Connection;

/// One admitted unit of work, tagged with its completion route. A worker
/// produces the response frame and hands it back by (connection,
/// request_id); `abandoned` is set when the request was already answered
/// (deadline) or the connection died, letting the worker skip or discard
/// the execution.
struct Job {
  std::function<Frame()> work;
  Clock::time_point deadline{};
  bool has_deadline = false;
  uint64_t timeout_ms = 0;
  std::atomic<bool> abandoned{false};
  std::shared_ptr<Connection> conn;
  uint64_t request_id = 0;
};

/// The bounded admission queue. Push never blocks: a full queue is the
/// backpressure signal (OVERLOADED), not a place to wait.
class JobQueue {
 public:
  enum class PushResult { kAdmitted, kFull, kStopping };

  explicit JobQueue(size_t capacity) : capacity_(capacity) {}

  PushResult TryPush(std::shared_ptr<Job> job, uint64_t* peak_depth) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return PushResult::kStopping;
      if (jobs_.size() >= capacity_) return PushResult::kFull;
      jobs_.push_back(std::move(job));
      if (jobs_.size() > *peak_depth) *peak_depth = jobs_.size();
    }
    cv_.notify_one();
    return PushResult::kAdmitted;
  }

  /// Blocks for the next job; nullptr once stopping and drained.
  std::shared_ptr<Job> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
    if (jobs_.empty()) return nullptr;
    std::shared_ptr<Job> job = std::move(jobs_.front());
    jobs_.pop_front();
    return job;
  }

  /// Rejects new pushes; workers drain what is queued, then Pop()
  /// returns nullptr.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
  }

 private:
  const size_t capacity_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> jobs_;
  bool stopping_ = false;
};

/// Per-connection state. Everything here belongs to the event-loop
/// thread EXCEPT the block guarded by out_mu (shared with workers) and
/// deltas_pending (set by subscription notifiers on mutating threads).
struct Connection {
  explicit Connection(size_t max_frame_bytes)
      : assembler(max_frame_bytes) {}

  // --- event-loop-only state
  int fd = -1;
  uint64_t id = 0;
  /// Goodbye received / stream unframable: stop reading; close once
  /// in-flight work drains and the out-buffer flushes.
  bool draining = false;
  /// Peer EOF seen: close once in-flight work drains and flushes.
  bool read_shut = false;
  bool torn_down = false;
  bool want_write = false;  // EPOLLOUT armed
  /// Reading suspended: the out-buffer exceeded max_outbuf_bytes
  /// (backpressure). FlushAndSettle lifts it once the client drains.
  bool read_blocked = false;
  FrameAssembler assembler;
  SessionOptions options;
  std::unordered_map<uint64_t, PreparedQuery> handles;
  uint64_t next_handle = 1;

  struct Sub {
    Engine::Subscription handle;
    /// Echoed on this subscription's kDelta frames: the id of the
    /// kSubscribe that opened the stream.
    uint64_t request_id = 0;
  };
  std::list<Sub> subscriptions;
  /// Set by subscription notifiers (mutating threads, under the engine
  /// lock); cleared by the event loop's delta drain.
  std::atomic<bool> deltas_pending{false};
  /// debug_push_delay_ms pacing: no delta drain before this instant.
  Clock::time_point next_delta_drain{};

  // --- shared with worker threads, guarded by out_mu
  std::mutex out_mu;
  /// Torn down: workers drop completions instead of appending.
  bool closed = false;
  std::string out_buf;
  size_t out_off = 0;
  /// Requests admitted to the worker pool and not yet answered.
  std::unordered_map<uint64_t, std::shared_ptr<Job>> inflight;
  /// A goodbye was received but not yet acknowledged: the ack (tagged
  /// with goodbye_request_id) is appended only once `inflight` empties,
  /// so pipelined requests admitted before the goodbye keep their
  /// responses.
  bool goodbye_pending = false;
  uint64_t goodbye_request_id = 0;
};

/// Fairness bound on bytes pulled off one connection per read pass: a
/// single line-rate sender yields to the rest of the (single-threaded)
/// event loop and resumes on the next iteration.
constexpr size_t kMaxReadBytesPerPass = 256 * 1024;

/// epoll_event.data.u64 tags for the two non-connection fds.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;
constexpr uint64_t kFirstConnId = 2;

}  // namespace

struct Server::Impl {
  Engine* engine;
  ServerOptions options;

  std::mutex state_mu_;  // guards running_ transitions
  bool running_ = false;
  std::atomic<bool> stopping_{false};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wakeup_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread loop_thread_;
  std::vector<std::thread> workers_;
  std::unique_ptr<JobQueue> queue_;

  // --- event-loop-only session registry
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = kFirstConnId;
  bool shutdown_started_ = false;
  /// Connections owed another read pass without an epoll edge to drive
  /// it: a capped read left bytes in the kernel, or a flush lifted a
  /// backpressure pause. Drained once per loop iteration.
  std::vector<uint64_t> resume_reads_;

  /// Connections with fresh worker-completed bytes awaiting a flush;
  /// workers append ids here and signal the eventfd.
  std::mutex pending_mu_;
  std::vector<uint64_t> pending_;

  // --- counters (ServerStats snapshot)
  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> sessions_rejected_{0};
  std::atomic<uint64_t> queries_ok_{0};
  std::atomic<uint64_t> queries_error_{0};
  std::atomic<uint64_t> queries_rejected_overload_{0};
  std::atomic<uint64_t> queries_timeout_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> peak_queue_depth_{0};
  std::atomic<uint64_t> read_pauses_{0};
  std::atomic<uint64_t> subscriptions_opened_{0};
  std::atomic<uint64_t> deltas_pushed_{0};

  Impl(Engine* engine_in, ServerOptions options_in)
      : engine(engine_in), options(std::move(options_in)) {}

  void Start();
  void Stop();
  void EventLoop();
  void WorkerLoop();

  // --- event-loop internals (loop thread only unless noted)
  void AcceptReady();
  void HandleConnEvent(const std::shared_ptr<Connection>& conn,
                       uint32_t events);
  void ReadPass(const std::shared_ptr<Connection>& conn);
  void DispatchFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  void AdmitJob(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                std::function<psql::QueryResult()> body,
                const std::string& sql_for_errors);
  void HandlePendingSignals();
  void DrainDeltas(Clock::time_point now);
  void ExpireDeadlines(Clock::time_point now);
  int ComputeTimeoutMs(Clock::time_point now);
  /// Appends one response on the event loop (no signal needed; the loop
  /// flushes in the same pass).
  void AppendResponse(const std::shared_ptr<Connection>& conn,
                      uint64_t request_id, const Frame& frame);
  enum class FlushResult { kFlushed, kBlocked, kFailed };
  FlushResult FlushOut(const std::shared_ptr<Connection>& conn);
  /// Flush + teardown-on-error + close-when-drained, the common tail of
  /// every event-loop pass over a connection.
  void FlushAndSettle(const std::shared_ptr<Connection>& conn);
  void MaybeFinish(const std::shared_ptr<Connection>& conn);
  /// True while the connection's pending (unflushed) response bytes are
  /// at or above the backpressure cap.
  bool OutBufOverLimit(const std::shared_ptr<Connection>& conn);
  /// kGoodbye: stop reading and pushing, but keep in-flight work — the
  /// ack is deferred (MaybeFinish) until every admitted request has
  /// answered and flushed, so a pipelined client loses nothing.
  void BeginGoodbye(const std::shared_ptr<Connection>& conn,
                    uint64_t request_id);
  /// Cancels subscriptions and abandons in-flight work (protocol fault /
  /// unframable stream): nothing new will be appended after this.
  void StartDrain(const std::shared_ptr<Connection>& conn);
  void Teardown(const std::shared_ptr<Connection>& conn);

  /// Worker side: route a completed job's response back to its
  /// connection. Dropped when the request was already answered or the
  /// connection is gone.
  void CompleteJob(const std::shared_ptr<Job>& job, Frame frame);

  void NotePeakQueueDepth(uint64_t depth) {
    uint64_t seen = peak_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen && !peak_queue_depth_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }

  std::vector<std::shared_ptr<Connection>> SnapshotConns() {
    std::vector<std::shared_ptr<Connection>> out;
    out.reserve(conns_.size());
    for (auto& [id, conn] : conns_) out.push_back(conn);
    return out;
  }
};

void Server::Impl::Start() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (running_) throw psql::ServerError("server already started");

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw psql::ServerError("socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  if (inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    throw psql::ServerError("invalid bind address: " + options.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    int err = errno;
    close(listen_fd_);
    listen_fd_ = -1;
    throw psql::ServerError(std::string("bind() failed: ") +
                             std::strerror(err));
  }
  if (listen(listen_fd_, 512) != 0) {
    int err = errno;
    close(listen_fd_);
    listen_fd_ = -1;
    throw psql::ServerError(std::string("listen() failed: ") +
                             std::strerror(err));
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  bound_port_ = ntohs(addr.sin_port);

  if (!SetNonBlocking(listen_fd_)) {
    close(listen_fd_);
    listen_fd_ = -1;
    throw psql::ServerError("could not set listener non-blocking");
  }
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wakeup_fd_ = CreateWakeupFd();
  if (epoll_fd_ < 0 || wakeup_fd_ < 0) {
    close(listen_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wakeup_fd_ >= 0) close(wakeup_fd_);
    listen_fd_ = epoll_fd_ = wakeup_fd_ = -1;
    throw psql::ServerError("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered for listener and wakeup
  ev.data.u64 = kListenerTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeupTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev);

  stopping_.store(false);
  shutdown_started_ = false;
  queue_ = std::make_unique<JobQueue>(options.queue_capacity);
  size_t workers = options.num_workers != 0
                       ? options.num_workers
                       : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  loop_thread_ = std::thread([this] { EventLoop(); });
  running_ = true;
}

void Server::Impl::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!running_) return;
    running_ = false;
  }
  stopping_.store(true);
  SignalWakeup(wakeup_fd_);
  // The loop finishes the graceful drain: stops accepting, shuts every
  // connection's read side, flushes every admitted query's response,
  // then exits once the registry is empty.
  if (loop_thread_.joinable()) loop_thread_.join();

  queue_->Stop();
  for (auto& worker : workers_) worker.join();
  workers_.clear();

  if (listen_fd_ >= 0) close(listen_fd_);
  close(epoll_fd_);
  close(wakeup_fd_);
  listen_fd_ = epoll_fd_ = wakeup_fd_ = -1;
}

void Server::Impl::EventLoop() {
  std::vector<epoll_event> events(128);
  for (;;) {
    Clock::time_point now = Clock::now();
    int timeout_ms = ComputeTimeoutMs(now);
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone; unrecoverable
    }
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[static_cast<size_t>(i)].data.u64;
      uint32_t flags = events[static_cast<size_t>(i)].events;
      if (tag == kListenerTag) {
        AcceptReady();
      } else if (tag == kWakeupTag) {
        DrainWakeup(wakeup_fd_);
      } else {
        auto it = conns_.find(tag);
        if (it != conns_.end()) HandleConnEvent(it->second, flags);
      }
    }
    // Reads owed without an epoll edge (capped pass / lifted
    // backpressure): one round per iteration, so fresh events from other
    // connections interleave with a hot sender's continuation.
    if (!resume_reads_.empty()) {
      std::vector<uint64_t> resumes;
      resumes.swap(resume_reads_);
      for (uint64_t id : resumes) {
        auto it = conns_.find(id);
        if (it != conns_.end()) ReadPass(it->second);
      }
    }
    now = Clock::now();
    HandlePendingSignals();
    DrainDeltas(now);
    ExpireDeadlines(now);

    if (stopping_.load()) {
      if (!shutdown_started_) {
        shutdown_started_ = true;
        epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        close(listen_fd_);
        listen_fd_ = -1;
        // Shut every read side; in-flight requests still finish and
        // flush their responses (SHUT_RD leaves the write side open).
        for (const auto& conn : SnapshotConns()) {
          shutdown(conn->fd, SHUT_RD);
          conn->read_shut = true;
          MaybeFinish(conn);
        }
      }
      if (conns_.empty()) break;
    }
  }
  // Defensive: if the loop broke abnormally, release whatever is left.
  for (const auto& conn : SnapshotConns()) Teardown(conn);
}

void Server::Impl::AcceptReady() {
  for (;;) {
    int fd = AcceptClient(listen_fd_);
    // kAcceptRetry (no client pending) and kAcceptClosed (listener gone;
    // the stop path closes it) both end the burst.
    if (fd < 0) return;
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (conns_.size() >= options.max_sessions) {
      sessions_rejected_.fetch_add(1);
      // Still blocking here (SetNonBlocking comes after admission): a
      // fresh socket's send buffer always takes this one small frame. No
      // request owns the rejection, so it is tagged kNoRequestId.
      WriteFully(fd, EncodeTaggedFrame(
                         kNoRequestId,
                         ErrorFrame(psql::ErrorCode::kOverloaded,
                                    "session limit reached (" +
                                        std::to_string(options.max_sessions) +
                                        ")")));
      close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      close(fd);
      continue;
    }
    sessions_accepted_.fetch_add(1);
    auto conn = std::make_shared<Connection>(options.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->options.bmo = options.session_bmo;
    conn->options.timeout_ms = options.query_timeout_ms;
    conn->options.max_pending_deltas = options.max_pending_deltas;
    conns_.emplace(conn->id, conn);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Server::Impl::HandleConnEvent(const std::shared_ptr<Connection>& conn,
                                   uint32_t events) {
  if (conn->torn_down) return;
  if ((events & EPOLLERR) != 0) {
    Teardown(conn);
    return;
  }
  if ((events & EPOLLOUT) != 0) FlushAndSettle(conn);
  if (conn->torn_down) return;
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) ReadPass(conn);
}

void Server::Impl::ReadPass(const std::shared_ptr<Connection>& conn) {
  bool can_read = !conn->read_shut;
  for (;;) {
    if (conn->draining || conn->torn_down) break;
    if (OutBufOverLimit(conn)) {
      // Backpressure: the client owes us a drain of its responses before
      // we consume more of its requests. Bytes already buffered (here
      // and in the kernel) keep; FlushAndSettle resumes the read once
      // the out-buffer empties below the cap.
      if (!conn->read_blocked) {
        conn->read_blocked = true;
        read_pauses_.fetch_add(1);
      }
      break;
    }
    Frame frame;
    uint32_t oversized_len = 0;
    FrameAssembler::Next next = conn->assembler.TryNext(&frame,
                                                        &oversized_len);
    if (next == FrameAssembler::Next::kFrame) {
      DispatchFrame(conn, std::move(frame));
      continue;
    }
    if (next == FrameAssembler::Next::kOversized) {
      protocol_errors_.fetch_add(1);
      AppendResponse(
          conn, kNoRequestId,
          ErrorFrame(psql::ErrorCode::kOversized,
                     "frame of " + std::to_string(oversized_len) +
                         " bytes exceeds the " +
                         std::to_string(options.max_frame_bytes) +
                         "-byte limit"));
      StartDrain(conn);  // the unread payload cannot be resynchronized
      break;
    }
    // kNeedMore: pull more bytes, bounded per pass for loop fairness.
    if (!can_read) break;
    size_t bytes_read = 0;
    IoStatus status = ReadAvailable(conn->fd, &conn->assembler,
                                    kMaxReadBytesPerPass, &bytes_read);
    if (status == IoStatus::kError) {
      Teardown(conn);
      return;
    }
    can_read = false;
    if (status == IoStatus::kClosed) {
      // Frames fully received before the EOF still dispatch below.
      conn->read_shut = true;
    } else if (bytes_read >= kMaxReadBytesPerPass) {
      // Cap hit: edge-triggered epoll will not re-signal for bytes still
      // queued in the kernel — continue on the next loop iteration.
      resume_reads_.push_back(conn->id);
    }
  }
  if (conn->torn_down) return;
  FlushAndSettle(conn);
}

void Server::Impl::DispatchFrame(const std::shared_ptr<Connection>& conn,
                                 Frame frame) {
  uint64_t request_id = kNoRequestId;
  if (!DecodeTaggedPayload(&frame, &request_id)) {
    protocol_errors_.fetch_add(1);
    AppendResponse(conn, kNoRequestId,
                   ErrorFrame(psql::ErrorCode::kProtocol,
                              "frame shorter than its request id"));
    StartDrain(conn);
    return;
  }
  if (request_id == kNoRequestId) {
    protocol_errors_.fetch_add(1);
    AppendResponse(conn, kNoRequestId,
                   ErrorFrame(psql::ErrorCode::kProtocol,
                              "request id must be nonzero"));
    StartDrain(conn);
    return;
  }
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    duplicate = conn->inflight.count(request_id) > 0;
  }
  for (const auto& sub : conn->subscriptions) {
    duplicate = duplicate || sub.request_id == request_id;
  }
  if (duplicate) {
    protocol_errors_.fetch_add(1);
    AppendResponse(conn, request_id,
                   ErrorFrame(psql::ErrorCode::kProtocol,
                              "request id " + std::to_string(request_id) +
                                  " is already in flight"));
    return;
  }

  switch (frame.type) {
    case FrameType::kPing:
      AppendResponse(conn, request_id, Frame{FrameType::kOk, "pong"});
      break;
    case FrameType::kGoodbye:
      BeginGoodbye(conn, request_id);
      break;
    case FrameType::kSet: {
      std::string err = conn->options.ApplyWire(frame.payload);
      if (err.empty()) {
        AppendResponse(conn, request_id,
                       Frame{FrameType::kOk, frame.payload});
      } else {
        queries_error_.fetch_add(1);
        AppendResponse(conn, request_id,
                       ErrorFrame(psql::ErrorCode::kBadArgument, err));
      }
      break;
    }
    case FrameType::kPrepare: {
      try {
        PreparedQuery prepared = engine->Prepare(frame.payload);
        uint64_t id = conn->next_handle++;
        conn->handles.emplace(id, std::move(prepared));
        AppendResponse(conn, request_id,
                       Frame{FrameType::kHandle, std::to_string(id)});
      } catch (const std::exception& e) {
        queries_error_.fetch_add(1);
        AppendResponse(conn, request_id,
                       ErrorFrame(psql::ClassifyException(e, frame.payload)));
      }
      break;
    }
    case FrameType::kSubscribe: {
      try {
        conn->subscriptions.push_back(Connection::Sub{
            engine->Subscribe(frame.payload, conn->options.bmo,
                              conn->options.max_pending_deltas),
            request_id});
        Connection::Sub& sub = conn->subscriptions.back();
        subscriptions_opened_.fetch_add(1);
        // Handle first, then the notifier: the kHandle frame always
        // precedes the subscription's bootstrap resync delta (both are
        // appended by this thread; the bootstrap drains in this pass's
        // DrainDeltas, after dispatch).
        AppendResponse(
            conn, request_id,
            Frame{FrameType::kHandle, std::to_string(sub.handle.id())});
        int wakeup_fd = wakeup_fd_;
        std::shared_ptr<Connection> target = conn;
        sub.handle.SetNotifier([target, wakeup_fd] {
          target->deltas_pending.store(true);
          SignalWakeup(wakeup_fd);
        });
        if (options.debug_push_delay_ms > 0) {
          conn->next_delta_drain =
              Clock::now() +
              std::chrono::milliseconds(options.debug_push_delay_ms);
        }
        conn->deltas_pending.store(true);  // the bootstrap is queued
      } catch (const std::exception& e) {
        queries_error_.fetch_add(1);
        AppendResponse(conn, request_id,
                       ErrorFrame(psql::ClassifyException(e, frame.payload)));
      }
      break;
    }
    case FrameType::kQuery: {
      Engine* eng = engine;
      std::string sql = frame.payload;
      BmoOptions bmo = conn->options.bmo;
      AdmitJob(
          conn, request_id,
          [eng, sql, bmo] { return eng->Execute(sql, bmo); }, sql);
      break;
    }
    case FrameType::kRun: {
      errno = 0;
      char* end = nullptr;
      unsigned long long id = std::strtoull(frame.payload.c_str(), &end, 10);
      auto it = (errno == 0 && end != frame.payload.c_str() && *end == '\0')
                    ? conn->handles.find(id)
                    : conn->handles.end();
      if (it == conn->handles.end()) {
        queries_error_.fetch_add(1);
        AppendResponse(conn, request_id,
                       ErrorFrame(psql::ErrorCode::kNotFound,
                                  "no prepared statement with handle '" +
                                      frame.payload + "'"));
        break;
      }
      PreparedQuery prepared = it->second;
      BmoOptions bmo = conn->options.bmo;
      AdmitJob(
          conn, request_id,
          [prepared, bmo] { return prepared.Run(bmo); },
          prepared.normalized_sql());
      break;
    }
    case FrameType::kInsert: {
      size_t nl = frame.payload.find('\n');
      std::optional<Tuple> row;
      size_t pos = nl == std::string::npos ? 0 : nl + 1;
      if (nl != std::string::npos) {
        row = DecodeRow(frame.payload, &pos);
      }
      if (!row || pos != frame.payload.size()) {
        protocol_errors_.fetch_add(1);
        AppendResponse(conn, request_id,
                       ErrorFrame(psql::ErrorCode::kProtocol,
                                  "malformed INSERT payload"));
        break;
      }
      Engine* eng = engine;
      std::string table = frame.payload.substr(0, nl);
      Tuple values = std::move(*row);
      AdmitJob(
          conn, request_id,
          [eng, table, values] {
            eng->Insert(table, values);
            psql::QueryResult ack;  // empty result as the acknowledgement
            return ack;
          },
          "");
      break;
    }
    default:
      protocol_errors_.fetch_add(1);
      AppendResponse(conn, request_id,
                     ErrorFrame(psql::ErrorCode::kProtocol,
                                std::string("unknown frame type '") +
                                    static_cast<char>(frame.type) + "'"));
      break;
  }
}

void Server::Impl::AdmitJob(const std::shared_ptr<Connection>& conn,
                            uint64_t request_id,
                            std::function<psql::QueryResult()> body,
                            const std::string& sql_for_errors) {
  auto job = std::make_shared<Job>();
  job->conn = conn;
  job->request_id = request_id;
  job->timeout_ms = conn->options.timeout_ms;
  if (job->timeout_ms > 0) {
    job->has_deadline = true;
    job->deadline =
        Clock::now() + std::chrono::milliseconds(job->timeout_ms);
  }
  uint64_t delay_ms = options.debug_execute_delay_ms;
  if (!options.debug_delay_substring.empty() &&
      sql_for_errors.find(options.debug_delay_substring) ==
          std::string::npos) {
    delay_ms = 0;
  }
  job->work = [body = std::move(body), sql_for_errors, delay_ms]() -> Frame {
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    try {
      return Frame{FrameType::kResult, SerializeResult(body())};
    } catch (const std::exception& e) {
      return ErrorFrame(psql::ClassifyException(e, sql_for_errors));
    }
  };

  // Register before TryPush: a worker may pop and complete the job
  // before TryPush even returns, and completion requires the in-flight
  // entry to route the response.
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->inflight.emplace(request_id, job);
  }
  uint64_t observed_depth = 0;
  switch (queue_->TryPush(job, &observed_depth)) {
    case JobQueue::PushResult::kFull: {
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->inflight.erase(request_id);
      }
      queries_rejected_overload_.fetch_add(1);
      AppendResponse(conn, request_id,
                     ErrorFrame(psql::ErrorCode::kOverloaded,
                                "admission queue full (" +
                                    std::to_string(options.queue_capacity) +
                                    " queued)"));
      return;
    }
    case JobQueue::PushResult::kStopping: {
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        conn->inflight.erase(request_id);
      }
      AppendResponse(conn, request_id,
                     ErrorFrame(psql::ErrorCode::kShuttingDown,
                                "server is shutting down"));
      return;
    }
    case JobQueue::PushResult::kAdmitted:
      break;
  }
  NotePeakQueueDepth(observed_depth);
}

void Server::Impl::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Job> job = queue_->Pop();
    if (job == nullptr) return;
    if (job->abandoned.load()) {
      // Already answered (deadline) or the connection died; don't burn
      // a kernel run.
      job->conn.reset();
      continue;
    }
    Frame response;
    if (job->has_deadline && Clock::now() > job->deadline) {
      response = ErrorFrame(psql::ErrorCode::kTimeout,
                            "deadline elapsed while queued");
    } else {
      response = job->work();
    }
    CompleteJob(job, std::move(response));
  }
}

void Server::Impl::CompleteJob(const std::shared_ptr<Job>& job, Frame frame) {
  std::shared_ptr<Connection> conn = std::move(job->conn);
  bool appended = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    auto it = conn->inflight.find(job->request_id);
    // The identity check guards request-id reuse: if this request was
    // already answered (TIMEOUT) and the client reused the id, the
    // entry now belongs to a different job.
    if (!conn->closed && it != conn->inflight.end() && it->second == job) {
      conn->inflight.erase(it);
      if (IsTimeoutFrame(frame)) {
        queries_timeout_.fetch_add(1);
      } else if (frame.type == FrameType::kError) {
        queries_error_.fetch_add(1);
      } else {
        queries_ok_.fetch_add(1);
      }
      conn->out_buf += EncodeTaggedFrame(job->request_id, frame);
      appended = true;
    }
  }
  if (appended) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      pending_.push_back(conn->id);
    }
    SignalWakeup(wakeup_fd_);
  }
}

void Server::Impl::HandlePendingSignals() {
  std::vector<uint64_t> ready;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    ready.swap(pending_);
  }
  for (uint64_t id : ready) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    FlushAndSettle(it->second);
  }
}

void Server::Impl::DrainDeltas(Clock::time_point now) {
  for (const auto& conn : SnapshotConns()) {
    if (conn->torn_down || !conn->deltas_pending.load()) continue;
    if (OutBufOverLimit(conn)) {
      // Deferred until the client drains (the flag stays set; the
      // engine-side max_pending_deltas coalescing bounds the backlog).
      continue;
    }
    if (options.debug_push_delay_ms > 0 && now < conn->next_delta_drain) {
      continue;  // paced; ComputeTimeoutMs schedules the retry
    }
    // Clear before polling: a push landing mid-drain re-sets the flag
    // and re-signals, so nothing is lost — at worst one spurious pass.
    conn->deltas_pending.store(false);
    bool wrote = false;
    for (auto& sub : conn->subscriptions) {
      while (std::optional<ivm::ViewDelta> delta = sub.handle.Poll()) {
        Frame frame{FrameType::kDelta,
                    SerializeDelta(sub.handle.id(), sub.handle.schema(),
                                   delta->version, delta->resync,
                                   delta->enters, delta->exits)};
        AppendResponse(conn, sub.request_id, frame);
        deltas_pushed_.fetch_add(1);
        wrote = true;
      }
    }
    if (options.debug_push_delay_ms > 0) {
      conn->next_delta_drain =
          now + std::chrono::milliseconds(options.debug_push_delay_ms);
    }
    if (wrote) FlushAndSettle(conn);
  }
}

void Server::Impl::ExpireDeadlines(Clock::time_point now) {
  for (const auto& conn : SnapshotConns()) {
    if (conn->torn_down) continue;
    bool wrote = false;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      for (auto it = conn->inflight.begin(); it != conn->inflight.end();) {
        const std::shared_ptr<Job>& job = it->second;
        if (job->has_deadline && now > job->deadline) {
          job->abandoned.store(true);
          conn->out_buf += EncodeTaggedFrame(
              it->first, ErrorFrame(psql::ErrorCode::kTimeout,
                                    "query exceeded its " +
                                        std::to_string(job->timeout_ms) +
                                        "ms deadline"));
          queries_timeout_.fetch_add(1);
          it = conn->inflight.erase(it);
          wrote = true;
        } else {
          ++it;
        }
      }
    }
    if (wrote) FlushAndSettle(conn);
  }
}

int Server::Impl::ComputeTimeoutMs(Clock::time_point now) {
  if (!resume_reads_.empty()) return 0;  // a read pass is already owed
  Clock::time_point next = Clock::time_point::max();
  for (const auto& [id, conn] : conns_) {
    if (conn->torn_down) continue;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      for (const auto& [rid, job] : conn->inflight) {
        if (job->has_deadline && job->deadline < next) next = job->deadline;
      }
    }
    if (conn->deltas_pending.load() && options.debug_push_delay_ms > 0 &&
        conn->next_delta_drain < next) {
      next = conn->next_delta_drain;
    }
  }
  if (next == Clock::time_point::max()) {
    // Nothing scheduled; wake on events only (capped while stopping so
    // the drain progression is never parked forever).
    return stopping_.load() ? 50 : -1;
  }
  auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
          .count();
  if (ms < 0) ms = 0;
  if (ms > 60000) ms = 60000;
  return static_cast<int>(ms) + 1;  // round up: never wake before `next`
}

void Server::Impl::AppendResponse(const std::shared_ptr<Connection>& conn,
                                  uint64_t request_id, const Frame& frame) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) return;
  conn->out_buf += EncodeTaggedFrame(request_id, frame);
}

Server::Impl::FlushResult Server::Impl::FlushOut(
    const std::shared_ptr<Connection>& conn) {
  IoStatus status;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) return FlushResult::kFailed;
    if (conn->out_off >= conn->out_buf.size()) {
      status = IoStatus::kOk;
    } else {
      status = WriteSome(conn->fd, &conn->out_buf, &conn->out_off);
    }
  }
  if (status == IoStatus::kOk) {
    if (conn->want_write) {
      conn->want_write = false;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP;
      ev.data.u64 = conn->id;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    return FlushResult::kFlushed;
  }
  if (status == IoStatus::kWouldBlock) {
    if (!conn->want_write) {
      conn->want_write = true;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLET | EPOLLRDHUP | EPOLLOUT;
      ev.data.u64 = conn->id;
      epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
    }
    return FlushResult::kBlocked;
  }
  return FlushResult::kFailed;
}

void Server::Impl::FlushAndSettle(const std::shared_ptr<Connection>& conn) {
  if (conn->torn_down) return;
  if (FlushOut(conn) == FlushResult::kFailed) {
    Teardown(conn);
    return;
  }
  if (conn->read_blocked && !OutBufOverLimit(conn)) {
    // Backpressure lifted: resume reading on the next loop iteration.
    // Settling waits for the resumed pass — requests still buffered may
    // admit new work, so the connection is not finishable yet.
    conn->read_blocked = false;
    resume_reads_.push_back(conn->id);
    return;
  }
  MaybeFinish(conn);
}

void Server::Impl::MaybeFinish(const std::shared_ptr<Connection>& conn) {
  if (conn->torn_down) return;
  bool ack_appended = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->goodbye_pending && conn->inflight.empty()) {
      // Every request admitted before the goodbye has answered and its
      // response sits in the out-buffer ahead of this ack.
      conn->out_buf += EncodeTaggedFrame(conn->goodbye_request_id,
                                         Frame{FrameType::kOk, "bye"});
      conn->goodbye_pending = false;
      ack_appended = true;
    }
  }
  if (ack_appended && FlushOut(conn) == FlushResult::kFailed) {
    Teardown(conn);
    return;
  }
  bool done;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    done = (conn->draining || conn->read_shut) && conn->inflight.empty() &&
           !conn->goodbye_pending && conn->out_off >= conn->out_buf.size();
  }
  if (done) Teardown(conn);
}

bool Server::Impl::OutBufOverLimit(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  return conn->out_buf.size() - conn->out_off >= options.max_outbuf_bytes;
}

void Server::Impl::BeginGoodbye(const std::shared_ptr<Connection>& conn,
                                uint64_t request_id) {
  conn->draining = true;
  for (auto& sub : conn->subscriptions) {
    sub.handle.SetNotifier(nullptr);
    sub.handle.Cancel();
  }
  conn->subscriptions.clear();
  conn->deltas_pending.store(false);
  std::lock_guard<std::mutex> lock(conn->out_mu);
  conn->goodbye_pending = true;
  conn->goodbye_request_id = request_id;
}

void Server::Impl::StartDrain(const std::shared_ptr<Connection>& conn) {
  conn->draining = true;
  for (auto& sub : conn->subscriptions) {
    sub.handle.SetNotifier(nullptr);
    sub.handle.Cancel();
  }
  conn->subscriptions.clear();
  conn->deltas_pending.store(false);
  std::lock_guard<std::mutex> lock(conn->out_mu);
  for (auto& [rid, job] : conn->inflight) job->abandoned.store(true);
  conn->inflight.clear();
  // A fault drain supersedes a pending goodbye (the error frame and the
  // close are the client's signal).
  conn->goodbye_pending = false;
}

void Server::Impl::Teardown(const std::shared_ptr<Connection>& conn) {
  if (conn->torn_down) return;
  conn->torn_down = true;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
    for (auto& [rid, job] : conn->inflight) job->abandoned.store(true);
    conn->inflight.clear();
    conn->out_buf.clear();
    conn->out_off = 0;
  }
  for (auto& sub : conn->subscriptions) {
    sub.handle.SetNotifier(nullptr);
    sub.handle.Cancel();
  }
  conn->subscriptions.clear();
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  shutdown(conn->fd, SHUT_RDWR);
  close(conn->fd);
  conns_.erase(conn->id);
}

Server::Server(Engine* engine, ServerOptions options)
    : impl_(std::make_unique<Impl>(engine, std::move(options))) {}

Server::~Server() { Stop(); }

void Server::Start() { impl_->Start(); }
void Server::Stop() { impl_->Stop(); }

bool Server::running() const {
  std::lock_guard<std::mutex> lock(impl_->state_mu_);
  return impl_->running_;
}

uint16_t Server::port() const { return impl_->bound_port_; }

ServerStats Server::stats() const {
  ServerStats out;
  out.sessions_accepted = impl_->sessions_accepted_.load();
  out.sessions_rejected = impl_->sessions_rejected_.load();
  out.queries_ok = impl_->queries_ok_.load();
  out.queries_error = impl_->queries_error_.load();
  out.queries_rejected_overload = impl_->queries_rejected_overload_.load();
  out.queries_timeout = impl_->queries_timeout_.load();
  out.protocol_errors = impl_->protocol_errors_.load();
  out.peak_queue_depth = impl_->peak_queue_depth_.load();
  out.read_pauses = impl_->read_pauses_.load();
  out.subscriptions_opened = impl_->subscriptions_opened_.load();
  out.deltas_pushed = impl_->deltas_pushed_.load();
  return out;
}

Engine& Server::engine() { return *impl_->engine; }

}  // namespace prefdb::server
