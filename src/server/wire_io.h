// Socket helpers shared by the server's event loop and the client, with
// the frame codec from protocol.h. Two tiers:
//
//   - blocking full-frame reads/writes (the client's transport), and
//   - non-blocking edge-triggered primitives for the server's epoll loop:
//     drain-to-EAGAIN reads feeding a FrameAssembler (partial-frame
//     reassembly), offset-tracked buffered writes, and eventfd wakeups.
//
// POSIX sockets only (the library's only platform); no external
// dependencies. Every raw byte-transfer syscall in the project lives in
// wire_io.cc (enforced by prefdb-lint's raw-syscall invariant).

#ifndef PREFDB_SERVER_WIRE_IO_H_
#define PREFDB_SERVER_WIRE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "server/protocol.h"

namespace prefdb::server {

/// Outcome of ReadFrame.
enum class ReadStatus {
  kOk,
  /// Clean EOF on a frame boundary (peer closed).
  kClosed,
  /// Transport error or EOF mid-frame.
  kError,
  /// The declared payload length exceeds the caller's cap. The payload
  /// was NOT consumed; the stream position is after the header.
  kOversized,
};

/// Reads exactly `len` bytes; false on EOF/error.
bool ReadFully(int fd, void* buf, size_t len);

/// Writes all of `data` (MSG_NOSIGNAL, EINTR-safe); false on error.
bool WriteFully(int fd, const std::string& data);

/// Reads one frame (header + payload). `max_payload_bytes` caps the
/// declared length before any payload allocation happens; on kOversized,
/// `frame->type` holds the frame's type and `oversized_len` (when non-null)
/// the declared length.
ReadStatus ReadFrame(int fd, Frame* frame, size_t max_payload_bytes,
                     uint32_t* oversized_len = nullptr);

/// Blocks until `fd` is readable or `timeout_ms` elapses (poll-based, so
/// no partial frame is ever consumed). False on timeout; true when a
/// read would not block (data, EOF, or socket error — the follow-up
/// ReadFrame disambiguates).
bool WaitReadable(int fd, uint64_t timeout_ms);

/// AcceptClient outcomes below 0. The listener is non-blocking under
/// epoll, so kAcceptRetry is the steady-state "no client left" result
/// that ends an accept burst; the event loop stops the burst on either
/// code alike (a closed listener is the stop path's to clean up).
inline constexpr int kAcceptRetry = -1;   // EAGAIN/EWOULDBLOCK/EINTR
inline constexpr int kAcceptClosed = -2;  // listener gone; stop accepting

/// Accepts one connection on `listen_fd`. Returns the connected fd
/// (>= 0), kAcceptRetry when no connection is pending or the call was
/// interrupted, or kAcceptClosed on any other error (the listening
/// socket is unusable).
/// The peer address is discarded — sessions are identified by fd.
int AcceptClient(int listen_fd);

// --- non-blocking primitives for the epoll event loop ----------------------

/// Outcome of one non-blocking read or write pass.
enum class IoStatus {
  /// Write: the buffer was fully flushed. (Reads never return kOk — they
  /// always end at kWouldBlock, kClosed, or kError.)
  kOk,
  /// Kernel buffers exhausted; retry on the next readiness event. Bytes
  /// transferred before this are accounted for (appended / offset moved).
  kWouldBlock,
  /// Peer closed. Bytes read before the EOF are in the assembler.
  kClosed,
  /// Transport error.
  kError,
};

/// Puts `fd` into non-blocking mode; false on fcntl failure.
bool SetNonBlocking(int fd);

/// Incremental frame reassembly over arbitrary byte chunks: the server's
/// per-connection read buffer. Append() whatever recv produced — a
/// single byte, half a header, three frames and a tail — and TryNext()
/// yields complete frames as they form. Never blocks, never copies more
/// than once (consumed prefix is compacted on the next Append).
class FrameAssembler {
 public:
  enum class Next {
    kFrame,     ///< *frame holds the next complete frame.
    kNeedMore,  ///< buffered bytes don't form a frame yet.
    /// The next header declares a payload above the cap. The header is
    /// consumed (mirrors ReadFrame); frame->type holds the frame's type
    /// and `oversized_len` its declared length. The connection is no
    /// longer framable.
    kOversized,
  };

  explicit FrameAssembler(size_t max_payload_bytes)
      : max_payload_bytes_(max_payload_bytes) {}

  /// Adds raw stream bytes to the buffer.
  void Append(const char* data, size_t len);

  /// Extracts the next complete frame, if any.
  Next TryNext(Frame* frame, uint32_t* oversized_len = nullptr);

  /// Bytes buffered but not yet consumed by TryNext.
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  size_t max_payload_bytes_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix; compacted lazily by Append
};

/// Drains `fd` toward EAGAIN (mandatory under edge-triggered epoll),
/// feeding every byte read into `assembler`, but stops once at least
/// `max_bytes` were consumed this pass — the fairness bound that keeps
/// one line-rate connection from pinning a single-threaded event loop.
/// Returns kWouldBlock both when the socket is drained and when the cap
/// was hit; `*bytes_read` (when non-null) disambiguates: a value >=
/// `max_bytes` means the kernel may still hold data that edge-triggered
/// epoll will NOT re-signal for, so the caller must schedule another
/// pass itself. kClosed on EOF, kError on transport error.
IoStatus ReadAvailable(int fd, FrameAssembler* assembler,
                       size_t max_bytes = SIZE_MAX,
                       size_t* bytes_read = nullptr);

/// Writes `buf` from `*offset` until done or the kernel buffer fills.
/// On kOk the buffer was fully flushed (buf cleared, offset reset); on
/// kWouldBlock `*offset` marks the resume point — arm EPOLLOUT and call
/// again on the next writable event.
IoStatus WriteSome(int fd, std::string* buf, size_t* offset);

// --- eventfd wakeup ---------------------------------------------------------
//
// Worker threads and IVM subscription notifiers complete off the event
// loop thread; they hand bytes to a connection's out-buffer and signal
// this fd, which the loop keeps in its epoll set.

/// Creates a non-blocking eventfd; -1 on failure.
int CreateWakeupFd();

/// Increments the eventfd counter (async-signal-safe, never blocks).
void SignalWakeup(int fd);

/// Zeroes the eventfd counter so the next epoll_wait sleeps again.
void DrainWakeup(int fd);

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_WIRE_IO_H_
