#include "server/wire_io.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace prefdb::server {

bool ReadFully(int fd, void* buf, size_t len) {
  char* out = static_cast<char*>(buf);
  while (len > 0) {
    ssize_t n = recv(fd, out, len, 0);
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    out += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteFully(int fd, const std::string& data) {
  const char* out = data.data();
  size_t len = data.size();
  while (len > 0) {
    ssize_t n = send(fd, out, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    out += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

ReadStatus ReadFrame(int fd, Frame* frame, size_t max_payload_bytes,
                     uint32_t* oversized_len) {
  unsigned char header[kFrameHeaderBytes];
  // Distinguish a clean close (EOF before any header byte) from a
  // truncated frame: peek at the first byte separately.
  ssize_t n;
  do {
    n = recv(fd, header, 1, 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) return ReadStatus::kClosed;
  if (n < 0) return ReadStatus::kError;
  if (!ReadFully(fd, header + 1, kFrameHeaderBytes - 1)) {
    return ReadStatus::kError;
  }
  uint32_t len = DecodeFrameHeader(header, &frame->type);
  if (len > max_payload_bytes) {
    if (oversized_len != nullptr) *oversized_len = len;
    return ReadStatus::kOversized;
  }
  frame->payload.resize(len);
  if (len > 0 && !ReadFully(fd, frame->payload.data(), len)) {
    return ReadStatus::kError;
  }
  return ReadStatus::kOk;
}

bool WaitReadable(int fd, uint64_t timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    int n = poll(&pfd, 1, static_cast<int>(timeout_ms));
    if (n > 0) return true;   // readable, EOF, or error — caller reads
    if (n == 0) return false;  // timeout
    if (errno != EINTR) return true;  // let the read surface the error
  }
}

int AcceptClient(int listen_fd) {
  int fd = accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) return fd;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
    return kAcceptRetry;
  }
  return kAcceptClosed;
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void FrameAssembler::Append(const char* data, size_t len) {
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

FrameAssembler::Next FrameAssembler::TryNext(Frame* frame,
                                             uint32_t* oversized_len) {
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Next::kNeedMore;
  unsigned char header[kFrameHeaderBytes];
  std::memcpy(header, buf_.data() + pos_, kFrameHeaderBytes);
  uint32_t len = DecodeFrameHeader(header, &frame->type);
  if (len > max_payload_bytes_) {
    // Consume the header (mirrors ReadFrame's "position is after the
    // header" contract); the stream is no longer framable.
    pos_ += kFrameHeaderBytes;
    if (oversized_len != nullptr) *oversized_len = len;
    return Next::kOversized;
  }
  if (buf_.size() - pos_ - kFrameHeaderBytes < len) return Next::kNeedMore;
  frame->payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Next::kFrame;
}

IoStatus ReadAvailable(int fd, FrameAssembler* assembler, size_t max_bytes,
                       size_t* bytes_read) {
  char chunk[65536];
  size_t total = 0;
  IoStatus status = IoStatus::kWouldBlock;
  while (total < max_bytes) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      assembler->Append(chunk, static_cast<size_t>(n));
      total += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      status = IoStatus::kClosed;
      break;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) status = IoStatus::kError;
    break;
  }
  if (bytes_read != nullptr) *bytes_read = total;
  return status;
}

IoStatus WriteSome(int fd, std::string* buf, size_t* offset) {
  while (*offset < buf->size()) {
    ssize_t n = send(fd, buf->data() + *offset, buf->size() - *offset,
                     MSG_NOSIGNAL);
    if (n > 0) {
      *offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return IoStatus::kWouldBlock;
    }
    return IoStatus::kError;
  }
  buf->clear();
  *offset = 0;
  return IoStatus::kOk;
}

int CreateWakeupFd() { return eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC); }

void SignalWakeup(int fd) {
  uint64_t one = 1;
  ssize_t n;
  do {
    n = write(fd, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
  // EAGAIN means the counter is already at max — the wakeup is pending
  // anyway, so dropping the increment is correct.
}

void DrainWakeup(int fd) {
  uint64_t value = 0;
  ssize_t n;
  do {
    n = read(fd, &value, sizeof(value));
  } while (n < 0 && errno == EINTR);
}

}  // namespace prefdb::server
