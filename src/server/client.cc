#include "server/client.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "psql/error.h"
#include "server/wire_io.h"

namespace prefdb::server {

/// One outstanding request's landing area, shared between the Client's
/// routing table and every copy of the request's ResponseFuture.
struct Client::ResponseFuture::Slot {
  bool done = false;
  ClientResponse response;
};

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_request_id_(other.next_request_id_),
      outstanding_(std::move(other.outstanding_)),
      pending_deltas_(std::move(other.pending_deltas_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_request_id_ = other.next_request_id_;
    outstanding_ = std::move(other.outstanding_);
    pending_deltas_ = std::move(other.pending_deltas_);
    other.fd_ = -1;
  }
  return *this;
}

void Client::Connect(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw psql::ServerError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw psql::ServerError("invalid server address: " + host);
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int err = errno;
    Close();
    throw psql::ServerError(std::string("connect() failed: ") +
                             std::strerror(err));
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  next_request_id_ = 1;
}

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  outstanding_.clear();
}

void Client::SendRawBytes(const std::string& bytes) {
  if (fd_ < 0) throw psql::ServerError("not connected");
  if (!WriteFully(fd_, bytes)) throw psql::ServerError("send failed");
}

Frame Client::ReadResponse(uint64_t* request_id) {
  if (fd_ < 0) throw psql::ServerError("not connected");
  Frame frame;
  // Responses are server-sized; accept anything the server can produce.
  ReadStatus status = ReadFrame(fd_, &frame, UINT32_MAX);
  if (status != ReadStatus::kOk) {
    Close();
    throw psql::ServerError("connection closed by server");
  }
  uint64_t id = kNoRequestId;
  if (!DecodeTaggedPayload(&frame, &id)) {
    throw psql::ProtocolError("response shorter than its request id");
  }
  if (request_id != nullptr) *request_id = id;
  return frame;
}

Client::ResponseFuture Client::Send(const Frame& frame) {
  if (fd_ < 0) throw psql::ServerError("not connected");
  uint64_t request_id = next_request_id_++;
  auto slot = std::make_shared<ResponseFuture::Slot>();
  outstanding_.emplace(request_id, slot);
  try {
    SendRawBytes(EncodeTaggedFrame(request_id, frame));
  } catch (...) {
    outstanding_.erase(request_id);
    throw;
  }
  return ResponseFuture(this, request_id, std::move(slot));
}

void Client::PumpOne() {
  uint64_t request_id = kNoRequestId;
  Frame frame = ReadResponse(&request_id);
  if (frame.type == FrameType::kDelta) {
    // Pushes are tagged with their kSubscribe's id, which is not an
    // outstanding request; the payload's subscription id is the
    // client-side correlation key.
    auto delta = ParseDelta(frame.payload);
    if (!delta) throw psql::ProtocolError("malformed delta frame");
    pending_deltas_.push_back(std::move(*delta));
    return;
  }
  if (request_id == kNoRequestId && frame.type == FrameType::kError) {
    // A fault no request owns (session limit, unframable stream): the
    // server closes the connection after this frame.
    psql::QueryError error = psql::DeserializeError(frame.payload);
    Close();
    throw psql::ServerError(std::string(psql::ErrorCodeName(error.code)) +
                            ": " + error.message);
  }
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) {
    throw psql::ProtocolError("response for an unknown request id");
  }
  std::shared_ptr<ResponseFuture::Slot> slot = it->second;
  outstanding_.erase(it);
  slot->response = ParseResponse(std::move(frame));
  slot->done = true;
}

ClientResponse Client::ResponseFuture::Get() {
  if (slot_ == nullptr) {
    throw psql::ServerError("Get() on a default-constructed future");
  }
  while (!slot_->done) client_->PumpOne();
  return slot_->response;
}

bool Client::ResponseFuture::ready() const {
  return slot_ != nullptr && slot_->done;
}

ClientResponse Client::ParseResponse(Frame reply) {
  ClientResponse response;
  switch (reply.type) {
    case FrameType::kResult: {
      auto parsed = ParseResult(reply.payload);
      if (!parsed) throw psql::ProtocolError("malformed result frame");
      response.ok = true;
      response.relation = std::move(parsed->relation);
      response.utilities = std::move(parsed->utilities);
      response.kernel = std::move(parsed->kernel);
      return response;
    }
    case FrameType::kOk:
      response.ok = true;
      response.info = std::move(reply.payload);
      return response;
    case FrameType::kHandle: {
      errno = 0;
      char* end = nullptr;
      unsigned long long id = std::strtoull(reply.payload.c_str(), &end, 10);
      if (errno != 0 || end == reply.payload.c_str() || *end != '\0') {
        throw psql::ProtocolError("malformed handle frame");
      }
      response.ok = true;
      response.handle = id;
      return response;
    }
    case FrameType::kError:
      response.ok = false;
      response.error = psql::DeserializeError(reply.payload);
      return response;
    default:
      throw psql::ProtocolError("unexpected response frame type");
  }
}

Client::ResponseFuture Client::SendQuery(const std::string& sql) {
  return Send(Frame{FrameType::kQuery, sql});
}

Client::ResponseFuture Client::SendPrepare(const std::string& sql) {
  return Send(Frame{FrameType::kPrepare, sql});
}

Client::ResponseFuture Client::SendRun(uint64_t handle) {
  return Send(Frame{FrameType::kRun, std::to_string(handle)});
}

Client::ResponseFuture Client::SendSet(const std::string& name,
                                       const std::string& value) {
  return Send(Frame{FrameType::kSet, name + "=" + value});
}

Client::ResponseFuture Client::SendInsert(const std::string& table,
                                          const Tuple& row) {
  std::string payload = table + "\n";
  EncodeRow(row, &payload);
  return Send(Frame{FrameType::kInsert, std::move(payload)});
}

Client::ResponseFuture Client::SendSubscribe(const std::string& sql) {
  return Send(Frame{FrameType::kSubscribe, sql});
}

Client::ResponseFuture Client::SendPing() {
  return Send(Frame{FrameType::kPing, ""});
}

void Client::Configure(const SessionOptions& options) {
  for (const auto& [name, value] : options.Serialize()) {
    ClientResponse response = Set(name, value);
    if (!response.ok) {
      throw psql::ServerError("SET " + name + "=" + value +
                               " rejected: " + response.error.message);
    }
  }
}

std::optional<WireDelta> Client::ReadDelta(uint64_t timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (!pending_deltas_.empty()) {
      WireDelta delta = std::move(pending_deltas_.front());
      pending_deltas_.pop_front();
      return delta;
    }
    if (fd_ < 0) throw psql::ServerError("not connected");
    auto now = std::chrono::steady_clock::now();
    int64_t remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (remaining < 0) remaining = 0;
    if (!WaitReadable(fd_, static_cast<uint64_t>(remaining))) {
      return std::nullopt;
    }
    // May resolve an outstanding future instead of yielding a delta —
    // loop until a push lands or the deadline passes.
    PumpOne();
  }
}

ClientResponse Client::Goodbye() {
  ClientResponse response = Send(Frame{FrameType::kGoodbye, ""}).Get();
  Close();
  return response;
}

ClientResponse Client::RoundTrip(const Frame& frame) {
  return Send(frame).Get();
}

}  // namespace prefdb::server
