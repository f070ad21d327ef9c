// The prefdb wire protocol: length-prefixed frames over a byte stream.
//
// Every message — in both directions — is one frame:
//
//   uint32  payload length, big-endian (excludes these 5 header bytes)
//   uint8   frame type (FrameType below)
//   uint64  request id, big-endian (the first 8 payload bytes)
//   bytes   body
//
// Requests carry Preference SQL text or small textual commands; responses
// carry a serialized QueryResult, an acknowledgement, or a serialized
// QueryError (psql/error.h).
//
// The request id is client-assigned and echoed on the response, so many
// requests can be in flight on one connection and responses may arrive
// out of order. Server-initiated kDelta pushes carry the id of the
// kSubscribe that created them; faults no request owns (oversized frame,
// missing id prefix, a request tagged id 0, session limit) carry
// kNoRequestId and close the connection. There is no
// version negotiation: a connection's first frame already carries its
// request id.
//
// Result payloads use a self-delimiting text encoding (SerializeResult /
// ParseResult) that round-trips Values exactly — including NULLs, negative
// zero aside, non-finite doubles, and strings containing commas, quotes or
// newlines — so a client-side diff against a local Engine run is byte-safe.
//
// This header is socket-free: framing works over any byte sink/source, so
// the codec is unit-testable and reusable (e.g. for a future unix-domain
// or in-process transport).

#ifndef PREFDB_SERVER_PROTOCOL_H_
#define PREFDB_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "psql/executor.h"
#include "relation/relation.h"

namespace prefdb::server {

/// One byte on the wire. Requests and responses share the enum; the
/// direction disambiguates. "Payload" below means the body after the
/// request id.
enum class FrameType : uint8_t {
  // --- requests
  /// Payload: Preference SQL text. Response: kResult or kError.
  kQuery = 'Q',
  /// Payload: Preference SQL text. Response: kHandle or kError.
  kPrepare = 'P',
  /// Payload: decimal prepared-statement handle. Response: kResult/kError.
  kRun = 'R',
  /// Payload: "name=value" session option (see server.h for the
  /// vocabulary). Response: kOk or kError.
  kSet = 'S',
  /// Payload: table name '\n' one encoded row (EncodeRow). Response:
  /// kOk or kError.
  kInsert = 'I',
  /// Payload: empty. Response: kOk ("pong"). Liveness probe.
  kPing = 'G',
  /// Payload: Preference SQL text of a BMO statement. Response: kHandle
  /// (decimal subscription id) or kError. A successful subscribe is
  /// followed by server-initiated kDelta pushes tagged with this
  /// request's id, interleaved with other responses (each frame is whole;
  /// the framing keeps the stream self-delimiting). The first delta is
  /// always a resync snapshot of the current result.
  kSubscribe = 'U',
  /// Payload: empty. The server stops reading the session, lets every
  /// request admitted before the goodbye complete and flush its
  /// response, then acknowledges with kOk and closes — a pipelined
  /// "send work, send goodbye" client never loses an answer.
  kGoodbye = 'X',

  // --- responses
  /// Payload: SerializeResult(...).
  kResult = 'T',
  /// Payload: UTF-8 acknowledgement text.
  kOk = 'O',
  /// Payload: decimal prepared-statement handle.
  kHandle = 'H',
  /// Payload: psql::SerializeError(...).
  kError = 'E',
  /// Server-initiated push: SerializeDelta(...) for one subscription.
  kDelta = 'D',
};

struct Frame {
  FrameType type = FrameType::kOk;
  std::string payload;
};

/// Frame header size on the wire (4-byte length + 1-byte type).
inline constexpr size_t kFrameHeaderBytes = 5;

/// Serializes the outer framing only (header + payload, no request id):
/// the primitive under EncodeTaggedFrame.
std::string EncodeFrame(const Frame& frame);

/// Parses the 5 header bytes; returns the payload length and writes the
/// type. The length is unvalidated — callers enforce their own cap.
uint32_t DecodeFrameHeader(const unsigned char header[kFrameHeaderBytes],
                           FrameType* type);

// --- request-id tagging ----------------------------------------------------

/// Size of the big-endian request id that prefixes every frame payload.
inline constexpr size_t kRequestIdBytes = 8;

/// Request id 0 is reserved: requests must use a nonzero id, and the
/// server tags connection-level faults (oversized frame, missing id
/// prefix, a request tagged 0, session limit) with 0 because no request
/// can own them; each of these closes the connection.
inline constexpr uint64_t kNoRequestId = 0;

/// Serializes a frame as it goes on the wire: header + 8-byte big-endian
/// `request_id` + payload.
std::string EncodeTaggedFrame(uint64_t request_id, const Frame& frame);

/// Strips the leading request id from a frame payload in place. Returns
/// false (frame untouched) when the payload is shorter than the id
/// prefix — a protocol error.
bool DecodeTaggedPayload(Frame* frame, uint64_t* request_id);

// --- value / row / result text encoding -----------------------------------
//
//   value := 'N'                          NULL
//          | 'I' <decimal int64>
//          | 'D' <%.17g double>           (nan/inf/-inf included)
//          | 'S' <decimal byte count> ':' <raw bytes>
//   row   := value (' ' value)* '\n'     (empty rows encode as '\n')
//
// The 'S' length prefix makes the encoding self-delimiting, so strings may
// contain any byte including ' ' and '\n'.

std::string EncodeValue(const Value& value);
void EncodeRow(const Tuple& row, std::string* out);

/// Parses one encoded row starting at `*pos` (advances past the trailing
/// '\n'). Returns nullopt on malformed input.
std::optional<Tuple> DecodeRow(const std::string& data, size_t* pos);

/// QueryResult wire rendering:
///
///   schema <name>:<TYPE>(,<name>:<TYPE>)*\n     ("schema \n" if empty)
///   utilities <%.17g>(,<%.17g>)*\n              ("utilities \n" if none)
///   kernel <kernel string>\n
///   rows <decimal count>\n
///   <count> encoded rows
///
/// Timing stats are deliberately not shipped: results must diff bytewise
/// against a local reference execution.
std::string SerializeResult(const psql::QueryResult& result);

/// Parsed form of a kResult payload.
struct WireResult {
  Relation relation;
  std::vector<double> utilities;
  std::string kernel;
};

/// Inverse of SerializeResult; nullopt on malformed input.
std::optional<WireResult> ParseResult(const std::string& payload);

/// One kDelta payload: a maintained view's result-set change, addressed
/// to a subscription. resync=true means "discard your state, `enters` IS
/// the full current result" (the bootstrap delta, and the coalesced
/// recovery after the subscriber overflowed its server-side queue).
///
///   subscription <decimal id>\n
///   version <decimal table version>\n
///   resync <0|1>\n
///   schema <name>:<TYPE>(,<name>:<TYPE>)*\n      ("schema \n" if empty)
///   enters <decimal count>\n
///   <count> encoded rows
///   exits <decimal count>\n
///   <count> encoded rows
struct WireDelta {
  uint64_t subscription = 0;
  uint64_t version = 0;
  bool resync = false;
  Relation enters;
  Relation exits;
};

/// Renders one delta push. `schema` is the subscribed table's row schema
/// (enters/exits rows are full table rows).
std::string SerializeDelta(uint64_t subscription, const Schema& schema,
                           uint64_t version, bool resync,
                           const std::vector<Tuple>& enters,
                           const std::vector<Tuple>& exits);

/// Inverse of SerializeDelta; nullopt on malformed input.
std::optional<WireDelta> ParseDelta(const std::string& payload);

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_PROTOCOL_H_
