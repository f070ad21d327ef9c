// The prefdb wire protocol: length-prefixed frames over a byte stream.
//
// Every message — in both directions — is one frame:
//
//   uint32  payload length, big-endian (excludes these 5 header bytes)
//   uint8   frame type (FrameType below)
//   uint64  request id, big-endian (the first 8 payload bytes)
//   bytes   body
//
// Requests carry Preference SQL text, small textual commands or an insert
// row; responses carry a serialized QueryResult, an acknowledgement, or a
// serialized QueryError (psql/error.h).
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
// Result, delta and insert payloads carry rows in one binary columnar
// frame (grammar below, above SerializeResult): per column a type tag per
// row, the raw 8 bytes of each numeric cell and dictionary codes for
// strings. Every cell round-trips exactly — NULL, NaN payloads, -0.0,
// infinities, the whole int64 range, strings holding any byte — and the
// bytes are canonical, so a client-side diff against a local Engine run
// is a byte compare.
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

#include "ivm/delta.h"
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
  /// Payload: SerializeInsert(...), a table name and one row. Response:
  /// kResult (an empty acknowledgement) or kError.
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

/// Serializes the outer framing only (header + payload, no request id).
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

/// Appends a frame as it goes on the wire to `*out`: header + 8-byte
/// big-endian `request_id` + payload, written in place.
void AppendTaggedFrame(std::string* out, uint64_t request_id,
                       const Frame& frame);

/// AppendTaggedFrame into a new string.
std::string EncodeTaggedFrame(uint64_t request_id, const Frame& frame);

/// Strips the leading request id from a frame payload in place. Returns
/// false (frame untouched) when the payload is shorter than the id
/// prefix — a protocol error.
bool DecodeTaggedPayload(Frame* frame, uint64_t* request_id);

// --- binary columnar row frames -------------------------------------------
//
// Integers are little-endian; a double travels as its IEEE-754 bits in a
// u64. Every count and length is checked against the bytes that remain
// before anything is allocated for it.
//
//   str     := u32 byte length, the bytes
//   schema  := u32 n, n x (u8 declared type, str name)
//   type    := 0 NULL | 1 INT | 2 DOUBLE | 3 STRING      (ValueType)
//   rows    := u64 row count r, then for each column of the schema:
//                r x u8 tag                one type per row; 0 marks NULL
//                k x u64 payload           one per INT/DOUBLE row, in row
//                                          order: the int64, or the bits
//                u32 d, d x str            the distinct strings of the
//                                          column, in first-occurrence order
//                s x u32 code              one per STRING row, below d
//              a zero-column frame instead carries r zero bytes, so every
//              row costs at least one byte
//
// The encoding is canonical: the bytes depend only on what the grammar
// carries (the schema, each cell's type and value, the utilities and the
// kernel), never on how the rows are stored (a view, a flattened copy,
// unused dictionary entries, an allocated int shadow).
// The decoders accept canonical frames only — a dictionary entry that is
// unused, repeated or out of first-occurrence order is rejected — so
// re-encoding a decoded frame reproduces it byte for byte.
//
//   result  := schema, u32 u, u x u64 utility bits, str kernel, rows
//   delta   := u64 subscription, u64 version, u8 resync (0|1), schema,
//              rows enters, rows exits
//   insert  := str table, u32 arity, rows (exactly one row)
//
// Timing stats are deliberately not shipped: results must diff bytewise
// against a local reference execution.

/// Encodes a QueryResult's relation (read through its view, if any),
/// utilities and kernel label.
std::string SerializeResult(const psql::QueryResult& result);

/// Parsed form of a kResult payload. The relation is flat: its columns
/// are built directly from the frame, with no row Tuples.
struct WireResult {
  Relation relation;
  std::vector<double> utilities;
  std::string kernel;
};

/// Inverse of SerializeResult; nullopt on malformed input.
std::optional<WireResult> ParseResult(const std::string& payload);

/// One kDelta payload: a maintained view's result-set change (see
/// ivm/delta.h), addressed to a subscription. resync=true means "discard
/// your state, `enters` IS the full current result" (the bootstrap delta,
/// and the coalesced recovery after the subscriber overflowed its
/// server-side queue). `enters` and `exits` share the subscribed table's
/// schema; parsed, both are flat stores built from the frame.
struct WireDelta : ivm::ViewDelta {
  uint64_t subscription = 0;
};

/// Renders one delta push for `subscription`: the schema of `enters`, then
/// the rows of `enters` and of `exits`, encoded like result rows. Throws
/// psql::BadArgumentError, a std::invalid_argument, when `exits`' schema
/// differs from `enters'`.
std::string SerializeDelta(uint64_t subscription, const ivm::ViewDelta& delta);

/// Inverse of SerializeDelta; nullopt on malformed input.
std::optional<WireDelta> ParseDelta(const std::string& payload);

/// Parsed form of a kInsert payload.
struct WireInsert {
  std::string table;
  Tuple row;
};

/// Renders a kInsert payload: one row for `table`.
std::string SerializeInsert(const std::string& table, const Tuple& row);

/// Inverse of SerializeInsert; nullopt on malformed input.
std::optional<WireInsert> ParseInsert(const std::string& payload);

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_PROTOCOL_H_
