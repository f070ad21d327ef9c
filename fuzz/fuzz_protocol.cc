// Fuzz harness for the wire codec (server/protocol.h) and the server's
// frame reassembly (FrameAssembler, server/wire_io.h): frame headers, the
// binary columnar result, delta and insert decoders, and chunked
// reassembly of the raw client byte stream. Invariants under test:
//
//  - no decoder crashes, hangs or overflows on arbitrary bytes (the
//    payload is attacker-controlled up to the frame cap);
//  - every declared length or count is checked against the remaining
//    bytes before anything is allocated for it (under ASan, a huge
//    declared count would abort on the allocation);
//  - a string code is below its dictionary size and every tag is a known
//    type (the decoded columns pass ColumnStore::FromColumns, which
//    throws otherwise);
//  - decode, encode, decode gives the same cells, bit for bit, and the
//    re-encoded bytes equal the input: the decoders accept canonical
//    frames only;
//  - reassembly does not depend on how the stream was chunked: any
//    chunking yields the frames (and the final oversized/need-more
//    verdict) of a one-shot append, and no frame exceeds the cap.
//
// The seed corpus (fuzz/corpus/protocol) holds encoder output — a valid
// result, deltas (one with both row sets, one with exits only) and an
// insert — and hand-broken frames named after their
// defect (a huge row count, an out-of-range code, a truncated column,
// trailing bytes), plus the framing and assembler seeds.
//
// Links against libFuzzer under -DPREFDB_FUZZERS=ON; otherwise
// fuzz/driver_main.cc replays the seed corpus in plain ctest.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "psql/executor.h"
#include "server/protocol.h"
#include "server/wire_io.h"

namespace {

/// Bitwise cell equality: type, int64, the double's bits, the string.
bool SameCells(const prefdb::Relation& a, const prefdb::Relation& b) {
  if (!(a.schema() == b.schema()) || a.size() != b.size()) return false;
  for (size_t c = 0; c < a.schema().size(); ++c) {
    for (size_t i = 0; i < a.size(); ++i) {
      const prefdb::Value x = a.ValueAt(i, c);
      const prefdb::Value y = b.ValueAt(i, c);
      if (x.type() != y.type()) return false;
      if (x.is_double()) {
        const double dx = x.as_double();
        const double dy = y.as_double();
        if (std::memcmp(&dx, &dy, sizeof dx) != 0) return false;
      } else if (!x.is_null() && x != y) {
        return false;
      }
    }
  }
  return true;
}

void CheckResult(const std::string& payload) {
  auto parsed = prefdb::server::ParseResult(payload);
  if (!parsed) return;
  prefdb::psql::QueryResult result;
  result.relation = parsed->relation;
  result.utilities = parsed->utilities;
  result.stats.kernel = parsed->kernel;
  const std::string wire = prefdb::server::SerializeResult(result);
  if (wire != payload) __builtin_trap();
  auto reparsed = prefdb::server::ParseResult(wire);
  if (!reparsed || !SameCells(reparsed->relation, parsed->relation)) {
    __builtin_trap();
  }
  if (reparsed->kernel != parsed->kernel ||
      reparsed->utilities.size() != parsed->utilities.size()) {
    __builtin_trap();
  }
  for (size_t i = 0; i < parsed->utilities.size(); ++i) {
    if (std::memcmp(&reparsed->utilities[i], &parsed->utilities[i],
                    sizeof(double)) != 0) {
      __builtin_trap();
    }
  }
}

void CheckDelta(const std::string& payload) {
  auto parsed = prefdb::server::ParseDelta(payload);
  if (!parsed) return;
  const std::string wire =
      prefdb::server::SerializeDelta(parsed->subscription, *parsed);
  if (wire != payload) __builtin_trap();
  auto reparsed = prefdb::server::ParseDelta(wire);
  if (!reparsed) __builtin_trap();
  if (reparsed->subscription != parsed->subscription ||
      reparsed->version != parsed->version ||
      reparsed->resync != parsed->resync ||
      !SameCells(reparsed->enters, parsed->enters) ||
      !SameCells(reparsed->exits, parsed->exits)) {
    __builtin_trap();
  }
}

void CheckInsert(const std::string& payload) {
  auto parsed = prefdb::server::ParseInsert(payload);
  if (!parsed) return;
  const std::string wire =
      prefdb::server::SerializeInsert(parsed->table, parsed->row);
  if (wire != payload) __builtin_trap();
  auto reparsed = prefdb::server::ParseInsert(wire);
  if (!reparsed || reparsed->table != parsed->table) __builtin_trap();
  prefdb::Schema schema(
      std::vector<prefdb::Attribute>(parsed->row.size()));
  if (!SameCells(prefdb::Relation(schema, {reparsed->row}),
                 prefdb::Relation(schema, {parsed->row}))) {
    __builtin_trap();
  }
}

void CheckTagged(const std::string& payload) {
  // v2 request-id stripping: never reads past the payload, and a tagged
  // encode of the stripped remainder reproduces the original body.
  prefdb::server::Frame frame{prefdb::server::FrameType::kQuery, payload};
  uint64_t request_id = 0;
  if (!prefdb::server::DecodeTaggedPayload(&frame, &request_id)) {
    if (payload.size() >= prefdb::server::kRequestIdBytes) __builtin_trap();
    return;
  }
  std::string wire = prefdb::server::EncodeTaggedFrame(request_id, frame);
  // Strip the 5-byte header: the body must be the original tagged bytes.
  if (wire.substr(prefdb::server::kFrameHeaderBytes) != payload) {
    __builtin_trap();
  }
}

using prefdb::server::FrameAssembler;

/// Pulls frames until the assembler stops yielding them; returns the
/// verdict that stopped it (kNeedMore or kOversized).
FrameAssembler::Next DrainFrames(FrameAssembler* assembler,
                                 std::vector<prefdb::server::Frame>* out,
                                 uint32_t* oversized_len) {
  for (;;) {
    size_t before = assembler->buffered();
    prefdb::server::Frame frame;
    FrameAssembler::Next next = assembler->TryNext(&frame, oversized_len);
    if (next != FrameAssembler::Next::kFrame) return next;
    if (assembler->buffered() > before) __builtin_trap();
    out->push_back(std::move(frame));
  }
}

void CheckAssembler(const std::string& bytes) {
  // Every byte a client sends passes through a FrameAssembler. Chunk the
  // input with sizes taken from the input itself (1..64 bytes, like
  // short socket reads) and compare against one Append of all of it.
  constexpr size_t kCap = 4096;
  FrameAssembler whole(kCap);
  whole.Append(bytes.data(), bytes.size());
  std::vector<prefdb::server::Frame> expected;
  uint32_t expected_len = 0;
  FrameAssembler::Next expected_end =
      DrainFrames(&whole, &expected, &expected_len);

  FrameAssembler chunked(kCap);
  std::vector<prefdb::server::Frame> seen;
  uint32_t seen_len = 0;
  FrameAssembler::Next end = FrameAssembler::Next::kNeedMore;
  size_t pos = 0;
  for (;;) {
    end = DrainFrames(&chunked, &seen, &seen_len);
    // An oversized header ends framing: the server drains the connection.
    if (end == FrameAssembler::Next::kOversized || pos >= bytes.size()) {
      break;
    }
    size_t chunk = std::min<size_t>(
        1 + static_cast<unsigned char>(bytes[pos]) % 64, bytes.size() - pos);
    chunked.Append(bytes.data() + pos, chunk);
    pos += chunk;
  }

  if (end != expected_end || seen.size() != expected.size()) {
    __builtin_trap();
  }
  if (end == FrameAssembler::Next::kOversized && seen_len != expected_len) {
    __builtin_trap();
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (seen[i].payload.size() > kCap) __builtin_trap();
    if (seen[i].type != expected[i].type ||
        seen[i].payload != expected[i].payload) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size >= prefdb::server::kFrameHeaderBytes) {
    prefdb::server::FrameType type;
    (void)prefdb::server::DecodeFrameHeader(data, &type);
  }
  std::string payload(reinterpret_cast<const char*>(data), size);
  CheckResult(payload);
  CheckDelta(payload);
  CheckInsert(payload);
  CheckTagged(payload);
  CheckAssembler(payload);
  return 0;
}
