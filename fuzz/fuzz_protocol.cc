// Fuzz harness for the wire codec (server/protocol.h) and the server's
// frame reassembly (FrameAssembler, server/wire_io.h): frame headers,
// value/row decoding, result parsing, and chunked reassembly of the raw
// client byte stream. Invariants under test:
//
//  - no decoder crashes, hangs, or overflows on arbitrary bytes (the
//    payload is attacker-controlled up to the frame cap);
//  - decoding always makes forward progress (*pos never moves backwards —
//    the 'S' length-wrap bug fixed in this PR violated exactly this);
//  - a payload that parses re-serializes to a payload that parses to the
//    same shape (round-trip stability);
//  - reassembly does not depend on how the stream was chunked: any
//    chunking yields the frames (and the final oversized/need-more
//    verdict) of a one-shot append, and no frame exceeds the cap.
//
// Links against libFuzzer under -DPREFDB_FUZZERS=ON; otherwise
// fuzz/driver_main.cc replays the seed corpus in plain ctest.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "psql/executor.h"
#include "server/protocol.h"
#include "server/wire_io.h"

namespace {

void CheckRows(const std::string& payload) {
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t before = pos;
    auto row = prefdb::server::DecodeRow(payload, &pos);
    if (!row) break;
    if (pos <= before) __builtin_trap();  // no forward progress
  }
}

void CheckDelta(const std::string& payload) {
  auto parsed = prefdb::server::ParseDelta(payload);
  if (!parsed) return;
  // Round-trip: a parsed delta must re-serialize to a payload that
  // parses back to the same shape (the server pushes exactly this).
  std::string wire = prefdb::server::SerializeDelta(
      parsed->subscription, parsed->enters.schema(), parsed->version,
      parsed->resync, parsed->enters.tuples(), parsed->exits.tuples());
  auto reparsed = prefdb::server::ParseDelta(wire);
  if (!reparsed) __builtin_trap();
  if (reparsed->subscription != parsed->subscription) __builtin_trap();
  if (reparsed->version != parsed->version) __builtin_trap();
  if (reparsed->resync != parsed->resync) __builtin_trap();
  if (reparsed->enters.size() != parsed->enters.size()) __builtin_trap();
  if (reparsed->exits.size() != parsed->exits.size()) __builtin_trap();
}

void CheckResult(const std::string& payload) {
  auto parsed = prefdb::server::ParseResult(payload);
  if (!parsed) return;
  // Round-trip: a parsed result must re-serialize to a parseable payload
  // of identical shape.
  prefdb::psql::QueryResult result;
  result.relation = parsed->relation;
  result.utilities = parsed->utilities;
  result.stats.kernel = parsed->kernel;
  auto reparsed =
      prefdb::server::ParseResult(prefdb::server::SerializeResult(result));
  if (!reparsed) __builtin_trap();
  if (reparsed->relation.size() != parsed->relation.size()) __builtin_trap();
  if (reparsed->utilities.size() != parsed->utilities.size()) {
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
  CheckRows(payload);
  CheckResult(payload);
  CheckDelta(payload);
  CheckTagged(payload);
  CheckAssembler(payload);
  return 0;
}
