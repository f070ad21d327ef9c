// Typed per-session options: the one parse/validate/serialize path for
// the wire `SET name=value` vocabulary, shared by the server (applying
// incoming kSet frames), the client (Client::Configure renders a struct
// into SET frames), and tests (build the struct, assert on the struct).
//
// Vocabulary:
//
//   timeout_ms=<n>         per-query deadline (0 = none, at most
//                          kMaxTimeoutMs)
//   algorithm=auto|naive|bnl|sfs  (naive = the closure oracle)
//   simd=auto|scalar|avx2
//   max_pending_deltas=<n> per-subscription server-side delta bound
//                          before coalescing (0 = engine default);
//                          applies to subscriptions opened after the SET
//
// Counts (<n>) are decimal digits only: no sign, no whitespace.
// Every query runs on one server worker thread; there is no per-query
// thread option.

#ifndef PREFDB_SERVER_SESSION_OPTIONS_H_
#define PREFDB_SERVER_SESSION_OPTIONS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/bmo.h"

namespace prefdb::server {

struct SessionOptions {
  /// Largest accepted timeout_ms: one week. It keeps the deadline
  /// `now + timeout` far inside the steady clock's nanosecond range.
  static constexpr uint64_t kMaxTimeoutMs = 7ull * 24 * 3600 * 1000;

  /// Kernel options for this session's queries; algorithm / simd write
  /// their fields directly.
  BmoOptions bmo;
  /// Per-query deadline in milliseconds (0 = none).
  uint64_t timeout_ms = 30000;
  /// Per-subscription pending-delta bound (0 = engine default).
  size_t max_pending_deltas = 0;

  /// Applies one option. Returns "" on success, else a human-readable
  /// error (the server wraps it in a kBadArgument error frame). Unknown
  /// names and malformed values leave the struct untouched.
  std::string Apply(const std::string& name, const std::string& value);

  /// Applies one wire-form "name=value" kSet payload.
  std::string ApplyWire(const std::string& payload);

  /// Renders the full option set as (name, value) pairs — the SET
  /// sequence that reproduces this struct on a fresh session.
  std::vector<std::pair<std::string, std::string>> Serialize() const;
};

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_SESSION_OPTIONS_H_
