// Typed per-session options: the one parse/validate/serialize path for
// the wire `SET name=value` vocabulary, shared by the server (applying
// incoming kSet frames), the client (Client::Configure renders a struct
// into SET frames), and tests (build the struct, assert on the struct).
//
// Vocabulary:
//
//   threads=<n>            kernel threads per query; n>1 also re-enables
//                          kAuto's parallel plans (serving opts out by
//                          default — the worker pool is the parallelism)
//   timeout_ms=<n>         per-query deadline (0 = none)
//   vectorize=on|off       score-table kernels vs closure baseline
//   algorithm=auto|naive|bnl|sfs|dc|parallel
//   simd=auto|scalar|avx2
//   max_pending_deltas=<n> per-subscription server-side delta bound
//                          before coalescing (0 = engine default);
//                          applies to subscriptions opened after the SET

#ifndef PREFDB_SERVER_SESSION_OPTIONS_H_
#define PREFDB_SERVER_SESSION_OPTIONS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/bmo.h"

namespace prefdb::server {

struct SessionOptions {
  /// Kernel options for this session's queries. `threads` writes
  /// num_threads (and flips parallel_threshold, see Apply); vectorize /
  /// algorithm / simd write their fields directly.
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
  /// sequence that reproduces this struct on a fresh session. Only
  /// wire-settable fields are emitted (bnl_tile_rows etc. are not part
  /// of the SET vocabulary).
  std::vector<std::pair<std::string, std::string>> Serialize() const;
};

}  // namespace prefdb::server

#endif  // PREFDB_SERVER_SESSION_OPTIONS_H_
