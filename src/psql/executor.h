// Preference SQL query results: the value types every execution entry
// point returns (Engine::Execute, PreparedQuery::Run, the wire protocol's
// result frames).
//
// The execution pipeline itself lives in the stateful engine
// (engine/engine.h): parse -> hard selection (WHERE) -> BMO preference
// evaluation (PREFERRING/CASCADE) or ranked retrieval (TOP k / RANKED) ->
// quality filter (BUT ONLY) -> projection -> LIMIT. The legacy stateless
// free functions (Execute / ExecuteQuery) that used to live here
// re-parsed and re-compiled on every call; they have been removed — hold
// a prefdb::Engine.

#ifndef PREFDB_PSQL_EXECUTOR_H_
#define PREFDB_PSQL_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "psql/catalog.h"

namespace prefdb::psql {

/// Per-phase wall-clock counters and cache outcomes for one query
/// execution. Counters report time spent in *this* call: a phase served
/// from an engine cache reports 0 ns and sets the corresponding hit flag.
struct QueryStats {
  uint64_t parse_ns = 0;
  uint64_t translate_ns = 0;
  uint64_t optimize_ns = 0;
  uint64_t compile_ns = 0;  // WHERE filter + projection index + score table
  /// BMO kernel / ranked sort (plus a BMO statement's BUT ONLY filter
  /// over its answer) this call ran: the exec-cache entry's build on a
  /// miss, 0 on a hit, which serves the entry's memoized rows.
  uint64_t kernel_ns = 0;
  /// kernel_ns + materialization (the gather of the answer rows and the
  /// projection).
  uint64_t execute_ns = 0;
  uint64_t total_ns = 0;
  /// Parse+translate served from the engine's plan cache (always true for
  /// PreparedQuery::Run, which holds its plan).
  bool plan_cache_hit = false;
  /// Optimize, compile and kernel served from the engine's exec cache,
  /// which memoizes each statement's answer rows.
  bool exec_cache_hit = false;
  /// Always 0: no plan is costed any more (kAuto picks BNL or SFS while
  /// it runs, and EXPLAIN reports where it switched). Kept for readers
  /// that still consume the field.
  double estimated_cost_ns = 0.0;
  /// Cumulative LRU evictions of the engine's caches at the time of this
  /// run (see EngineOptions::{plan,exec}_cache_capacity).
  uint64_t plan_cache_evictions = 0;
  uint64_t exec_cache_evictions = 0;
  /// Kernel variant that finished the BMO stage when the answer was
  /// built, e.g. "bnl[avx2,tile=8192]", "sfs[scalar]" (also when kAuto
  /// switched to SFS mid-pass), "per-group[avx2]", "closure",
  /// "ivm-delta" (empty for ranked / preference-less plans).
  std::string kernel;

  /// One-line human-readable rendering for the REPL and EXPLAIN.
  std::string ToString() const;
};

struct QueryResult {
  Relation relation;
  /// The preference term the PREFERRING clause translated to ("" if none).
  std::string preference_term;
  /// EXPLAIN-style plan summary.
  std::string plan;
  /// Optimizer report (rewrites + algorithm rationale); filled for
  /// EXPLAIN queries.
  std::string plan_details;
  /// Ranked queries (TOP k / RANKED): utilities aligned 1:1 with
  /// relation's rows, descending. Empty for BMO queries.
  std::vector<double> utilities;
  /// Per-phase timing and cache outcomes.
  QueryStats stats;
};

}  // namespace prefdb::psql

#endif  // PREFDB_PSQL_EXECUTOR_H_
