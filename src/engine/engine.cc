#include "engine/engine.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "eval/bmo_internal.h"
#include "eval/optimizer.h"
#include "eval/ranked.h"
#include "exec/score_table.h"
#include "psql/error.h"
#include "psql/translator.h"

namespace prefdb {

namespace engine_internal {

/// Data-independent half of a statement: parsed AST + translated
/// preference term. Immutable once cached; shared by every PreparedQuery
/// and exec-cache entry for the statement.
struct Plan {
  psql::SelectStatement stmt;
  PrefPtr preference;  // translated PREFERRING/CASCADE chain; may be null
  std::string key;     // normalized statement text (plan-cache key)
  uint64_t parse_ns = 0;
  uint64_t translate_ns = 0;
};

/// Data-dependent half: everything derivable from (plan, table snapshot,
/// options) that repeated Run() calls should not redo — the WHERE row
/// set, the PhysicalPlan and, for BMO statements, the compiled blocks
/// (eval/bmo_internal.h): one over the candidate pool, or one per group
/// for GROUPING statements. A block holds only what a run reads: its row
/// map and score table, and the distinct projected Tuples only on the
/// closure fallback (terms that do not compile, vectorize=false).
/// Immutable once built; concurrent Run() calls share it.
struct Exec {
  std::string table_name;
  uint64_t version = 0;
  std::shared_ptr<const Relation> snapshot;
  /// True when filtered_rows is a proper subset view; false means "all
  /// rows" (no identity vector is materialized for WHERE-less statements).
  bool use_row_subset = false;
  /// The candidate pool: WHERE survivors — and for ranked queries, the
  /// BUT ONLY quality bound too (ranking draws from qualifying rows, so
  /// TOP k fills k whenever k qualifying rows exist). A plain LIMIT
  /// statement (no preference, ranking or grouping) keeps only the first
  /// limit + 1 candidates: the extra row tells the LIMIT stage it cuts.
  std::vector<size_t> filtered_rows;
  std::function<bool(const Tuple&)> but_only;  // null when absent
  std::string preference_term;
  std::string plan_prefix;   // scan -> where -> bmo/ranked stage
  std::string plan_details;  // optimizer / ranked EXPLAIN text
  std::string kernel_variant;  // BMO kernel label (QueryStats.kernel)
  PrefPtr exec_pref;  // term actually evaluated (simplified when routed)
  /// The planned artifact: algorithm, kernel fields, parallel shape,
  /// statistics and the per-algorithm cost table. For GROUPING, the
  /// statement-level plan; each block carries its own.
  PhysicalPlan plan;
  /// BMO kernel inputs (every path but decomposition): one block over
  /// the candidate pool, or blocks[g] over groups[g] for GROUPING.
  std::vector<internal::CompiledBlock> blocks;
  /// GROUPING (BMO and ranked): the candidate pool's global rows per
  /// group, groups in first-occurrence order.
  std::vector<std::vector<size_t>> groups;
  // Decomposition path: materialized WHERE result for the relation-level
  // cascade evaluator (null otherwise).
  std::shared_ptr<const Relation> filtered;
  // IVM-refreshed entry (subscribed statements): filtered_rows IS the
  // maintained result set, so execution is pure row materialization —
  // no kernel work. Written by Engine::RefreshViewExec on mutation.
  bool ivm = false;
  // Ranked path (§6.2): bound utility.
  bool ranked = false;
  ScoreFn utility;
  uint64_t optimize_ns = 0;
  uint64_t compile_ns = 0;

  /// Heap bytes this entry owns: row vectors and the compiled blocks
  /// (row maps, score and id buffers; distinct Tuples only on the
  /// closure fallback). Not counted: the relation snapshot (the
  /// catalog's, shared) and the decomposition path's materialized WHERE
  /// relation.
  size_t HeapBytes() const {
    using internal::VectorBytes;
    size_t bytes = VectorBytes(filtered_rows) + VectorBytes(blocks) +
                   VectorBytes(groups);
    for (const internal::CompiledBlock& block : blocks) {
      bytes += block.HeapBytes();
    }
    for (const std::vector<size_t>& rows : groups) bytes += VectorBytes(rows);
    return bytes;
  }
};

}  // namespace engine_internal

namespace {

using engine_internal::Exec;
using engine_internal::Plan;
using internal::AppendMaximalRows;
using internal::CompileBlock;
using internal::CompiledBlock;
using internal::GroupMaximalRows;
using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

// Option fields that change the compiled exec state: algorithm choice
// inputs, the vectorization switch and the kernel policy.
std::string OptionsSignature(const BmoOptions& o) {
  return std::to_string(static_cast<int>(o.algorithm)) + ":" +
         std::to_string(o.num_threads) + ":" +
         std::to_string(o.parallel_threshold) + ":" +
         (o.vectorize ? "v" : "c") + ":" + SimdModeName(o.simd) + ":" +
         std::to_string(o.bnl_tile_rows);
}

std::string TopKText(size_t k) {
  return k > 0 ? "k=" + std::to_string(k) : "k=all";
}

// EXPLAIN's compile line: how each compiled block met its pool — as it
// is ("zero-copy": identity row map) or deduplicated first ("dedup") —
// with per-path block counts for GROUPING statements. Empty when nothing
// compiled.
std::string CompilePaths(const std::vector<CompiledBlock>& blocks,
                         bool grouped) {
  size_t identity = 0;
  size_t dedup = 0;
  for (const CompiledBlock& block : blocks) {
    if (block.table) ++(block.identity() ? identity : dedup);
  }
  std::string out;
  for (const auto& [path, count] :
       {std::pair<const char*, size_t>{"zero-copy", identity},
        std::pair<const char*, size_t>{"dedup", dedup}}) {
    if (count == 0) continue;
    out += (out.empty() ? "compile: " : ", ") + std::string(path);
    if (grouped) out += " " + std::to_string(count);
  }
  return out.empty() ? out : out + "\n";
}

// Builds the exec entry for (plan, snapshot, options). Heavy: runs the
// WHERE filter, the statistics-driven planner and the score-table
// compiler. Called without engine locks; everything it touches is
// immutable shared state. `table_stats` is the engine's per-table
// statistics snapshot (may be null when the plan is explicit and no
// EXPLAIN is requested).
std::shared_ptr<const Exec> BuildExec(const Plan& plan,
                                      const BmoOptions& options,
                                      std::shared_ptr<const Relation> snapshot,
                                      uint64_t version,
                                      const TableStats* table_stats) {
  const psql::SelectStatement& stmt = plan.stmt;
  auto exec = std::make_shared<Exec>();
  exec->table_name = stmt.table;
  exec->version = version;
  exec->snapshot = std::move(snapshot);
  const Relation& table = *exec->snapshot;

  std::string plan_str = "scan(" + stmt.table + ")";

  const PrefPtr& preference = plan.preference;
  // A plain LIMIT statement (no preference, ranking or grouping) returns
  // the first `limit` candidates, so the pool stops one past them: the
  // extra row tells the LIMIT stage it truncates.
  const size_t pool_cap =
      !preference && !stmt.ranked && stmt.grouping.empty() && stmt.limit > 0
          ? stmt.limit + 1
          : table.size();

  // Hard selection (exact-match world). Row indices, not a copy; the
  // WHERE-less case keeps "all rows" implicit instead of materializing an
  // identity vector per cached entry.
  Clock::time_point t0 = Clock::now();
  if (stmt.where) {
    auto pred = psql::CompileCondition(*stmt.where, table.schema());
    for (size_t i = 0;
         i < table.size() && exec->filtered_rows.size() < pool_cap; ++i) {
      if (pred(table.RowAt(i))) exec->filtered_rows.push_back(i);
    }
    exec->use_row_subset = true;
    plan_str += " -> where[" + stmt.where->ToString() + "]";
  } else if (pool_cap < table.size()) {
    exec->filtered_rows.resize(pool_cap);
    std::iota(exec->filtered_rows.begin(), exec->filtered_rows.end(), 0);
    exec->use_row_subset = true;
  }
  exec->compile_ns += ElapsedNs(t0, Clock::now());

  if (stmt.ranked && !preference) {
    // Unreachable through the parser; guards hand-built statements.
    throw std::invalid_argument("TOP/RANKED requires a PREFERRING clause");
  }

  // Quality supervision predicate (throws without a preference, exactly
  // like the legacy executor).
  if (stmt.but_only) {
    exec->but_only = psql::CompileQualityCondition(*stmt.but_only, preference,
                                                   table.schema());
  }

  if (preference && stmt.ranked) {
    // §6.2 ranked model: descending combined utility instead of BMO.
    exec->ranked = true;
    exec->preference_term = preference->ToString();
    t0 = Clock::now();
    exec->utility = BindRankedUtility(preference, table.schema());
    exec->optimize_ns += ElapsedNs(t0, Clock::now());
    t0 = Clock::now();
    if (exec->but_only) {
      // Unlike BMO (where BUT ONLY supervises the best-matches result),
      // ranking draws from the qualifying pool: TOP k returns k rows
      // whenever k rows satisfy the quality bound.
      std::vector<size_t> pool;
      const size_t n =
          exec->use_row_subset ? exec->filtered_rows.size() : table.size();
      for (size_t i = 0; i < n; ++i) {
        size_t row = exec->use_row_subset ? exec->filtered_rows[i] : i;
        if (exec->but_only(table.RowAt(row))) pool.push_back(row);
      }
      exec->filtered_rows = std::move(pool);
      exec->use_row_subset = true;
      plan_str += " -> but_only[" + stmt.but_only->ToString() + "]";
    }
    if (!stmt.grouping.empty()) {
      // Def. 16 grouping under the ranked model: top k per group, groups
      // in deterministic first-occurrence order of the candidate pool.
      exec->groups =
          GroupRowsBy(table, table.ResolveColumns(stmt.grouping),
                      exec->use_row_subset ? &exec->filtered_rows : nullptr);
      plan_str += " -> ranked_groupby[" + exec->preference_term + ", " +
                  TopKText(stmt.top_k) + "]";
    } else {
      plan_str += " -> ranked[" + exec->preference_term + ", " +
                  TopKText(stmt.top_k) + "]";
    }
    exec->compile_ns += ElapsedNs(t0, Clock::now());
    if (stmt.explain) {
      exec->plan_details =
          "preference: " + exec->preference_term + "\n" +
          "model: ranked (k-best, §6.2); " + TopKText(stmt.top_k) +
          "\n" +
          "utility: " +
          (dynamic_cast<const RankPreference*>(preference.get()) != nullptr
               ? "rank(F) combined utility"
               : "derived single sort key") +
          ", descending; ties broken by input order\n";
    }
  } else if (preference) {
    exec->preference_term = preference->ToString();
    // Stage 1 — statistics-level planning. Mirror the legacy routing:
    // the optimizer runs for EXPLAIN or kAuto (simplify + cost model
    // over the engine's incremental table statistics); an explicit
    // algorithm skips rewrites and becomes a pass-through plan.
    PrefPtr exec_pref = preference;
    const size_t pool_size =
        exec->use_row_subset ? exec->filtered_rows.size() : table.size();
    PhysicalPlan physical = PhysicalPlan::FromOptions(options);
    OptimizedQuery optimized;
    bool costed = false;
    if (stmt.explain || options.algorithm == BmoAlgorithm::kAuto) {
      t0 = Clock::now();
      TableStats empty;
      empty.rows = table.size();
      optimized = Optimize(table_stats != nullptr ? *table_stats : empty,
                           pool_size, preference, options);
      exec->optimize_ns += ElapsedNs(t0, Clock::now());
      exec_pref = optimized.simplified;
      if (options.algorithm == BmoAlgorithm::kAuto) {
        physical = optimized.plan;
        costed = true;
      }
      if (stmt.explain) exec->plan_details = optimized.Explain();
    }
    exec->exec_pref = exec_pref;

    if (physical.algorithm == BmoAlgorithm::kDecomposition) {
      // Decomposition cascade: relation-level evaluator; materialize the
      // WHERE result once and share it.
      t0 = Clock::now();
      exec->filtered =
          stmt.where ? std::make_shared<const Relation>(
                           table.SelectRows(exec->filtered_rows))
                     : exec->snapshot;
      exec->plan = physical;
      exec->compile_ns += ElapsedNs(t0, Clock::now());
      exec->kernel_variant = "closure";  // Prop 11 cascade, closure order
    } else {
      // Stage 2 — compile each block once and refine its plan with the
      // measured block statistics (exact distinct counts, injectivity,
      // the sampled window probe): one block over the candidate pool, or
      // one per group (Def. 16), so warm runs do only kernel work.
      t0 = Clock::now();
      const std::vector<size_t>* pool_ptr =
          exec->use_row_subset ? &exec->filtered_rows : nullptr;
      PlanScope scope;
      scope.allow_decomposition = false;
      if (stmt.grouping.empty()) {
        exec->blocks.push_back(
            CompileBlock(table, exec_pref, pool_ptr, options, scope));
      } else {
        exec->groups = GroupRowsBy(
            table, table.ResolveColumns(stmt.grouping), pool_ptr);
        // Multiple groups saturate the pool themselves; a single
        // (degenerate) group runs inline, so partition-parallelism inside
        // it stays on the table.
        scope.allow_parallel = exec->groups.size() == 1;
        exec->blocks.reserve(exec->groups.size());
        for (const std::vector<size_t>& rows : exec->groups) {
          exec->blocks.push_back(
              CompileBlock(table, exec_pref, &rows, options, scope));
        }
      }
      uint64_t plan_ns = 0;
      for (const CompiledBlock& block : exec->blocks) {
        plan_ns += block.plan_ns;
      }
      exec->compile_ns += ElapsedNs(t0, Clock::now()) - plan_ns;
      exec->optimize_ns += plan_ns;
      if (stmt.grouping.empty()) {
        // The block saw the actual data, so its plan supersedes the
        // estimate-level one.
        exec->plan = exec->blocks[0].plan;
        if (costed && stmt.explain) {
          optimized.plan = exec->plan;
          exec->plan_details = optimized.Explain();
        }
        exec->kernel_variant = exec->blocks[0].KernelVariant();
      } else {
        // The grouped statement's estimate is the sum of the per-group
        // plans actually executed — the stage-1 table-level estimate
        // would make EXPLAIN's estimated-vs-actual comparison meaningless.
        if (costed) {
          physical.estimated_ns = 0.0;
          for (const CompiledBlock& block : exec->blocks) {
            physical.estimated_ns += block.plan.estimated_ns;
          }
          if (stmt.explain) {
            // The cost table above is the stage-1 table-level view; make
            // explicit that execution runs one refined plan per group and
            // that the reported estimate is their sum.
            exec->plan_details +=
                "grouping: " + std::to_string(exec->groups.size()) +
                " group(s), plans refined per group; estimated cost is "
                "the per-group sum\n";
          }
        }
        exec->plan = physical;
        exec->kernel_variant =
            options.vectorize && ScoreTable::CompilableTerm(exec_pref)
                ? std::string("per-group[") +
                      simd::ResolveKernel(options.simd).name + "]"
                : "closure";
      }
    }
    plan_str += std::string(stmt.grouping.empty() ? " -> bmo[" : " -> bmo_groupby[") +
                exec_pref->ToString() + ", " +
                BmoAlgorithmName(exec->plan.algorithm) +
                ", kernel=" + exec->kernel_variant + "]";
    if (stmt.explain && !exec->plan_details.empty()) {
      exec->plan_details += "kernel: " + exec->kernel_variant + "\n" +
                            CompilePaths(exec->blocks, !stmt.grouping.empty());
    }
  }

  exec->plan_prefix = std::move(plan_str);
  return exec;
}

// Executes a compiled plan: kernel work + materialization only, steered
// entirely by the cached PhysicalPlan (per group for GROUPING). Pure
// function of immutable shared state — safe to run concurrently.
psql::QueryResult ExecuteExec(const Plan& plan, const Exec& exec) {
  const psql::SelectStatement& stmt = plan.stmt;
  const Relation& table = *exec.snapshot;
  psql::QueryResult result;
  result.preference_term = exec.preference_term;
  result.plan_details = exec.plan_details;
  std::string plan_str = exec.plan_prefix;

  Relation current;
  std::vector<double> utilities;
  const bool subset = exec.use_row_subset;

  if (exec.ivm) {
    // Maintained view: the result row set is already known exactly.
    current = table.SelectRows(exec.filtered_rows);
  } else if (exec.ranked) {
    // WHERE and BUT ONLY were folded into the candidate pool at compile.
    std::vector<size_t> rows;
    if (!stmt.grouping.empty()) {
      for (const auto& group : exec.groups) {
        RankedRows rr = TopKRows(table, exec.utility, stmt.top_k, &group);
        for (size_t i = 0; i < rr.rows.size(); ++i) {
          rows.push_back(group[rr.rows[i]]);
          utilities.push_back(rr.utilities[i]);
        }
      }
    } else {
      RankedRows rr = TopKRows(table, exec.utility, stmt.top_k,
                               subset ? &exec.filtered_rows : nullptr);
      for (size_t i = 0; i < rr.rows.size(); ++i) {
        rows.push_back(subset ? exec.filtered_rows[rr.rows[i]] : rr.rows[i]);
        utilities.push_back(rr.utilities[i]);
      }
    }
    current = table.SelectRows(rows);
  } else if (plan.preference) {
    if (exec.filtered) {
      // Decomposition cascade (grouped or not): relation-level evaluator
      // over the materialized WHERE result.
      BmoOptions run_options;
      run_options.algorithm = BmoAlgorithm::kDecomposition;
      current = stmt.grouping.empty()
                    ? Bmo(*exec.filtered, exec.exec_pref, run_options)
                    : BmoGroupBy(*exec.filtered, exec.exec_pref,
                                 stmt.grouping, run_options);
    } else if (stmt.grouping.empty()) {
      std::vector<size_t> rows;
      AppendMaximalRows(exec.exec_pref, exec.blocks[0],
                        subset ? &exec.filtered_rows : nullptr, &rows);
      current = table.SelectRows(rows);
    } else {
      // GROUPING: per-group kernel work over the cached blocks.
      current = table.SelectRows(GroupMaximalRows(
          exec.groups.size(), exec.plan.num_threads,
          [&exec](size_t g, std::vector<size_t>* out) {
            AppendMaximalRows(exec.exec_pref, exec.blocks[g],
                              &exec.groups[g], out);
          }));
    }
    if (exec.but_only) {
      current = current.Filter(exec.but_only);
      plan_str += " -> but_only[" + stmt.but_only->ToString() + "]";
    }
  } else {
    current = subset ? table.SelectRows(exec.filtered_rows) : table;
  }

  // Projection.
  if (!stmt.select_list.empty()) {
    current = current.Project(stmt.select_list);
    plan_str += " -> project";
  }

  // LIMIT.
  if (stmt.limit > 0 && current.size() > stmt.limit) {
    std::vector<size_t> head(stmt.limit);
    std::iota(head.begin(), head.end(), 0);
    current = current.SelectRows(head);
    plan_str += " -> limit " + std::to_string(stmt.limit);
  }
  if (exec.ranked && utilities.size() > current.size()) {
    utilities.resize(current.size());
  }

  result.relation = std::move(current);
  result.utilities = std::move(utilities);
  result.plan = std::move(plan_str);
  return result;
}

}  // namespace

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    if (in_string) {
      out += c;
      if (c == '\'') in_string = false;
      continue;
    }
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') ++i;  // SQL line comment
      pending_space = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = true;
      continue;
    }
    if (pending_space && !out.empty()) out += ' ';
    pending_space = false;
    out += c;
    if (c == '\'') in_string = true;
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

// ---------------------------------------------------------------------------
// PreparedQuery

psql::QueryResult PreparedQuery::Run() const { return Run(options_); }

psql::QueryResult PreparedQuery::Run(const BmoOptions& options) const {
  psql::QueryStats stats;
  stats.plan_cache_hit = true;  // the prepared plan is already bound
  return engine_->RunWithStats(*plan_, options, stats, Clock::now());
}

const psql::SelectStatement& PreparedQuery::statement() const {
  return plan_->stmt;
}

const std::string& PreparedQuery::normalized_sql() const { return plan_->key; }

std::string PreparedQuery::preference_term() const {
  return plan_->preference ? plan_->preference->ToString() : "";
}

// ---------------------------------------------------------------------------
// Engine

Engine::Engine(EngineOptions options) : options_(std::move(options)) {
  plan_cache_.set_capacity(options_.plan_cache_capacity);
  exec_cache_.set_capacity(options_.exec_cache_capacity);
}

Engine::Engine(const psql::Catalog& catalog, EngineOptions options)
    : options_(std::move(options)), catalog_(catalog) {
  plan_cache_.set_capacity(options_.plan_cache_capacity);
  exec_cache_.set_capacity(options_.exec_cache_capacity);
}

Engine::~Engine() {
  // Wake every blocked subscriber before members tear down; handles that
  // still exist see closed() and drain.
  std::vector<std::shared_ptr<ivm::SubscriptionState>> to_close;
  {
    auto lock = Lock();
    for (auto& [table, slots] : views_) {
      for (auto& slot : slots) {
        for (auto& [id, state] : slot->subs) to_close.push_back(state);
      }
    }
    views_.clear();
  }
  for (auto& state : to_close) state->Close();
}

void Engine::RegisterTable(const std::string& name, Relation relation) {
  // Wholesale replacement has no incremental delta (the schema may even
  // change): subscriptions on the table end here.
  std::vector<std::shared_ptr<ivm::SubscriptionState>> to_close;
  {
    auto lock = Lock();
    catalog_.Register(name, std::move(relation));
    InvalidateTable(name);
    auto it = views_.find(name);
    if (it != views_.end()) {
      for (auto& slot : it->second) {
        for (auto& [id, state] : slot->subs) to_close.push_back(state);
      }
      views_.erase(it);
    }
  }
  for (auto& state : to_close) state->Close();
}

void Engine::Insert(const std::string& name, Tuple row) {
  // Copy-on-write: readers keep their snapshot, the catalog swaps in the
  // appended relation under a bumped version. The O(n) copy runs outside
  // the engine mutex so concurrent queries never stall behind it; a
  // version check before the swap restarts the copy if another mutation
  // won the race.
  for (;;) {
    std::shared_ptr<const Relation> snapshot;
    uint64_t version = 0;
    {
      auto lock = Lock();
      snapshot = catalog_.GetShared(name);  // throws when unknown
      version = catalog_.Version(name);
    }
    Relation next = *snapshot;
    next.Add(row);
    auto lock = Lock();
    if (catalog_.Version(name) != version) continue;  // raced; redo the copy
    catalog_.Register(name, std::move(next));
    // Invalidate dependent exec state, then roll the statistics forward
    // incrementally (O(columns), no rescan) when we have them for the
    // superseded version.
    const uint64_t new_version = catalog_.Version(name);
    StatsEntry entry;
    bool stats_fresh = false;
    if (auto stats_it = stats_cache_.find(name);
        stats_it != stats_cache_.end() &&
        stats_it->second.version == version &&
        stats_it->second.builder != nullptr) {
      entry = std::move(stats_it->second);
      stats_fresh = true;
    }
    InvalidateTable(name);  // also drops the (now stale) stats entry
    if (stats_fresh) {
      entry.builder->AddRow(row);
      entry.version = new_version;
      entry.stats =
          std::make_shared<const TableStats>(entry.builder->Snapshot());
      stats_cache_[name] = std::move(entry);
    }
    // Maintained views: one batch-kernel pass against each view's
    // antichain, delta fan-out, and the exec-cache refresh — all inside
    // this critical section, so subscribers observe the same mutation
    // order the versions record. The new row's table index is the old
    // snapshot's size (Add appends).
    NotifyViewsInsert(name, row, snapshot->size(), new_version);
    return;
  }
}

size_t Engine::Delete(const std::string& name,
                      const std::function<bool(const Tuple&)>& pred) {
  // Same copy-on-write discipline as Insert: partition + survivor copy
  // run outside the engine mutex; a version check before the swap
  // restarts when another mutation won the race.
  for (;;) {
    std::shared_ptr<const Relation> snapshot;
    uint64_t version = 0;
    {
      auto lock = Lock();
      snapshot = catalog_.GetShared(name);  // throws when unknown
      version = catalog_.Version(name);
    }
    std::vector<size_t> deleted;
    std::vector<size_t> survivors;
    survivors.reserve(snapshot->size());
    for (size_t i = 0; i < snapshot->size(); ++i) {
      if (!pred || pred(snapshot->RowAt(i))) {
        deleted.push_back(i);
      } else {
        survivors.push_back(i);
      }
    }
    if (deleted.empty()) return 0;  // nothing matched: no version bump
    Relation next = snapshot->SelectRows(survivors);
    auto lock = Lock();
    if (catalog_.Version(name) != version) continue;  // raced; redo the scan
    catalog_.Register(name, std::move(next));
    const uint64_t new_version = catalog_.Version(name);
    // Row removal cannot roll TableStats forward (distinct/null counters
    // are additive only): InvalidateTable drops the entry and the next
    // Stats() call rescans.
    InvalidateTable(name);
    NotifyViewsDelete(name, deleted, new_version);
    return deleted.size();
  }
}

bool Engine::HasTable(const std::string& name) const {
  auto lock = Lock();
  return catalog_.Has(name);
}

std::shared_ptr<const Relation> Engine::Snapshot(
    const std::string& name) const {
  auto lock = Lock();
  return catalog_.GetShared(name);
}

uint64_t Engine::TableVersion(const std::string& name) const {
  auto lock = Lock();
  return catalog_.Version(name);
}

std::vector<std::string> Engine::TableNames() const {
  auto lock = Lock();
  return catalog_.TableNames();
}

void Engine::InvalidateTable(const std::string& name) {
  stats_.invalidations += exec_cache_.EraseIf(
      [&name](const engine_internal::Exec& exec) {
        return exec.table_name == name;
      });
  stats_cache_.erase(name);
}

std::shared_ptr<const engine_internal::Plan> Engine::GetOrBuildPlan(
    const std::string& sql, psql::QueryStats* stats) {
  std::string key = NormalizeSql(sql);
  if (options_.enable_plan_cache) {
    auto lock = Lock();
    if (auto cached = plan_cache_.Get(key)) {
      ++stats_.plan_hits;
      stats->plan_cache_hit = true;
      return cached;
    }
  }
  auto plan = std::make_shared<Plan>();
  Clock::time_point t0 = Clock::now();
  plan->stmt = psql::Parse(sql);
  Clock::time_point t1 = Clock::now();
  plan->preference = psql::TranslatePreferenceChain(plan->stmt.preferring);
  Clock::time_point t2 = Clock::now();
  plan->parse_ns = ElapsedNs(t0, t1);
  plan->translate_ns = ElapsedNs(t1, t2);
  plan->key = std::move(key);
  stats->parse_ns = plan->parse_ns;
  stats->translate_ns = plan->translate_ns;
  auto lock = Lock();
  ++stats_.plan_misses;
  if (options_.enable_plan_cache) {
    // A racing Prepare may have inserted first; the entries are identical.
    stats_.plan_evictions += plan_cache_.Put(plan->key, plan);
  }
  return plan;
}

std::shared_ptr<const engine_internal::Plan> Engine::GetOrBuildPlan(
    const psql::SelectStatement& stmt, psql::QueryStats* stats) {
  std::string key = stmt.ToString();
  if (options_.enable_plan_cache) {
    auto lock = Lock();
    if (auto cached = plan_cache_.Get(key)) {
      ++stats_.plan_hits;
      stats->plan_cache_hit = true;
      return cached;
    }
  }
  auto plan = std::make_shared<Plan>();
  plan->stmt = stmt;
  Clock::time_point t0 = Clock::now();
  plan->preference = psql::TranslatePreferenceChain(stmt.preferring);
  plan->translate_ns = ElapsedNs(t0, Clock::now());
  plan->key = std::move(key);
  stats->translate_ns = plan->translate_ns;
  auto lock = Lock();
  ++stats_.plan_misses;
  if (options_.enable_plan_cache) {
    stats_.plan_evictions += plan_cache_.Put(plan->key, plan);
  }
  return plan;
}

std::shared_ptr<const engine_internal::Exec> Engine::GetOrBuildExec(
    const engine_internal::Plan& plan, const BmoOptions& options,
    psql::QueryStats* stats) {
  std::shared_ptr<const Relation> snapshot;
  uint64_t version = 0;
  std::string key;
  {
    auto lock = Lock();
    snapshot = catalog_.GetShared(plan.stmt.table);  // throws when unknown
    version = catalog_.Version(plan.stmt.table);
    if (options_.enable_exec_cache) {
      key = plan.key + "|" + OptionsSignature(options) + "|v" +
            std::to_string(version);
      if (auto cached = exec_cache_.Get(key)) {
        ++stats_.exec_hits;
        stats->exec_cache_hit = true;
        stats->plan_cache_evictions = stats_.plan_evictions;
        stats->exec_cache_evictions = stats_.exec_evictions;
        return cached;
      }
    }
  }
  // The statistics-level planner only runs for kAuto or EXPLAIN BMO
  // statements; skip the per-table stats snapshot otherwise.
  std::shared_ptr<const TableStats> table_stats;
  if (plan.preference && !plan.stmt.ranked &&
      (plan.stmt.explain || options.algorithm == BmoAlgorithm::kAuto)) {
    table_stats = GetStats(plan.stmt.table, version, snapshot);
  }
  // Build outside the lock: compilation may be heavy and must not block
  // concurrent queries. A racing build of the same key produces an
  // identical immutable entry; last writer wins.
  std::shared_ptr<const Exec> exec = BuildExec(
      plan, options, std::move(snapshot), version, table_stats.get());
  stats->optimize_ns = exec->optimize_ns;
  stats->compile_ns = exec->compile_ns;
  auto lock = Lock();
  ++stats_.exec_misses;
  // Don't cache an entry whose table version was bumped (and invalidated)
  // while we built: it could never be hit again and would pin the stale
  // snapshot + score table until the table's next mutation.
  if (options_.enable_exec_cache &&
      catalog_.Version(plan.stmt.table) == version) {
    stats_.exec_evictions += exec_cache_.Put(key, exec);
  }
  stats->plan_cache_evictions = stats_.plan_evictions;
  stats->exec_cache_evictions = stats_.exec_evictions;
  return exec;
}

std::shared_ptr<const TableStats> Engine::GetStats(
    const std::string& name, uint64_t version,
    const std::shared_ptr<const Relation>& snapshot) {
  {
    auto lock = Lock();
    auto it = stats_cache_.find(name);
    if (it != stats_cache_.end() && it->second.version == version &&
        it->second.stats != nullptr) {
      return it->second.stats;
    }
  }
  // Derive outside the lock (full scan of the snapshot), then publish
  // unless the table moved on while we scanned.
  auto builder = std::make_shared<TableStatsBuilder>(*snapshot);
  auto derived = std::make_shared<const TableStats>(builder->Snapshot());
  auto lock = Lock();
  if (catalog_.Has(name) && catalog_.Version(name) == version) {
    stats_cache_[name] = StatsEntry{version, std::move(builder), derived};
  }
  return derived;
}

std::shared_ptr<const TableStats> Engine::Stats(const std::string& name) {
  std::shared_ptr<const Relation> snapshot;
  uint64_t version = 0;
  {
    auto lock = Lock();
    snapshot = catalog_.GetShared(name);  // throws when unknown
    version = catalog_.Version(name);
  }
  return GetStats(name, version, snapshot);
}

psql::QueryResult Engine::RunWithStats(const engine_internal::Plan& plan,
                                       const BmoOptions& options,
                                       psql::QueryStats stats,
                                       std::chrono::steady_clock::time_point t0) {
  if (plan.stmt.is_delete) return RunDelete(plan, std::move(stats), t0);
  std::shared_ptr<const Exec> exec = GetOrBuildExec(plan, options, &stats);
  Clock::time_point t1 = Clock::now();
  psql::QueryResult result = ExecuteExec(plan, *exec);
  Clock::time_point t2 = Clock::now();
  stats.execute_ns = ElapsedNs(t1, t2);
  stats.total_ns = ElapsedNs(t0, t2);
  stats.kernel = exec->kernel_variant;
  stats.estimated_cost_ns = exec->plan.estimated_ns;
  // Eviction counters were copied under GetOrBuildExec's lock.
  result.stats = stats;
  if (plan.stmt.explain) {
    result.plan_details += "timing: " + stats.ToString() + "\n";
    if (exec->plan.estimated_ns > 0.0) {
      char line[96];
      std::snprintf(line, sizeof(line),
                    "cost: estimated %.3fms vs actual %.3fms\n",
                    exec->plan.estimated_ns / 1e6,
                    static_cast<double>(stats.execute_ns) / 1e6);
      result.plan_details += line;
    }
  }
  return result;
}

psql::QueryResult Engine::RunDelete(const engine_internal::Plan& plan,
                                    psql::QueryStats stats,
                                    std::chrono::steady_clock::time_point t0) {
  const psql::SelectStatement& stmt = plan.stmt;
  std::function<bool(const Tuple&)> pred;
  if (stmt.where) {
    // Compile against the current schema; DELETE has no cached exec (the
    // predicate is cheap next to the survivor copy).
    pred = psql::CompileCondition(*stmt.where, Snapshot(stmt.table)->schema());
  }
  Clock::time_point t1 = Clock::now();
  const size_t removed = Delete(stmt.table, pred);
  Clock::time_point t2 = Clock::now();
  psql::QueryResult result;
  Relation rel{Schema{{"deleted", ValueType::kInt}}};
  rel.Add(Tuple{Value(static_cast<int64_t>(removed))});
  result.relation = std::move(rel);
  result.plan = "delete(" + stmt.table + ")" +
                (stmt.where ? " -> where[" + stmt.where->ToString() + "]"
                            : std::string()) +
                " -> removed " + std::to_string(removed);
  stats.execute_ns = ElapsedNs(t1, t2);
  stats.total_ns = ElapsedNs(t0, t2);
  result.stats = stats;
  return result;
}

PreparedQuery Engine::Prepare(const std::string& sql) {
  return Prepare(sql, options_.bmo);
}

PreparedQuery Engine::Prepare(const std::string& sql,
                              const BmoOptions& options) {
  psql::QueryStats ignored;
  return PreparedQuery(this, GetOrBuildPlan(sql, &ignored), options);
}

PreparedQuery Engine::Prepare(const psql::SelectStatement& stmt) {
  return Prepare(stmt, options_.bmo);
}

PreparedQuery Engine::Prepare(const psql::SelectStatement& stmt,
                              const BmoOptions& options) {
  psql::QueryStats ignored;
  return PreparedQuery(this, GetOrBuildPlan(stmt, &ignored), options);
}

psql::QueryResult Engine::Execute(const std::string& sql) {
  return Execute(sql, options_.bmo);
}

psql::QueryResult Engine::Execute(const std::string& sql,
                                  const BmoOptions& options) {
  Clock::time_point t0 = Clock::now();
  psql::QueryStats stats;
  auto plan = GetOrBuildPlan(sql, &stats);
  return RunWithStats(*plan, options, stats, t0);
}

psql::QueryResult Engine::Execute(const psql::SelectStatement& stmt) {
  return Execute(stmt, options_.bmo);
}

psql::QueryResult Engine::Execute(const psql::SelectStatement& stmt,
                                  const BmoOptions& options) {
  Clock::time_point t0 = Clock::now();
  psql::QueryStats stats;
  auto plan = GetOrBuildPlan(stmt, &stats);
  return RunWithStats(*plan, options, stats, t0);
}

std::shared_ptr<const engine_internal::Plan> Engine::BuildTermPlan(
    const std::string& table, const PrefPtr& preference, bool ranked,
    size_t top_k) {
  if (!preference) {
    throw std::invalid_argument("a preference term is required");
  }
  // Synthetic statement: SELECT * FROM table with the term attached
  // directly (no SQL rendering exists for every term, e.g. rank(F)).
  // The "term:"/"ranked:" prefixes cannot collide with SQL plan keys —
  // such a text would fail to parse before insertion. The key includes
  // the term's object identity because ToString() is not injective
  // (SubsetPreference renders only its subset size, rank(F) only its
  // function name); the cached plan's shared_ptr keeps the object alive,
  // so its address cannot be reused by a different live term.
  char identity[32];
  std::snprintf(identity, sizeof(identity), "%p",
                static_cast<const void*>(preference.get()));
  std::string key = (ranked ? "ranked:k=" + std::to_string(top_k) + ":"
                            : std::string("term:")) +
                    table + "@" + identity + ":" + preference->ToString();
  if (options_.enable_plan_cache) {
    auto lock = Lock();
    if (auto cached = plan_cache_.Get(key)) {
      ++stats_.plan_hits;
      return cached;
    }
  }
  auto plan = std::make_shared<Plan>();
  plan->stmt.table = table;
  plan->stmt.ranked = ranked;
  plan->stmt.top_k = top_k;
  plan->preference = preference;
  plan->key = std::move(key);
  auto lock = Lock();
  ++stats_.plan_misses;
  if (options_.enable_plan_cache) {
    stats_.plan_evictions += plan_cache_.Put(plan->key, plan);
  }
  return plan;
}

PreparedQuery Engine::Prepare(const std::string& table,
                              const PrefPtr& preference) {
  return Prepare(table, preference, options_.bmo);
}

PreparedQuery Engine::Prepare(const std::string& table,
                              const PrefPtr& preference,
                              const BmoOptions& options) {
  return PreparedQuery(
      this, BuildTermPlan(table, preference, /*ranked=*/false, 0), options);
}

PreparedQuery Engine::PrepareRanked(const std::string& table,
                                    const PrefPtr& preference, size_t top_k) {
  return PreparedQuery(
      this, BuildTermPlan(table, preference, /*ranked=*/true, top_k),
      options_.bmo);
}

void Engine::StorePreference(const std::string& name,
                             const PrefPtr& preference) {
  auto lock = Lock();
  repository_.Store(name, preference);
}

PrefPtr Engine::GetPreference(const std::string& name) const {
  auto lock = Lock();
  return repository_.Get(name);
}

PreparedQuery Engine::PrepareStored(const std::string& table,
                                    const std::string& name) {
  PrefPtr preference = GetPreference(name);
  if (!preference) {
    throw std::out_of_range("no stored preference named '" + name + "'");
  }
  return Prepare(table, preference);
}

void Engine::LoadRepository(PreferenceRepository repository) {
  auto lock = Lock();
  repository_ = std::move(repository);
}

PreferenceRepository Engine::Repository() const {
  auto lock = Lock();
  return repository_;
}

std::unique_lock<std::mutex> Engine::Lock() const {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    lock_contentions_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

Engine::CacheStats Engine::cache_stats() const {
  auto lock = Lock();
  CacheStats out = stats_;
  out.lock_acquisitions = lock_acquisitions_.load(std::memory_order_relaxed);
  out.lock_contentions = lock_contentions_.load(std::memory_order_relaxed);
  exec_cache_.ForEach(
      [&out](const Exec& exec) { out.exec_bytes += exec.HeapBytes(); });
  return out;
}

void Engine::ClearCaches() {
  auto lock = Lock();
  plan_cache_.Clear();
  exec_cache_.Clear();
  stats_cache_.clear();
}

// --- subscriptions / incremental view maintenance

Engine::Subscription Engine::Subscribe(const std::string& sql) {
  return Subscribe(sql, options_.bmo);
}

Engine::Subscription Engine::Subscribe(const std::string& sql,
                                       const BmoOptions& options,
                                       size_t max_pending_deltas) {
  psql::QueryStats ignored;
  auto plan = GetOrBuildPlan(sql, &ignored);
  const psql::SelectStatement& stmt = plan->stmt;
  // The maintainable fragment: plain BMO over full rows. Everything else
  // has no incremental story yet — reject loudly instead of silently
  // recomputing.
  if (stmt.is_delete) {
    throw psql::BadArgumentError("cannot subscribe to DELETE");
  }
  if (!plan->preference) {
    throw psql::BadArgumentError("subscriptions require a PREFERRING clause");
  }
  if (stmt.ranked) {
    throw psql::BadArgumentError(
        "subscriptions do not support ranked (TOP k) statements");
  }
  if (stmt.explain) {
    throw psql::BadArgumentError("cannot subscribe to EXPLAIN");
  }
  if (!stmt.grouping.empty()) {
    throw psql::BadArgumentError("subscriptions do not support GROUPING");
  }
  if (stmt.but_only) {
    throw psql::BadArgumentError("subscriptions do not support BUT ONLY");
  }
  if (stmt.limit > 0) {
    throw psql::BadArgumentError("subscriptions do not support LIMIT");
  }
  if (!stmt.select_list.empty()) {
    throw psql::BadArgumentError(
        "subscriptions deliver full rows; use SELECT *");
  }
  const size_t max_pending = max_pending_deltas != 0
                                 ? max_pending_deltas
                                 : options_.max_pending_deltas;
  const std::string prefix = plan->key + "|" + OptionsSignature(options);
  // Seed the view under the lock: a seed taken outside it against a
  // snapshot would have to be retried whenever the table version moved,
  // and under a steady write stream that retry never settles.
  auto lock = Lock();
  std::shared_ptr<const Relation> snapshot =
      catalog_.GetShared(stmt.table);  // throws when unknown
  const uint64_t version = catalog_.Version(stmt.table);
  for (auto& slot : views_[stmt.table]) {
    if (slot->exec_key_prefix == prefix) {
      return AttachSubscriber(*slot, max_pending);
    }
  }
  std::function<bool(const Tuple&)> where;
  if (stmt.where) {
    where = psql::CompileCondition(*stmt.where, snapshot->schema());
  }
  auto slot = std::make_shared<ViewSlot>();
  slot->view = std::make_shared<ivm::MaintainedView>(
      plan->preference, std::move(where), *snapshot, version, options);
  slot->plan = plan;
  slot->options = options;
  slot->exec_key_prefix = prefix;
  views_[stmt.table].push_back(slot);
  RefreshViewExec(*slot, version);
  return AttachSubscriber(*slot, max_pending);
}

Engine::Subscription Engine::AttachSubscriber(ViewSlot& slot,
                                              size_t max_pending) {
  auto state = std::make_shared<ivm::SubscriptionState>(
      slot.view->schema(), slot.plan->stmt.table,
      slot.plan->preference->ToString(), max_pending);
  const uint64_t id = next_subscription_id_++;
  slot.subs.emplace_back(id, state);
  // Bootstrap snapshot in the same critical section that registered the
  // subscriber: every later delta applies to exactly this state. TryPush
  // (not PushResync) so coalesced_resyncs() counts only real overflows;
  // it cannot fail — the queue is empty and max_pending >= 1.
  state->TryPush(slot.view->Resync());
  return Subscription(this, id, std::move(state));
}

void Engine::Unsubscribe(uint64_t id) {
  std::shared_ptr<ivm::SubscriptionState> to_close;
  {
    auto lock = Lock();
    for (auto it = views_.begin(); it != views_.end(); ++it) {
      auto& slots = it->second;
      for (size_t s = 0; s < slots.size(); ++s) {
        auto& subs = slots[s]->subs;
        for (size_t i = 0; i < subs.size(); ++i) {
          if (subs[i].first != id) continue;
          to_close = std::move(subs[i].second);
          subs.erase(subs.begin() + static_cast<ptrdiff_t>(i));
          if (subs.empty()) {
            // The view dies with its last subscriber; the next mutation
            // falls back to plain invalidation.
            slots.erase(slots.begin() + static_cast<ptrdiff_t>(s));
            if (slots.empty()) views_.erase(it);
          }
          break;
        }
        // Break before either loop re-reads `slots` or advances `it`:
        // the erase above may have freed both the slot vector and the
        // map node behind them.
        if (to_close) break;
      }
      if (to_close) break;
    }
  }
  if (to_close) to_close->Close();
}

size_t Engine::SubscriptionCount() const {
  auto lock = Lock();
  size_t n = 0;
  for (const auto& [table, slots] : views_) {
    for (const auto& slot : slots) n += slot->subs.size();
  }
  return n;
}

ViewMaintenanceStats Engine::SubscriptionViewStats(uint64_t id) const {
  auto lock = Lock();
  for (const auto& [table, slots] : views_) {
    for (const auto& slot : slots) {
      for (const auto& [sid, state] : slot->subs) {
        if (sid == id) return slot->view->maintenance_stats();
      }
    }
  }
  return {};
}

void Engine::NotifyViewsInsert(const std::string& name, const Tuple& row,
                               size_t table_row, uint64_t new_version) {
  auto it = views_.find(name);
  if (it == views_.end()) return;
  for (auto& slot : it->second) {
    ivm::ViewDelta delta =
        slot->view->ApplyInsert(row, table_row, new_version);
    RefreshViewExec(*slot, new_version);
    DeliverDelta(*slot, delta);
  }
}

void Engine::NotifyViewsDelete(const std::string& name,
                               const std::vector<size_t>& deleted_rows,
                               uint64_t new_version) {
  auto it = views_.find(name);
  if (it == views_.end()) return;
  for (auto& slot : it->second) {
    ivm::ViewDelta delta = slot->view->ApplyDelete(deleted_rows, new_version);
    RefreshViewExec(*slot, new_version);
    DeliverDelta(*slot, delta);
  }
}

void Engine::DeliverDelta(ViewSlot& slot, const ivm::ViewDelta& delta) {
  if (delta.Empty()) return;
  for (auto& [id, state] : slot.subs) {
    if (!state->TryPush(delta)) {
      // Slow subscriber: coalesce its backlog into one resync snapshot.
      state->PushResync(slot.view->Resync());
    }
  }
}

void Engine::RefreshViewExec(const ViewSlot& slot, uint64_t version) {
  if (!options_.enable_exec_cache) return;
  // The view already knows the exact result row set for the new version:
  // replace the entry InvalidateTable just dropped instead of leaving the
  // next Execute() to recompute from scratch.
  auto exec = std::make_shared<Exec>();
  const std::string& table = slot.plan->stmt.table;
  exec->table_name = table;
  exec->version = version;
  exec->snapshot = catalog_.GetShared(table);
  exec->use_row_subset = true;
  exec->filtered_rows = slot.view->MaximaTableRows();
  exec->ivm = true;
  exec->exec_pref = slot.plan->preference;
  exec->preference_term = slot.plan->preference->ToString();
  exec->kernel_variant = "ivm-delta";
  exec->plan_prefix =
      "scan(" + table + ")" +
      (slot.plan->stmt.where
           ? " -> where[" + slot.plan->stmt.where->ToString() + "]"
           : std::string()) +
      " -> ivm[" + exec->preference_term + "]";
  const std::string key =
      slot.exec_key_prefix + "|v" + std::to_string(version);
  stats_.exec_evictions += exec_cache_.Put(key, std::move(exec));
  ++stats_.exec_refreshes;
}

// --- Subscription handle

Engine::Subscription::Subscription(Subscription&& other) noexcept
    : engine_(other.engine_), id_(other.id_), state_(std::move(other.state_)) {
  other.engine_ = nullptr;
  other.id_ = 0;
}

Engine::Subscription& Engine::Subscription::operator=(
    Subscription&& other) noexcept {
  if (this != &other) {
    Cancel();
    engine_ = other.engine_;
    id_ = other.id_;
    state_ = std::move(other.state_);
    other.engine_ = nullptr;
    other.id_ = 0;
  }
  return *this;
}

Engine::Subscription::~Subscription() { Cancel(); }

void Engine::Subscription::Cancel() {
  if (engine_ != nullptr) {
    engine_->Unsubscribe(id_);
    engine_ = nullptr;
  }
  // state_ is kept: queued deltas still drain through Poll().
}

const Schema& Engine::Subscription::schema() const {
  static const Schema kEmpty;
  return state_ ? state_->schema() : kEmpty;
}

const std::string& Engine::Subscription::table() const {
  static const std::string kEmpty;
  return state_ ? state_->table() : kEmpty;
}

const std::string& Engine::Subscription::preference_term() const {
  static const std::string kEmpty;
  return state_ ? state_->term() : kEmpty;
}

std::optional<ivm::ViewDelta> Engine::Subscription::Poll() {
  return state_ ? state_->Poll() : std::nullopt;
}

std::optional<ivm::ViewDelta> Engine::Subscription::WaitFor(
    std::chrono::milliseconds timeout) {
  return state_ ? state_->WaitFor(timeout) : std::nullopt;
}

void Engine::Subscription::SetNotifier(std::function<void()> notifier) {
  if (state_) state_->SetNotifier(std::move(notifier));
}

bool Engine::Subscription::closed() const {
  return state_ ? state_->closed() : true;
}

size_t Engine::Subscription::pending() const {
  return state_ ? state_->pending() : 0;
}

uint64_t Engine::Subscription::coalesced_resyncs() const {
  return state_ ? state_->coalesced_resyncs() : 0;
}

ViewMaintenanceStats Engine::Subscription::view_stats() const {
  return engine_ != nullptr ? engine_->SubscriptionViewStats(id_)
                            : ViewMaintenanceStats{};
}

}  // namespace prefdb
