#include "engine/engine.h"

#include <algorithm>
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
#include "exec/simd/dominance.h"
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

/// Data-dependent half: the memoized answer of (plan, table snapshot,
/// options). σ[P](R) is a pure function of the term and the relation, and
/// the key pins both, so the entry keeps the final table rows — after the
/// BMO, GROUPING, TOP k, BUT ONLY and LIMIT stages, in result order — and
/// drops everything the build compiled to find them. A run gathers the
/// rows and projects them; it runs no kernel. Immutable once built;
/// concurrent Run() calls share it.
struct Exec {
  std::string table_name;
  uint64_t version = 0;
  std::shared_ptr<const Relation> snapshot;
  /// The answer: table rows of `snapshot`, in result order.
  std::vector<uint32_t> rows;
  /// Ranked statements: utilities aligned 1:1 with `rows`, descending.
  std::vector<double> utilities;
  std::string preference_term;
  std::string plan_text;     // the executed plan, every stage included
  std::string plan_details;  // optimizer / ranked EXPLAIN text
  std::string kernel_variant;  // BMO kernel label (QueryStats.kernel)
  uint64_t optimize_ns = 0;
  uint64_t compile_ns = 0;
  /// The build's kernel (or ranked sort), plus a BMO statement's BUT ONLY
  /// filter over its answer.
  uint64_t kernel_ns = 0;

  /// Heap bytes this entry owns: the answer and its texts. The relation
  /// snapshot is the catalog's (shared) and not counted.
  size_t HeapBytes() const {
    return rows.capacity() * sizeof(uint32_t) +
           utilities.capacity() * sizeof(double) + table_name.capacity() + preference_term.capacity() +
           plan_text.capacity() + plan_details.capacity() +
           kernel_variant.capacity();
  }
};

}  // namespace engine_internal

namespace {

using engine_internal::Exec;
using engine_internal::Plan;
using internal::AppendMaximalRows;
using internal::CompileBlock;
using internal::CompiledBlock;
using Clock = std::chrono::steady_clock;

uint64_t ElapsedNs(Clock::time_point begin, Clock::time_point end) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

// Option fields that change an exec entry (its plan text and kernel
// label; never its rows): the algorithm request and the kernel policy.
std::string OptionsSignature(const BmoOptions& o) {
  return std::to_string(static_cast<int>(o.algorithm)) + ":" +
         SimdModeName(o.simd);
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

// EXPLAIN's line for a grouped statement: how many groups each kernel
// finished, and how many of them switched from BNL to SFS on the way.
std::string GroupingLine(const std::vector<MaximaRun>& runs) {
  std::string counts;
  for (BmoAlgorithm algorithm :
       {BmoAlgorithm::kNaive, BmoAlgorithm::kBlockNestedLoop,
        BmoAlgorithm::kSortFilter}) {
    const auto n = std::count_if(runs.begin(), runs.end(),
                                 [algorithm](const MaximaRun& run) {
                                   return run.finished == algorithm;
                                 });
    if (n == 0) continue;
    counts += (counts.empty() ? "" : ", ") +
              std::string(BmoAlgorithmName(algorithm)) + " ×" +
              std::to_string(n);
  }
  const auto switched = std::count_if(
      runs.begin(), runs.end(),
      [](const MaximaRun& run) { return run.switched(); });
  return "grouping: " + std::to_string(runs.size()) +
         " group(s), each run on its own block: " +
         (counts.empty() ? "none" : counts) + "; " +
         std::to_string(switched) + " switched bnl→sfs\n";
}

// Builds the exec entry for (plan, snapshot, options): runs the whole
// data-dependent pipeline once — the WHERE filter, the rewrites, the
// score-table compiler with each block's measured plan, and the kernel —
// and keeps only the answer rows. Called without engine locks;
// everything it touches is immutable shared state.
std::shared_ptr<const Exec> BuildExec(const Plan& plan,
                                      const BmoOptions& options,
                                      std::shared_ptr<const Relation> snapshot,
                                      uint64_t version) {
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

  // Hard selection (exact-match world): the candidate pool as row
  // indices; a null `pool_ptr` means "all rows" (no identity vector). The
  // predicate reads one scratch row whose condition cells are refreshed
  // per row — no whole-row Tuples.
  std::vector<size_t> pool;
  const std::vector<size_t>* pool_ptr = nullptr;
  Clock::time_point t0 = Clock::now();
  if (stmt.where) {
    pool = table.SelectWhere(
        psql::CompileCondition(*stmt.where, table.schema()),
        psql::ConditionColumns(*stmt.where, table.schema()), nullptr,
        pool_cap);
    pool_ptr = &pool;
    plan_str += " -> where[" + stmt.where->ToString() + "]";
  } else if (pool_cap < table.size()) {
    pool.resize(pool_cap);
    std::iota(pool.begin(), pool.end(), 0);
    pool_ptr = &pool;
  }
  exec->compile_ns += ElapsedNs(t0, Clock::now());

  if (stmt.ranked && !preference) {
    // Unreachable through the parser; guards hand-built statements.
    throw std::invalid_argument("TOP/RANKED requires a PREFERRING clause");
  }

  // Quality supervision predicate (throws without a preference, exactly
  // like the legacy executor).
  std::function<bool(const Tuple&)> but_only;
  std::vector<size_t> but_only_cols;
  if (stmt.but_only) {
    but_only = psql::CompileQualityCondition(*stmt.but_only, preference,
                                             table.schema());
    but_only_cols =
        psql::QualityConditionColumns(*stmt.but_only, table.schema());
  }

  // The answer, in result order.
  std::vector<size_t> rows;
  if (preference && stmt.ranked) {
    // §6.2 ranked model: descending combined utility instead of BMO.
    exec->preference_term = preference->ToString();
    t0 = Clock::now();
    const RankedUtility utility = BindRankedUtility(preference, table.schema());
    exec->optimize_ns += ElapsedNs(t0, Clock::now());
    t0 = Clock::now();
    if (but_only) {
      // Unlike BMO (where BUT ONLY supervises the best-matches result),
      // ranking draws from the qualifying pool: TOP k returns k rows
      // whenever k rows satisfy the quality bound.
      pool = table.SelectWhere(but_only, but_only_cols, pool_ptr);
      pool_ptr = &pool;
      plan_str += " -> but_only[" + stmt.but_only->ToString() + "]";
    }
    // Def. 16 grouping under the ranked model: top k per group, groups
    // in deterministic first-occurrence order of the candidate pool.
    std::vector<std::vector<size_t>> groups;
    if (!stmt.grouping.empty()) {
      groups = GroupRowsBy(table, table.ResolveColumns(stmt.grouping),
                           pool_ptr);
    }
    plan_str += std::string(stmt.grouping.empty() ? " -> ranked["
                                                  : " -> ranked_groupby[") +
                exec->preference_term + ", " + TopKText(stmt.top_k) + "]";
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
    t0 = Clock::now();
    auto append_top_k = [&](const std::vector<size_t>* from) {
      RankedRows rr = TopKRows(table, utility, stmt.top_k, from);
      for (size_t i = 0; i < rr.rows.size(); ++i) {
        rows.push_back(from != nullptr ? (*from)[rr.rows[i]] : rr.rows[i]);
        exec->utilities.push_back(rr.utilities[i]);
      }
    };
    if (stmt.grouping.empty()) {
      append_top_k(pool_ptr);
    } else {
      for (const std::vector<size_t>& group : groups) append_top_k(&group);
    }
    exec->kernel_ns += ElapsedNs(t0, Clock::now());
  } else if (preference) {
    exec->preference_term = preference->ToString();
    // Stage 1 — rewrites, for EXPLAIN or kAuto (Props 3/4a/6, which
    // preserve the answer by Prop 7); an explicit algorithm runs the term
    // as written.
    PrefPtr exec_pref = preference;
    std::vector<RewriteStep> rewrites;
    if (stmt.explain || options.algorithm == BmoAlgorithm::kAuto) {
      t0 = Clock::now();
      exec_pref = Simplify(preference, &rewrites);
      exec->optimize_ns += ElapsedNs(t0, Clock::now());
    }

    // Stage 2 — compile and plan each block once: one block over the
    // candidate pool, or one per group (Def. 16). The blocks live only
    // for this build.
    std::vector<CompiledBlock> blocks;
    t0 = Clock::now();
    std::vector<std::vector<size_t>> groups;
    if (stmt.grouping.empty()) {
      blocks.push_back(CompileBlock(table, exec_pref, pool_ptr, options));
    } else {
      groups = GroupRowsBy(table, table.ResolveColumns(stmt.grouping),
                           pool_ptr);
      blocks.reserve(groups.size());
      for (const std::vector<size_t>& group : groups) {
        blocks.push_back(CompileBlock(table, exec_pref, &group, options));
      }
    }
    exec->compile_ns += ElapsedNs(t0, Clock::now());
    std::vector<MaximaRun> runs;
    runs.reserve(blocks.size());
    t0 = Clock::now();
    if (stmt.grouping.empty()) {
      runs.push_back(AppendMaximalRows(exec_pref, blocks[0], pool_ptr, &rows));
    } else {
      for (size_t g = 0; g < groups.size(); ++g) {
        runs.push_back(
            AppendMaximalRows(exec_pref, blocks[g], &groups[g], &rows));
      }
      std::sort(rows.begin(), rows.end());
    }
    exec->kernel_ns += ElapsedNs(t0, Clock::now());
    // The plan text names the kernel that finished the pass; a grouped
    // statement names the request, since each group ran its own.
    BmoAlgorithm algorithm = options.algorithm;
    if (stmt.grouping.empty()) {
      if (algorithm == BmoAlgorithm::kAuto) algorithm = runs[0].finished;
      exec->kernel_variant = blocks[0].KernelVariant(runs[0]);
    } else {
      // An empty pool has no groups, so nothing compiles.
      exec->kernel_variant =
          !blocks.empty() && blocks[0].table
              ? std::string("per-group[") +
                    simd::ResolveKernel(options.simd).name + "]"
              : "closure";
    }
    plan_str += std::string(stmt.grouping.empty() ? " -> bmo["
                                                  : " -> bmo_groupby[") +
                exec_pref->ToString() + ", " + BmoAlgorithmName(algorithm) +
                ", kernel=" + exec->kernel_variant + "]";
    if (stmt.explain) {
      // The plan and run of the block, or of the largest group's block.
      OptimizedQuery explained;
      explained.original = preference;
      explained.simplified = exec_pref;
      explained.rewrites = std::move(rewrites);
      size_t shown = 0;
      for (size_t g = 1; g < groups.size(); ++g) {
        if (groups[g].size() > groups[shown].size()) shown = g;
      }
      explained.plan = blocks.empty() ? PhysicalPlan::FromOptions(options)
                                      : blocks[shown].plan;
      exec->plan_details = explained.Explain();
      const std::string ran = runs.empty() ? "" : runs[shown].ToString();
      if (!ran.empty()) exec->plan_details += ran + "\n";
      if (!stmt.grouping.empty()) exec->plan_details += GroupingLine(runs);
      exec->plan_details += "kernel: " + exec->kernel_variant + "\n" +
                            CompilePaths(blocks, !stmt.grouping.empty());
    }
    if (but_only) {
      t0 = Clock::now();
      rows = table.SelectWhere(but_only, but_only_cols, &rows);
      exec->kernel_ns += ElapsedNs(t0, Clock::now());
      plan_str += " -> but_only[" + stmt.but_only->ToString() + "]";
    }
  } else if (pool_ptr) {
    rows = std::move(pool);
  } else {
    rows.resize(table.size());
    std::iota(rows.begin(), rows.end(), 0);
  }

  if (!stmt.select_list.empty()) plan_str += " -> project";
  if (stmt.limit > 0 && rows.size() > stmt.limit) {
    rows.resize(stmt.limit);
    if (exec->utilities.size() > stmt.limit) {
      exec->utilities.resize(stmt.limit);
    }
    plan_str += " -> limit " + std::to_string(stmt.limit);
  }
  exec->rows.assign(rows.begin(), rows.end());
  exec->utilities.shrink_to_fit();
  exec->plan_text = std::move(plan_str);
  return exec;
}

// Serves an entry: a gather of its memoized rows, then the projection.
// Pure function of immutable shared state — safe to run concurrently.
psql::QueryResult ExecuteExec(const Plan& plan, const Exec& exec) {
  const std::vector<std::string>& select_list = plan.stmt.select_list;
  psql::QueryResult result;
  // Projecting first shares the kept columns, so the gather copies only
  // those.
  result.relation = select_list.empty()
                        ? exec.snapshot->SelectRowIds(exec.rows)
                        : exec.snapshot->Project(select_list)
                              .SelectRowIds(exec.rows);
  result.utilities = exec.utilities;
  result.preference_term = exec.preference_term;
  result.plan = exec.plan_text;
  result.plan_details = exec.plan_details;
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
    const uint64_t new_version = catalog_.Version(name);
    InvalidateTable(name);
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
  return DeleteWhere(name, pred, nullptr);
}

size_t Engine::DeleteWhere(const std::string& name,
                           const std::function<bool(const Tuple&)>& pred,
                           const std::vector<size_t>* cols) {
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
    if (pred && cols != nullptr) {
      deleted = snapshot->SelectWhere(pred, *cols);
    } else if (pred) {
      // An opaque predicate may read any cell: refresh every column.
      std::vector<size_t> all(snapshot->schema().size());
      std::iota(all.begin(), all.end(), 0);
      deleted = snapshot->SelectWhere(pred, all);
    } else {
      deleted.resize(snapshot->size());
      std::iota(deleted.begin(), deleted.end(), 0);
    }
    if (deleted.empty()) return 0;  // nothing matched: no version bump
    std::vector<size_t> survivors;
    survivors.reserve(snapshot->size() - deleted.size());
    for (size_t i = 0, d = 0; i < snapshot->size(); ++i) {
      if (d < deleted.size() && deleted[d] == i) {
        ++d;
      } else {
        survivors.push_back(i);
      }
    }
    Relation next = snapshot->SelectRows(survivors);
    auto lock = Lock();
    if (catalog_.Version(name) != version) continue;  // raced; redo the scan
    catalog_.Register(name, std::move(next));
    const uint64_t new_version = catalog_.Version(name);
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
  // Build outside the lock: compilation and the kernel may be heavy and
  // must not block concurrent queries. A racing build of the same key produces an
  // identical immutable entry; last writer wins.
  std::shared_ptr<const Exec> exec =
      BuildExec(plan, options, std::move(snapshot), version);
  stats->optimize_ns = exec->optimize_ns;
  stats->compile_ns = exec->compile_ns;
  stats->kernel_ns = exec->kernel_ns;
  auto lock = Lock();
  ++stats_.exec_misses;
  // Don't cache an entry whose table version was bumped (and invalidated)
  // while we built: it could never be hit again and would pin the stale
  // snapshot until the table's next mutation.
  if (options_.enable_exec_cache &&
      catalog_.Version(plan.stmt.table) == version) {
    stats_.exec_evictions += exec_cache_.Put(key, exec);
  }
  stats->plan_cache_evictions = stats_.plan_evictions;
  stats->exec_cache_evictions = stats_.exec_evictions;
  return exec;
}

std::shared_ptr<const TableStats> Engine::Stats(const std::string& name) {
  // The scan runs outside the lock, over the immutable snapshot.
  return std::make_shared<const TableStats>(
      TableStats::Derive(*Snapshot(name)));
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
  // A miss ran the kernel while building the entry (kernel_ns); a hit
  // only gathers.
  stats.execute_ns = stats.kernel_ns + ElapsedNs(t1, t2);
  stats.total_ns = ElapsedNs(t0, t2);
  stats.kernel = exec->kernel_variant;
  // Eviction counters were copied under GetOrBuildExec's lock.
  result.stats = stats;
  if (plan.stmt.explain) {
    result.plan_details += "timing: " + stats.ToString() + "\n";
  }
  return result;
}

psql::QueryResult Engine::RunDelete(const engine_internal::Plan& plan,
                                    psql::QueryStats stats,
                                    std::chrono::steady_clock::time_point t0) {
  const psql::SelectStatement& stmt = plan.stmt;
  std::function<bool(const Tuple&)> pred;
  std::vector<size_t> cols;
  if (stmt.where) {
    // Compile against the current schema; DELETE has no cached exec (the
    // predicate is cheap next to the survivor copy).
    const Schema schema = Snapshot(stmt.table)->schema();
    pred = psql::CompileCondition(*stmt.where, schema);
    cols = psql::ConditionColumns(*stmt.where, schema);
  }
  Clock::time_point t1 = Clock::now();
  const size_t removed = DeleteWhere(stmt.table, pred, &cols);
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
  for (const auto& [table, slots] : views_) {
    for (const auto& slot : slots) out.view_bytes += slot->view->HeapBytes();
  }
  return out;
}

void Engine::ClearCaches() {
  auto lock = Lock();
  plan_cache_.Clear();
  exec_cache_.Clear();
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
      slot.plan->stmt.table, slot.plan->preference->ToString(), max_pending);
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
  // next Execute() to recompute from scratch. Subscribable statements
  // have no stage past the BMO, so the view's antichain is the whole
  // answer.
  auto exec = std::make_shared<Exec>();
  const std::string& table = slot.plan->stmt.table;
  exec->table_name = table;
  exec->version = version;
  exec->snapshot = catalog_.GetShared(table);
  const std::vector<size_t> rows = slot.view->MaximaTableRows();
  exec->rows.assign(rows.begin(), rows.end());
  exec->preference_term = slot.plan->preference->ToString();
  exec->kernel_variant = "ivm-delta";
  exec->plan_text =
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
