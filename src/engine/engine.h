// The stateful Preference SQL engine: the long-lived query service the
// paper's serving scenario assumes. Repeated preference queries against
// the same relations dominate real traffic, so the engine separates the
// reusable per-statement work from per-call kernel execution:
//
//   Engine          owns the Catalog (copy-on-write relation snapshots with
//                   per-table version counters), the default execution
//                   options / thread budget, per-table statistics
//                   (stats/stats.h, maintained incrementally across
//                   Insert), and two LRU-bounded caches:
//                     - plan cache:   normalized statement text ->
//                                     parsed AST + translated preference
//                                     term (data-independent);
//                     - exec cache:   (statement, table version, options) ->
//                                     the PhysicalPlan, WHERE row set and
//                                     the compiled blocks — one over the
//                                     candidate pool, or one per group
//                                     for GROUPING statements — each
//                                     built by the same compile -> plan
//                                     unit Bmo/BmoGroupBy use
//                                     (internal::CompileBlock in
//                                     eval/bmo_internal.h; data-
//                                     dependent). A block holds its
//                                     score table, refined plan and,
//                                     when it deduplicated the pool, a
//                                     32-bit row map — not projected
//                                     Tuples; only the closure fallback
//                                     (terms that do not compile) keeps
//                                     the Tuples its kernels read.
//                                     CacheStats::exec_bytes sums what
//                                     the live entries hold.
//   PreparedQuery   Engine::Prepare(sql)'s handle on a cached plan;
//                   Run() does only the BMO kernel work (or the ranked
//                   sort) plus result materialization on a warm cache.
//
// Relation mutation through the engine (RegisterTable / Insert) bumps the
// table's version, which invalidates dependent exec-cache entries; readers
// keep their immutable snapshots, so Run() racing a mutation is safe and
// sees a consistent (old or new) state.
//
// Thread-safety: all Engine methods and PreparedQuery::Run() may be called
// concurrently from multiple threads. Cached state is immutable after
// construction; the engine's mutex only guards the catalog map and the
// cache indexes. A PreparedQuery must not outlive its Engine.

#ifndef PREFDB_ENGINE_ENGINE_H_
#define PREFDB_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "eval/bmo.h"
#include "ivm/delta.h"
#include "ivm/maintained_view.h"
#include "ivm/subscription.h"
#include "psql/catalog.h"
#include "psql/executor.h"
#include "psql/parser.h"
#include "repo/repository.h"
#include "stats/stats.h"

namespace prefdb {

namespace engine_internal {
struct Plan;
struct Exec;

/// A string-keyed map with LRU eviction (capacity 0 = unbounded). Not
/// thread-safe; the engine's mutex guards every access. Get() touches.
template <typename T>
class LruMap {
 public:
  void set_capacity(size_t capacity) { capacity_ = capacity; }
  size_t size() const { return map_.size(); }

  std::shared_ptr<const T> Get(const std::string& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.value;
  }

  /// Inserts or replaces; returns how many entries were evicted to make
  /// room.
  size_t Put(const std::string& key, std::shared_ptr<const T> value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.value = std::move(value);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return 0;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{std::move(value), lru_.begin()});
    size_t evicted = 0;
    while (capacity_ != 0 && map_.size() > capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  /// Calls `fn(value)` for every entry, without touching recency.
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (const auto& [key, entry] : map_) fn(*entry.value);
  }

  /// Removes entries matching `pred(value)`; returns how many.
  template <typename Pred>
  size_t EraseIf(const Pred& pred) {
    size_t erased = 0;
    for (auto it = map_.begin(); it != map_.end();) {
      if (pred(*it->second.value)) {
        lru_.erase(it->second.lru_it);
        it = map_.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  }

  void Clear() {
    map_.clear();
    lru_.clear();
  }

 private:
  struct Entry {
    std::shared_ptr<const T> value;
    std::list<std::string>::iterator lru_it;
  };
  size_t capacity_ = 0;
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  // front = most recently used
};

}  // namespace engine_internal

struct EngineOptions {
  /// Default execution options (algorithm, thread budget, vectorize).
  BmoOptions bmo;
  /// Cache parsed + translated plans by normalized statement text.
  bool enable_plan_cache = true;
  /// Cache optimized + compiled execution state by (statement, table
  /// version, options). Disable for cold-execution baselines.
  bool enable_exec_cache = true;
  /// LRU entry caps for the two caches (0 = unbounded). Compiled exec
  /// state pins relation snapshots and score tables, so production
  /// deployments with open-ended query text should keep this bounded.
  size_t plan_cache_capacity = 512;
  size_t exec_cache_capacity = 256;
  /// Default per-subscription delta-queue bound (Engine::Subscribe). A
  /// subscriber that falls this many deltas behind has its backlog
  /// coalesced into one resync snapshot instead of buffering unboundedly.
  size_t max_pending_deltas = 64;
};

class Engine;

/// A prepared statement: immutable parsed AST + translated preference
/// term, bound to an Engine. Run() executes against the current table
/// version, reusing the engine's compiled score-table state when the
/// version still matches. Cheap to copy; safe to Run() concurrently.
class PreparedQuery {
 public:
  /// Executes and returns the result. Per-phase stats report only the
  /// work this call performed (parse/translate are always cached here).
  psql::QueryResult Run() const;

  /// Same, overriding the execution options for this run (a different
  /// option signature compiles its own exec-cache entry).
  psql::QueryResult Run(const BmoOptions& options) const;

  const psql::SelectStatement& statement() const;
  /// Normalized statement text — the engine's plan-cache key.
  const std::string& normalized_sql() const;
  /// The translated preference term ("" when the statement has none).
  std::string preference_term() const;

 private:
  friend class Engine;
  PreparedQuery(Engine* engine, std::shared_ptr<const engine_internal::Plan> plan,
                BmoOptions options)
      : engine_(engine), plan_(std::move(plan)), options_(options) {}

  Engine* engine_;
  std::shared_ptr<const engine_internal::Plan> plan_;
  BmoOptions options_;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Snapshots an existing catalog (cheap: relations are shared
  /// copy-on-write, no tuple copies).
  explicit Engine(const psql::Catalog& catalog, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  /// Closes every live subscription (blocked consumers wake and observe
  /// closed()). Subscription handles must not outlive the engine.
  ~Engine();

  // --- table management (mutations bump versions and invalidate caches)

  /// Registers (or replaces) a relation and bumps its version. Replacing
  /// a table wholesale closes any subscriptions on it (there is no
  /// incremental delta for "everything changed").
  void RegisterTable(const std::string& name, Relation relation);
  /// Appends one row (copy-on-write: O(n) on the relation) and bumps the
  /// version. Throws std::out_of_range on an unknown table. Registered
  /// views are maintained and their subscribers receive deltas under the
  /// same critical section as the version bump.
  void Insert(const std::string& name, Tuple row);
  /// Removes every row matching `pred` (null = all rows); returns how
  /// many were removed. Same copy-on-write/version/invalidation contract
  /// as Insert; a delete that matches nothing leaves version and caches
  /// untouched. The SQL surface is `DELETE FROM <table> [WHERE cond]`.
  /// Throws std::out_of_range on an unknown table.
  size_t Delete(const std::string& name,
                const std::function<bool(const Tuple&)>& pred);
  bool HasTable(const std::string& name) const;
  /// Current immutable snapshot; throws std::out_of_range when unknown.
  std::shared_ptr<const Relation> Snapshot(const std::string& name) const;
  /// Monotonic per-table version (0 = no such table).
  uint64_t TableVersion(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  // --- queries

  /// Parses (or fetches from the plan cache) and binds a prepared query.
  /// Throws psql::SyntaxError on malformed SQL.
  PreparedQuery Prepare(const std::string& sql);
  PreparedQuery Prepare(const std::string& sql, const BmoOptions& options);
  /// Binds an already-parsed statement (keyed by its canonical rendering).
  PreparedQuery Prepare(const psql::SelectStatement& stmt);
  PreparedQuery Prepare(const psql::SelectStatement& stmt,
                        const BmoOptions& options);

  /// Prepare + Run in one call; repeated texts hit the plan cache.
  psql::QueryResult Execute(const std::string& sql);
  psql::QueryResult Execute(const std::string& sql, const BmoOptions& options);
  psql::QueryResult Execute(const psql::SelectStatement& stmt);
  psql::QueryResult Execute(const psql::SelectStatement& stmt,
                            const BmoOptions& options);

  // --- continuous queries (incremental view maintenance, src/ivm/)

  /// A live continuous preference query: a move-only RAII handle on a
  /// maintained view's delta stream. The FIRST delta is always a resync
  /// snapshot of the current result set, taken in the same critical
  /// section that registered the subscription — every later delta applies
  /// to exactly the state the stream has already delivered (snapshot
  /// consistency). Destruction (or Cancel) unsubscribes. A Subscription
  /// must not outlive its Engine.
  class Subscription {
   public:
    Subscription() = default;
    Subscription(Subscription&& other) noexcept;
    Subscription& operator=(Subscription&& other) noexcept;
    Subscription(const Subscription&) = delete;
    Subscription& operator=(const Subscription&) = delete;
    ~Subscription();

    /// Engine-wide unique subscription id (the server's wire handle).
    uint64_t id() const { return id_; }
    bool active() const { return state_ != nullptr; }

    /// Row schema of delivered tuples / subscribed table / canonical term.
    /// Empty when !active().
    const Schema& schema() const;
    const std::string& table() const;
    const std::string& preference_term() const;

    /// Consumes the next queued delta. Poll never blocks; WaitFor blocks
    /// until a delta arrives, the subscription closes, or the timeout
    /// elapses (nullopt on the latter two).
    std::optional<ivm::ViewDelta> Poll();
    std::optional<ivm::ViewDelta> WaitFor(std::chrono::milliseconds timeout);

    /// Registers a readiness callback on the underlying delta queue,
    /// fired after every push and on close — lets an event loop drain
    /// via Poll() instead of parking a thread in WaitFor. The callback
    /// runs on the mutating thread (under the engine lock): it must be
    /// cheap and must not call back into the engine or this handle.
    /// No-op when !active(); nullptr clears.
    void SetNotifier(std::function<void()> notifier);

    /// True once cancelled, unsubscribed, or the engine shut down
    /// (queued deltas still drain through Poll).
    bool closed() const;
    size_t pending() const;
    /// Times the engine coalesced this subscriber's backlog into a
    /// resync because the queue was full.
    uint64_t coalesced_resyncs() const;
    /// Lifetime maintenance counters of the underlying view (shared with
    /// other subscribers of the same statement).
    ViewMaintenanceStats view_stats() const;

    /// Detaches from the engine; idempotent. The view is torn down with
    /// its last subscriber.
    void Cancel();

   private:
    friend class Engine;
    Subscription(Engine* engine, uint64_t id,
                 std::shared_ptr<ivm::SubscriptionState> state)
        : engine_(engine), id_(id), state_(std::move(state)) {}

    Engine* engine_ = nullptr;
    uint64_t id_ = 0;
    std::shared_ptr<ivm::SubscriptionState> state_;
  };

  /// Subscribes to a BMO statement (`SELECT * FROM t [WHERE ...]
  /// PREFERRING ...`): seeds a maintained view (shared with other
  /// subscribers of the same statement + options), registers the
  /// subscriber, and delivers the bootstrap resync. Insert/Delete then
  /// maintain the view incrementally instead of recomputing, and the
  /// statement's exec-cache entry is refreshed from the view on every
  /// mutation instead of being invalidated. Throws psql::BadArgumentError
  /// for statements outside the maintainable fragment (ranked / EXPLAIN /
  /// GROUPING / BUT ONLY / LIMIT / projections / no PREFERRING), and
  /// std::out_of_range on an unknown table. `max_pending_deltas` bounds
  /// this subscriber's queue (0 = EngineOptions default).
  Subscription Subscribe(const std::string& sql);
  Subscription Subscribe(const std::string& sql, const BmoOptions& options,
                         size_t max_pending_deltas = 0);
  /// Ends subscription `id`; no-op when unknown. Its state closes and
  /// the view is dropped with its last subscriber.
  void Unsubscribe(uint64_t id);
  /// Live subscriptions across all tables.
  size_t SubscriptionCount() const;

  // --- programmatic preference queries (the repository layer's path)

  /// Binds σ[P](table) as a prepared BMO query, cached like SQL plans
  /// (key: table + canonical term). Covers terms with no SQL spelling —
  /// rank(F), EXPLICIT graphs, repository-stored wish lists.
  PreparedQuery Prepare(const std::string& table, const PrefPtr& preference);
  PreparedQuery Prepare(const std::string& table, const PrefPtr& preference,
                        const BmoOptions& options);
  /// Binds a ranked (k-best, §6.2) query for any single-utility term
  /// (rank(F) included). k = 0 ranks everything.
  PreparedQuery PrepareRanked(const std::string& table,
                              const PrefPtr& preference, size_t top_k);

  // --- the engine's preference repository (repo/repository.h)

  /// Stores (or replaces) a named preference term. Same contract as
  /// PreferenceRepository::Store (the term must be serializable).
  void StorePreference(const std::string& name, const PrefPtr& preference);
  /// Looks a stored term up; nullptr when absent.
  PrefPtr GetPreference(const std::string& name) const;
  /// Prepares σ[P](table) for the stored term `name`; throws
  /// std::out_of_range when no such preference exists.
  PreparedQuery PrepareStored(const std::string& table,
                              const std::string& name);
  /// Installs a whole repository (e.g. loaded from disk); replaces the
  /// current store.
  void LoadRepository(PreferenceRepository repository);
  /// Snapshot copy of the current store (cheap: terms are shared).
  PreferenceRepository Repository() const;

  // --- introspection

  struct CacheStats {
    size_t plan_hits = 0;
    size_t plan_misses = 0;
    size_t exec_hits = 0;
    size_t exec_misses = 0;
    /// Exec entries dropped by table mutations.
    size_t invalidations = 0;
    /// Entries dropped by the LRU bounds (surfaced per query in
    /// QueryResult.stats).
    size_t plan_evictions = 0;
    size_t exec_evictions = 0;
    /// Exec entries for subscribed statements refreshed in place from
    /// their maintained view on mutation — each one is an invalidation
    /// the delta path turned into a warm hit.
    size_t exec_refreshes = 0;
    /// Engine-mutex acquisitions, and how many of them had to block
    /// behind another thread — the serving layer's contention signal.
    /// The mutex only guards the catalog map and cache indexes (never
    /// kernel work), so contentions/acquisitions climbing under load
    /// means the cache lookup path itself has become the bottleneck.
    uint64_t lock_acquisitions = 0;
    uint64_t lock_contentions = 0;
    /// Gauge: heap bytes held by the live exec-cache entries (row sets,
    /// row maps, retained Tuples, score and id buffers, group entries;
    /// relation snapshots are shared with the catalog and not counted).
    size_t exec_bytes = 0;
  };
  CacheStats cache_stats() const;
  void ClearCaches();

  /// Current statistics snapshot for `name` (derived on demand, then
  /// maintained incrementally across Insert). Throws std::out_of_range
  /// when the table is unknown.
  std::shared_ptr<const TableStats> Stats(const std::string& name);

  const EngineOptions& options() const { return options_; }

 private:
  friend class PreparedQuery;

  std::shared_ptr<const engine_internal::Plan> GetOrBuildPlan(
      const std::string& sql, psql::QueryStats* stats);
  std::shared_ptr<const engine_internal::Plan> GetOrBuildPlan(
      const psql::SelectStatement& stmt, psql::QueryStats* stats);
  std::shared_ptr<const engine_internal::Exec> GetOrBuildExec(
      const engine_internal::Plan& plan, const BmoOptions& options,
      psql::QueryStats* stats);
  psql::QueryResult RunWithStats(
      const engine_internal::Plan& plan, const BmoOptions& options,
      psql::QueryStats stats, std::chrono::steady_clock::time_point start);
  /// Drops exec-cache entries and the stats entry for `name`; caller
  /// holds mu_.
  void InvalidateTable(const std::string& name);
  /// Stats for (name, version): served from the per-table entry when
  /// fresh, else derived from `snapshot` outside the lock.
  std::shared_ptr<const TableStats> GetStats(
      const std::string& name, uint64_t version,
      const std::shared_ptr<const Relation>& snapshot);

  std::shared_ptr<const engine_internal::Plan> BuildTermPlan(
      const std::string& table, const PrefPtr& preference, bool ranked,
      size_t top_k);

  /// DELETE FROM routing target of RunWithStats: runs Engine::Delete and
  /// shapes the removed-count result relation.
  psql::QueryResult RunDelete(const engine_internal::Plan& plan,
                              psql::QueryStats stats,
                              std::chrono::steady_clock::time_point start);

  /// One maintained view plus its subscribers; shared by every
  /// subscription to the same (statement, options signature).
  struct ViewSlot {
    std::shared_ptr<ivm::MaintainedView> view;
    std::shared_ptr<const engine_internal::Plan> plan;
    BmoOptions options;
    /// plan key + options signature — the exec-cache key prefix the
    /// refresh path writes under.
    std::string exec_key_prefix;
    std::vector<std::pair<uint64_t, std::shared_ptr<ivm::SubscriptionState>>>
        subs;
  };

  /// All called with mu_ held: view maintenance, delta fan-out, and the
  /// exec-cache refresh run inside the mutation's critical section — the
  /// delta stream and the version bump are atomic to observers.
  void NotifyViewsInsert(const std::string& name, const Tuple& row,
                         size_t table_row, uint64_t new_version);
  void NotifyViewsDelete(const std::string& name,
                         const std::vector<size_t>& deleted_rows,
                         uint64_t new_version);
  void DeliverDelta(ViewSlot& slot, const ivm::ViewDelta& delta);
  void RefreshViewExec(const ViewSlot& slot, uint64_t version);
  Subscription AttachSubscriber(ViewSlot& slot, size_t max_pending);
  ViewMaintenanceStats SubscriptionViewStats(uint64_t id) const;

  /// Incrementally maintained per-table statistics (guarded by mu_; the
  /// builder's hash sets make Insert-time maintenance O(columns)).
  struct StatsEntry {
    uint64_t version = 0;
    std::shared_ptr<TableStatsBuilder> builder;
    std::shared_ptr<const TableStats> stats;
  };

  /// Locks mu_, counting the acquisition and (via a failed try_lock)
  /// whether it contended. All engine paths lock through this.
  std::unique_lock<std::mutex> Lock() const;

  EngineOptions options_;
  mutable std::mutex mu_;
  mutable std::atomic<uint64_t> lock_acquisitions_{0};
  mutable std::atomic<uint64_t> lock_contentions_{0};
  psql::Catalog catalog_;
  PreferenceRepository repository_;
  engine_internal::LruMap<engine_internal::Plan> plan_cache_;
  engine_internal::LruMap<engine_internal::Exec> exec_cache_;
  std::unordered_map<std::string, StatsEntry> stats_cache_;
  CacheStats stats_;
  /// Registered maintained views by table (guarded by mu_).
  std::unordered_map<std::string, std::vector<std::shared_ptr<ViewSlot>>>
      views_;
  uint64_t next_subscription_id_ = 1;
};

/// Collapses insignificant whitespace and comments (outside string
/// literals) and strips a trailing ';' — the engine's plan-cache key.
std::string NormalizeSql(const std::string& sql);

}  // namespace prefdb

#endif  // PREFDB_ENGINE_ENGINE_H_
