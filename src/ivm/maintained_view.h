// Incrementally maintained BMO result sets ("continuous preference
// queries"): the maxima antichain of σ[P](R) kept current under row
// inserts and deletes instead of recomputed.
//
// Kießling's BNL window is already an antichain maintained under
// *insertion*: a new row either loses against some window member (and is
// discarded) or enters and evicts the members it dominates. Deletion is
// what needs extra bookkeeping — "was this dominated row only dominated
// by rows that are now gone?" — and the classic answer is a *defeated-by
// witness*: every dominated candidate records ONE live row that dominates
// it. Because dominance is transitive over a finite set, a row is
// non-maximal iff some antichain member dominates it, and a witness stays
// valid as long as it is alive (even after the witness itself leaves the
// antichain). A delete therefore only re-examines the rows whose witness
// died ("orphans"); surviving maxima provably stay maximal, so the new
// antichain is the maxima of (surviving antichain ∪ orphans).
//
// Storage is columnar. The candidates (WHERE survivors) are one Relation
// that starts out sharing the seed snapshot's column buffers: the whole
// snapshot without a WHERE, SelectRows(survivors) with one. Beside it sit
// two 32-bit vectors, each candidate's current table row and its witness,
// and the antichain of candidate indices: 8 bytes per candidate until the
// first mutation clones the buffers it writes. Inserts append to the
// columns and deletes compact them in place (Relation::EraseRows). On the
// 20k-row car table that comes to about 220 B per candidate, against
// about 650 B for the whole-row plus projected Tuple per candidate it
// replaces. A delta's rows are gathered from the columns once per
// mutation into flat column buffers the delta owns (ColumnStore::Gather;
// only the append-only string dictionaries are shared), so a delta held
// by a subscriber never pins the view's columns.
//
// Dominance passes reuse the compiled execution layer: when the term
// compiles, each pass compiles a ScoreTable straight from the candidate
// columns over the touched rows (antichain + batch — NOT the whole
// table) and runs the SIMD batch kernels; non-compilable terms fall back
// to the bound closure order over projections materialized for that pass
// only. When most witnesses die at once, orphan maintenance degenerates
// into a full scan — the cost model (EstimateViewMaintenanceNs vs
// EstimateViewReseedNs, eval/physical_plan.h) prices both and the view
// reseeds from scratch when that is cheaper.
//
// Every mutation returns a ViewDelta (enter/exit row sets). The view is
// not internally synchronized: the Engine serializes all calls under its
// catalog lock, which is what makes delta streams snapshot-consistent.

#ifndef PREFDB_IVM_MAINTAINED_VIEW_H_
#define PREFDB_IVM_MAINTAINED_VIEW_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "exec/score_table.h"
#include "ivm/delta.h"
#include "relation/relation.h"
#include "stats/stats.h"

namespace prefdb::ivm {

class MaintainedView {
 public:
  /// Seeds the view from `snapshot` at table version `version`. `where`
  /// (nullable) is the query's hard selection; only passing rows are
  /// candidates. Throws std::out_of_range when a preference attribute
  /// does not resolve in the snapshot's schema.
  MaintainedView(PrefPtr preference, std::function<bool(const Tuple&)> where,
                 const Relation& snapshot, uint64_t version,
                 const BmoOptions& options = {});

  /// One appended table row (table index = old table size). O(window)
  /// batch-kernel pass against the antichain.
  ViewDelta ApplyInsert(const Tuple& row, size_t table_row,
                        uint64_t new_version);

  /// Deleted pre-delete table row indices, sorted ascending. Re-examines
  /// only witness orphans (or reseeds when the cost model says a full
  /// pass is cheaper).
  ViewDelta ApplyDelete(const std::vector<size_t>& deleted_table_rows,
                        uint64_t new_version);

  /// Full-state delta: resync=true, enters = current result rows. The
  /// bootstrap delta of every subscription and the coalesced recovery
  /// pushed to subscribers that overflow their queue.
  ViewDelta Resync() const;

  /// Table version the view state reflects.
  uint64_t version() const { return version_; }
  /// Candidate rows mirrored (WHERE survivors), and current maxima count.
  size_t candidates() const { return rows_.size(); }
  size_t antichain_size() const { return antichain_.size(); }
  /// Current-table row indices of the result, ascending — the engine's
  /// exec-cache refresh path serves subscribed queries from these.
  std::vector<size_t> MaximaTableRows() const;
  const ViewMaintenanceStats& maintenance_stats() const { return mstats_; }
  /// Heap bytes the view alone holds: the candidate column buffers it
  /// does not share with a snapshot (by capacity), its id vectors and
  /// its antichain.
  size_t HeapBytes() const;

 private:
  static constexpr uint32_t kMaximal = UINT32_MAX;

  /// One dominance pass over a candidate subset: maximal flags aligned
  /// with the subset, and what the witness probes read — the compiled
  /// table (row k = subset position k) or, on the closure path, the
  /// subset's projections.
  struct Pass {
    std::vector<bool> flags;
    std::optional<ScoreTable> table;
    std::vector<Tuple> projs;
  };

  /// Rebuilds antichain + witnesses with a full pass over all live
  /// candidates.
  void Reseed();
  /// Maxima of `subset` (ascending candidate indices), through the
  /// compiled batch kernels when the term compiles, else the closure
  /// order.
  Pass RunPass(const std::vector<size_t>& subset) const;
  /// First of `positions` (subset positions of `pass`) that dominates
  /// position `k`, or SIZE_MAX.
  size_t Dominator(const Pass& pass, size_t k,
                   const std::vector<size_t>& positions) const;
  /// Witness bookkeeping for every subset member: flagged rows become
  /// kMaximal, dominated rows record one flagged dominator (transitivity
  /// guarantees one exists among the subset's maxima).
  void AssignWitnesses(const std::vector<size_t>& subset, const Pass& pass);
  /// Erases dead candidates and remaps witness indices, antichain_ and
  /// `was_max` (one flag per candidate) onto the compacted numbering. All
  /// witnesses must be live on entry.
  void Compact(const std::vector<char>& dead, std::vector<char>* was_max);
  /// A delta at `version` with empty enters and exits.
  ViewDelta NoChange(uint64_t version) const;
  /// `candidates` (ascending candidate indices), gathered into a flat
  /// store that shares no column with the view; empty_ when there are
  /// none.
  Relation Gather(std::vector<uint32_t> candidates) const;

  PrefPtr pref_;
  std::vector<size_t> proj_cols_;
  std::function<bool(const Tuple&)> where_;
  LessFn less_;             // closure order over projections (always exact)
  bool compilable_ = false; // ScoreTable::CompilableTerm(pref_)
  PhysicalPlan plan_;       // kernel knobs for the compiled passes
  // Zero-row relation with the table's schema, copied into every empty
  // enters/exits. Nothing writes to it, so the copies share its (empty)
  // columns without ever cloning them.
  Relation empty_;

  uint64_t version_ = 0;
  Relation rows_;                     // candidate rows, ascending table row
  std::vector<uint32_t> table_rows_;  // candidate -> current table row
  std::vector<uint32_t> witness_;     // kMaximal, or a live dominating
                                      // candidate's index
  std::vector<uint32_t> antichain_;   // maximal candidate indices, ascending
  ViewMaintenanceStats mstats_;
};

}  // namespace prefdb::ivm

#endif  // PREFDB_IVM_MAINTAINED_VIEW_H_
