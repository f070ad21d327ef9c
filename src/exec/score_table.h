// Vectorized score-table execution layer: compiles a preference term once
// over a pool of rows of a relation's column store into a flat numeric
// matrix plus a dominance descriptor, so the BMO inner loops (BNL window,
// SFS presort + window) run over raw `const double*` rows instead of chasing per-comparison std::function
// closures and Tuple copies.
//
// What compiles (Kießling Defs. 6-9 fragment), and how each leaf reads
// the column store (relation/column_store.h):
//  - numerical base preferences (LOWEST/HIGHEST/AROUND/BETWEEN/SCORE,
//    Def. 7): the leaf's inducing score, raw. On an all-numeric NaN-free
//    column they read the widened double buffer directly: LOWEST/HIGHEST
//    are injective (a straight fill, no ids), the others take equality
//    ids from one sort over the doubles;
//  - level-based base preferences (POS/NEG/POS/POS/POS/NEG/LAYERED and
//    weak-order EXPLICIT graphs, Def. 6): intrinsic levels
//    (eval/quality.h), negated so "higher score = better" holds uniformly;
//  - rank(F) (Def. 10): the combined utility as one column;
//  - anti-chains (Def. 3b): a constant column whose equality classes are
//    the value combinations (this is what makes `A<-> & P` grouping terms
//    compile);
//  - arbitrary nesting of Pareto (Def. 8), prioritized (Def. 9),
//    intersection and disjoint-union (Def. 11) aggregation on top, and
//    DUAL of any of the above: DUAL distributes over all four (dual(P ⊗ Q)
//    = dual(P) ⊗ dual(Q), likewise for &, <> and +, since equality per
//    side is value equality either way and dual of a conjunction resp.
//    disjunction of orders is the conjunction/disjunction of the duals),
//    so the compiler pushes the order flip down to the leaves, where it is
//    a score negation on the descriptor. Intersection/union nodes have no
//    flat evaluation mode and run the general node program; disjoint union
//    compiles the *formula* l1 || l2 — the order-disjointness precondition
//    (Def. 4) remains the caller's contract, exactly as in the closure.
// Everything else (SUBSET, LINEAR_SUM, non-weak-order EXPLICIT) does not
// compile and the caller falls back to the closure-based path.
//
// Every leaf but the numeric fast paths — strings, NULL, NaN or mixed
// columns included — takes its equality classes from ComputeGroupCoding
// over the leaf's columns (dictionary codes for string columns) and is
// scored once per class from a representative cell.
//
// Def. 8/9 equality is *value* equality, not score equality: AROUND(10)
// scores 5 and 15 identically although the values are incomparable. Each
// column therefore carries equality-class ids; columns whose scores are
// injective on the pool skip the id test (score equality suffices). A
// table of one such column orders its rows by score alone, so its BNL
// window never holds more than one score level (IsScoreChain).
//
// The matrix is stored row-major: a dominance test touches every column of
// exactly two rows, so the two rows' scores are contiguous cache lines.
//
// Maxima runs BNL, SFS, or — under kAuto — both in one pass: BNL streams
// the rows, and once its window is wide (SwitchBound, plus a density
// test against the rows streamed so far) the window and the rows not yet
// streamed are presorted and finish as SFS. The choice between the two
// kernels is observed while they run; MaximaRun reports it.

#ifndef PREFDB_EXEC_SCORE_TABLE_H_
#define PREFDB_EXEC_SCORE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/preference.h"
#include "eval/bmo.h"
#include "eval/physical_plan.h"
#include "exec/float_eq.h"
#include "exec/simd/dominance.h"

namespace prefdb {

class Relation;

/// What one ScoreTable::Maxima pass ran: the kernel that finished it and,
/// under kAuto, where BNL handed over to SFS.
struct MaximaRun {
  /// The kernel that produced the flags.
  BmoAlgorithm finished = BmoAlgorithm::kBlockNestedLoop;
  /// kAuto's bound on the BNL window (ScoreTable::SwitchBound); 0 when
  /// the pass could not switch.
  size_t bound = 0;
  /// Rows BNL had streamed when it handed over to SFS, and its window's
  /// size then; both 0 when the pass did not switch.
  size_t switch_row = 0;
  size_t switch_window = 0;
  /// Rows of the pass, and the maximal rows it returned.
  size_t rows = 0;
  size_t maxima = 0;

  bool switched() const { return switch_row > 0; }
  /// EXPLAIN's line: "switch: bnl→sfs at row i of m, window w (final f)",
  /// "no switch (bound b, final window f)", or "" when the pass could
  /// not switch.
  std::string ToString() const;
};

class ScoreTable {
 public:
  /// Static (data-independent) compilability of a term. True iff Compile()
  /// will succeed for any relation (modulo schema resolution errors,
  /// which throw from Compile exactly like Preference::Bind would).
  static bool CompilableTerm(const PrefPtr& p);

  /// Static sort-key derivability: true iff the compiled table will expose
  /// topologically compatible sort keys (every leaf yields one key;
  /// prioritization concatenates; Pareto needs single-key sides and sums).
  /// Strictly wider than Preference::BindSortKeys — level-based leaves are
  /// weak orders and always yield a key here.
  static bool HasStaticSortKeys(const PrefPtr& p);

  /// Compiles `p` over the rows of `r`'s column store selected by `pool`
  /// (logical row indices; null means every row): row i of the table is
  /// pool position i. Returns nullopt for non-compilable terms. Throws
  /// std::out_of_range when an attribute of `p` does not resolve in
  /// `r`'s schema (mirroring Preference::Bind). Sound for duplicate rows
  /// (equal values share scores and equality ids); callers deduplicate
  /// only for kernel-cost reasons, by passing one representative row per
  /// value combination as the pool.
  static std::optional<ScoreTable> Compile(
      const PrefPtr& p, const Relation& r,
      const std::vector<size_t>* pool = nullptr);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Heap bytes owned by the table: score matrix, id matrix (empty when
  /// no column uses ids), descriptor and sort keys.
  size_t HeapBytes() const;

  /// Exact strict-partial-order test "x <P y" between two compiled rows;
  /// agrees with the closure p->Bind(proj_schema) on the block.
  bool Less(size_t x, size_t y) const;

  /// First row in `rows` that dominates x ("x <P row"), or SIZE_MAX when
  /// none does — the IVM layer's witness probe (ivm/maintained_view.h):
  /// a dominated row records one live dominator so deletes only re-scan
  /// rows whose witness died.
  size_t FindDominator(size_t x, const std::vector<size_t>& rows) const;

  /// True when the table is one score column whose score ties are value
  /// ties (no id test): the order is a chain over the distinct values
  /// (LOWEST/HIGHEST on a NaN-free numeric column), so the BMO set is the
  /// top score level and the BNL window never holds more than one level.
  bool IsScoreChain() const;

  /// True when topologically compatible sort keys exist for the SFS kernel.
  bool HasSortKeys() const { return !sort_keys_.empty(); }
  size_t num_sort_keys() const { return sort_keys_.size(); }

  /// The compiled dominance descriptor (shared with the batch kernels).
  const simd::DominanceProgram& program() const { return prog_; }

  /// kAuto's bound on the BNL window: ceil(2.5 * sqrt(rows())), or 0 when
  /// kAuto runs BNL throughout (a score chain, or a table without sort
  /// keys).
  size_t SwitchBound() const;

  /// Maximal-row flags over the whole table. kSortFilter presorts by the
  /// sort keys and scans a one-sided window; kAuto streams BNL and, once
  /// its window holds more than SwitchBound() rows and more than 6·√i
  /// after i rows, presorts that window plus the rows not yet streamed
  /// and finishes as SFS (every row BNL dropped is dominated by a window
  /// member, so the maxima of window and rest are the maxima of the
  /// table). Everything else — kNaive too;
  /// the naive oracle is the closure path, MaximaNaive in eval/bmo.h —
  /// runs BNL, and SFS falls back to BNL on a row list with a non-finite
  /// key. `plan` supplies the kernel fields: the batch dominance kernel
  /// (scalar/AVX2 dispatch) and the tiled-BNL block size. `run`, when
  /// given, receives what the pass ran.
  std::vector<bool> Maxima(BmoAlgorithm algo, const PhysicalPlan& plan = {},
                           MaximaRun* run = nullptr) const;

  /// Label of the kernel that finished `run` under `plan` — e.g.
  /// "bnl[avx2,tile=8192]", "sfs[scalar]" — surfaced by EXPLAIN and
  /// QueryStats.
  std::string KernelVariant(const MaximaRun& run,
                            const PhysicalPlan& plan = {}) const;

 private:
  ScoreTable() = default;

  struct ColumnData;  // per-column materialization state (score_table.cc)

  /// Tail of Compile: mode resolution, row-major matrix assembly,
  /// per-column flags and sort-key derivation. Consumes
  /// `columns`; prog_.nodes/root must already be built. `has_other` marks
  /// intersection/union nodes, which force the general evaluation mode.
  void Assemble(std::vector<ColumnData>&& columns, size_t count,
                bool has_pareto, bool has_prio, bool has_other);

  const double* Row(size_t r) const { return scores_.data() + r * cols_; }
  /// Row r's equality-class ids, or nullptr when no column uses the id
  /// test (the id matrix is then never built; see Assemble).
  const uint32_t* Ids(size_t r) const {
    return ids_.empty() ? nullptr : ids_.data() + r * cols_;
  }

  bool ColumnEq(size_t c, const double* sx, const double* sy,
                const uint32_t* ix, const uint32_t* iy) const {
    // NaN-bearing columns always set use_ids, so the raw-score branch
    // meets ScoreEqNanFree's precondition.
    return prog_.use_ids[c] ? ix[c] == iy[c]
                            : exec::ScoreEqNanFree(sx[c], sy[c]);
  }
  bool ParetoLess(size_t x, size_t y) const;
  bool LexLess(size_t x, size_t y) const;
  bool GeneralLess(size_t x, size_t y) const;
  // (less, eq) of a descriptor subtree on a row pair.
  std::pair<bool, bool> EvalNode(int node, const double* sx, const double* sy,
                                 const uint32_t* ix,
                                 const uint32_t* iy) const;

  double SortKeyValue(size_t row, size_t key) const;

  /// Tiled BNL over every table row through the batch dominance
  /// kernels. Streams candidates against the window while it is smaller
  /// than `tile_rows`; once the window outgrows that budget, each tile is
  /// reduced to its local maxima in cache and only the survivors
  /// antichain-merge into the global window. On a score chain the window
  /// is one score level and each candidate is decided against one member
  /// of it. Once the window holds more than `bound` rows (0 = never), the
  /// window plus the rows not yet streamed finish under SfsRows.
  std::vector<bool> BnlBatch(const simd::KernelOps& ops, size_t tile_rows,
                             size_t bound, MaximaRun* run) const;
  /// Presorted one-sided window scan over `rows`; flags align with
  /// `rows`. nullopt when a key value is not finite.
  std::optional<std::vector<bool>> SfsRows(const simd::KernelOps& ops,
                                           const std::vector<size_t>& rows,
                                           MaximaRun* run) const;
  size_t ResolveTileRows(size_t requested) const;

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> scores_;  // row-major rows_ x cols_
  std::vector<uint32_t> ids_;   // row-major equality-class ids; empty
                                // when no column has use_ids
  /// Dominance descriptor (mode, per-column id flags, node program),
  /// shared with the batch kernels.
  simd::DominanceProgram prog_;
  // Each sort key is the plain sum of the listed columns' scores; keys
  // compare lexicographically, descending = better first. Soundness of
  // the SFS kernel requires all key values finite — the kernel checks and
  // degrades to BNL otherwise (a NaN or +/-inf-absorbed sum can tie or
  // invert the topological order).
  std::vector<std::vector<int>> sort_keys_;
};

}  // namespace prefdb

#endif  // PREFDB_EXEC_SCORE_TABLE_H_
