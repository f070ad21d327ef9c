#include "exec/score_table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/base_preferences.h"
#include "core/complex_preferences.h"
#include "core/numeric_preferences.h"
#include "eval/quality.h"
#include "exec/hardware.h"
#include "relation/relation.h"

namespace prefdb {

namespace {

bool IsScoredLeafKind(PreferenceKind k) {
  switch (k) {
    case PreferenceKind::kAround:
    case PreferenceKind::kBetween:
    case PreferenceKind::kLowest:
    case PreferenceKind::kHighest:
    case PreferenceKind::kScore:
      return true;
    default:
      return false;
  }
}

bool IsLevelLeafKind(PreferenceKind k) {
  switch (k) {
    case PreferenceKind::kPos:
    case PreferenceKind::kNeg:
    case PreferenceKind::kPosNeg:
    case PreferenceKind::kPosPos:
    case PreferenceKind::kLayered:
      return true;
    default:
      return false;
  }
}

// Number of sort keys Preference::BindSortKeys would return, derived
// statically; nullopt when no keys are derivable. rank(F) requires its
// inputs to reduce to exactly one closure key (Def. 10 SCORE
// compatibility), so this mirrors the closure rules, not the wider
// score-table ones.
std::optional<size_t> ClosureKeyCount(const PrefPtr& p) {
  switch (p->kind()) {
    case PreferenceKind::kAntiChain:
      return 1;
    case PreferenceKind::kDual:
      return ClosureKeyCount(p->children()[0]);
    case PreferenceKind::kRankF: {
      for (const auto& in : p->children()) {
        auto n = ClosureKeyCount(in);
        if (!n || *n != 1) return std::nullopt;
      }
      return 1;
    }
    case PreferenceKind::kPareto: {
      auto kids = p->children();
      auto l = ClosureKeyCount(kids[0]);
      auto r = ClosureKeyCount(kids[1]);
      if (l && r && *l == 1 && *r == 1) return 1;
      return std::nullopt;
    }
    case PreferenceKind::kPrioritized: {
      auto kids = p->children();
      auto l = ClosureKeyCount(kids[0]);
      auto r = ClosureKeyCount(kids[1]);
      if (l && r) return *l + *r;
      return std::nullopt;
    }
    default:
      return IsScoredLeafKind(p->kind()) ? std::optional<size_t>(1)
                                         : std::nullopt;
  }
}

// A leaf already stripped of DUAL wrappers. All class checks are
// dynamic_casts, never kind-tag downcasts: subclasses defined outside
// core/ may share a kind without the expected layout and must fall back
// to the closure path (or, for level kinds, opt in via the
// BasePreference::IntrinsicLevelOf contract).
bool CompilableLeaf(const PrefPtr& p) {
  if (IsScoredLeafKind(p->kind())) {
    return dynamic_cast<const ScoredBasePreference*>(p.get()) != nullptr;
  }
  if (IsLevelLeafKind(p->kind())) {
    // Probe the level contract (all-or-none per class).
    const auto* base = dynamic_cast<const BasePreference*>(p.get());
    return base && base->IntrinsicLevelOf(Value()).has_value();
  }
  switch (p->kind()) {
    case PreferenceKind::kAntiChain:
      return true;
    case PreferenceKind::kExplicit: {
      // EXPLICIT dict-encodes as a level column only when the graph order
      // *is* its level order (precomputed at construction). Values
      // outside the graph sit below the deepest level and are consistent
      // automatically.
      const auto* e = dynamic_cast<const ExplicitPreference*>(p.get());
      return e && e->IsLevelOrder();
    }
    case PreferenceKind::kRankF: {
      if (!dynamic_cast<const RankPreference*>(p.get())) return false;
      for (const auto& in : p->children()) {
        auto n = ClosureKeyCount(in);
        if (!n || *n != 1) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

bool CompilableRec(const PrefPtr& p0, bool dual) {
  PrefPtr p = p0;
  while (p->kind() == PreferenceKind::kDual) {
    dual = !dual;
    p = p->children()[0];
  }
  if (p->kind() == PreferenceKind::kPareto ||
      p->kind() == PreferenceKind::kPrioritized ||
      p->kind() == PreferenceKind::kIntersection ||
      p->kind() == PreferenceKind::kDisjointUnion) {
    // DUAL distributes over all four aggregations: over the accumulations
    // because equality per side is value equality (which dual preserves),
    // and over intersection/union because dual of a conjunction (resp.
    // disjunction) of orders is the conjunction (disjunction) of the
    // duals. So the order flip is pushed to the leaves at descriptor
    // build time.
    auto kids = p->children();
    return CompilableRec(kids[0], dual) && CompilableRec(kids[1], dual);
  }
  return CompilableLeaf(p);
}

// Key count of the *compiled* table (every compilable leaf yields one key).
std::optional<size_t> TableKeyCount(const PrefPtr& p0) {
  PrefPtr p = p0;
  while (p->kind() == PreferenceKind::kDual) p = p->children()[0];
  switch (p->kind()) {
    // Intersection keys like Pareto: x <(P<>Q) y implies both sides
    // strictly improve, so the summed single-column-set key strictly
    // improves too.
    case PreferenceKind::kPareto:
    case PreferenceKind::kIntersection: {
      auto kids = p->children();
      auto l = TableKeyCount(kids[0]);
      auto r = TableKeyCount(kids[1]);
      if (l && r && *l == 1 && *r == 1) return 1;
      return std::nullopt;
    }
    // Disjoint union derives no key: x <(P+Q) y needs only one side to
    // improve, and the other side's key may move the sum either way.
    case PreferenceKind::kDisjointUnion:
      return std::nullopt;
    case PreferenceKind::kPrioritized: {
      auto kids = p->children();
      auto l = TableKeyCount(kids[0]);
      auto r = TableKeyCount(kids[1]);
      if (l && r) return *l + *r;
      return std::nullopt;
    }
    default:
      return 1;
  }
}

size_t ResolveColumnOrThrow(const Schema& schema, const std::string& name) {
  auto idx = schema.IndexOf(name);
  if (!idx) {
    throw std::out_of_range("attribute '" + name + "' not found in schema " +
                            schema.ToString());
  }
  return *idx;
}

// True when score equality does not imply value equality on a leaf
// scored once per equality class: two classes tie, or a score is NaN (NaN
// compares unequal to itself). Such a column needs the id test.
// Sort-based: one double sort beats hashing.
bool ClassScoresTie(std::vector<double> class_scores) {
  for (double s : class_scores) {
    if (std::isnan(s)) return true;  // also keeps NaN out of the sort
  }
  std::sort(class_scores.begin(), class_scores.end());
  for (size_t i = 1; i < class_scores.size(); ++i) {
    if (exec::ScoreEqNanFree(class_scores[i - 1], class_scores[i])) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ScoreTable::CompilableTerm(const PrefPtr& p) {
  return CompilableRec(p, false);
}

bool ScoreTable::HasStaticSortKeys(const PrefPtr& p) {
  return CompilableTerm(p) && TableKeyCount(p).has_value();
}

// ---------------------------------------------------------------------------
// Compilation

// Per-column materialization state, assembled row-major afterwards.
struct ScoreTable::ColumnData {
  std::vector<double> scores;
  std::vector<uint32_t> ids;  // read only when use_ids
  bool use_ids = false;
};

void ScoreTable::Assemble(std::vector<ColumnData>&& columns, size_t count,
                          bool has_pareto, bool has_prio, bool has_other) {
  cols_ = columns.size();
  prog_.cols = cols_;
  // Intersection/union nodes have no flat-mode shortcut, so any such node
  // anywhere in the descriptor forces the general node program.
  prog_.mode =
      has_other
          ? simd::DominanceProgram::Mode::kGeneral
          : has_prio ? (has_pareto ? simd::DominanceProgram::Mode::kGeneral
                                   : simd::DominanceProgram::Mode::kFlatLex)
                     : simd::DominanceProgram::Mode::kFlatPareto;

  // Assemble the row-major matrix. The id matrix exists only when some
  // column needs the id test: no dominance path reads an id otherwise.
  bool any_ids = false;
  for (const ColumnData& col : columns) any_ids = any_ids || col.use_ids;
  scores_.resize(count * cols_);
  if (any_ids) ids_.resize(count * cols_);
  prog_.use_ids.resize(cols_);
  for (size_t c = 0; c < cols_; ++c) {
    prog_.use_ids[c] = columns[c].use_ids ? 1 : 0;
    for (size_t r = 0; r < count; ++r) {
      scores_[r * cols_ + c] = columns[c].scores[r];
    }
    if (!columns[c].use_ids) continue;
    for (size_t r = 0; r < count; ++r) {
      ids_[r * cols_ + c] = columns[c].ids[r];
    }
  }

  // Sort keys from the descriptor: leaf -> its column; prioritized ->
  // concatenation; Pareto and intersection -> the sum of two
  // single-column-set keys (both demand a strict improvement on each
  // side, so the sum strictly improves); union -> none (one-sided strict
  // improvement leaves the sum unordered).
  std::function<std::optional<std::vector<std::vector<int>>>(int)> keys_of =
      [this, &keys_of](int n) -> std::optional<std::vector<std::vector<int>>> {
    const simd::DominanceProgram::Node& node = prog_.nodes[n];
    if (node.kind == simd::DominanceProgram::Node::Kind::kLeaf) {
      return std::vector<std::vector<int>>{{node.a}};
    }
    if (node.kind == simd::DominanceProgram::Node::Kind::kUnion) {
      return std::nullopt;
    }
    auto l = keys_of(node.a);
    auto r = keys_of(node.b);
    if (!l || !r) return std::nullopt;
    if (node.kind == simd::DominanceProgram::Node::Kind::kPrioritized) {
      for (auto& k : *r) l->push_back(std::move(k));
      return l;
    }
    if (l->size() != 1 || r->size() != 1) return std::nullopt;
    for (int c : (*r)[0]) (*l)[0].push_back(c);
    return l;
  };
  if (auto keys = keys_of(prog_.root)) {
    sort_keys_ = std::move(*keys);
  }
}

std::optional<ScoreTable> ScoreTable::Compile(const PrefPtr& p,
                                              const Relation& r,
                                              const std::vector<size_t>* pool) {
  if (!CompilableTerm(p)) return std::nullopt;
  const ColumnStore& store = r.store();
  const size_t count = pool ? pool->size() : r.size();

  ScoreTable table;
  table.rows_ = count;
  std::vector<ColumnData> columns;
  bool has_pareto = false;
  bool has_prio = false;
  bool has_other = false;  // intersection/union: forces kGeneral

  // Logical row i -> physical row in the column buffers. Identity when
  // compiling a flat store without a pool — the common cold path — so the
  // numeric leaf loops read the column buffers with zero indirection.
  std::vector<uint32_t> phys;
  const bool identity = pool == nullptr && !store.IsView();
  if (!identity) {
    phys.resize(count);
    for (size_t i = 0; i < count; ++i) {
      phys[i] =
          static_cast<uint32_t>(store.PhysicalRow(pool ? (*pool)[i] : i));
    }
  }

  // Appends a leaf column from per-row equality ids and one score per
  // class.
  auto add_classes = [&](std::vector<uint32_t> ids,
                         std::vector<double> class_scores) {
    ColumnData out;
    out.scores.resize(count);
    for (size_t i = 0; i < count; ++i) out.scores[i] = class_scores[ids[i]];
    out.use_ids = ClassScoresTie(std::move(class_scores));
    out.ids = std::move(ids);
    columns.push_back(std::move(out));
    return static_cast<int>(columns.size() - 1);
  };

  // Scored leaf on an all-numeric, NaN-free column: the widened doubles
  // are exactly the Value-semantics column, so equality ids come from one
  // sort over raw doubles, scored once per run.
  auto build_numeric_leaf = [&](size_t c,
                                const std::function<double(double)>& score_of) {
    const std::vector<double>& col = store.column(c).nums;
    std::vector<double> gathered;
    if (!identity) {
      gathered.resize(count);
      for (size_t i = 0; i < count; ++i) gathered[i] = col[phys[i]];
    }
    const double* nums = identity ? col.data() : gathered.data();
    std::vector<uint32_t> order(count);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [nums](uint32_t a, uint32_t b) { return nums[a] < nums[b]; });
    std::vector<uint32_t> ids(count);
    std::vector<double> class_scores;
    for (size_t i = 0; i < count; ++i) {
      if (i > 0 &&
          exec::ScoreEqNanFree(nums[order[i - 1]], nums[order[i]])) {
        ids[order[i]] = ids[order[i - 1]];
      } else {
        ids[order[i]] = static_cast<uint32_t>(class_scores.size());
        class_scores.push_back(score_of(nums[order[i]]));
      }
    }
    return add_classes(std::move(ids), std::move(class_scores));
  };

  // Every other leaf: equality classes are the value combinations over
  // the leaf's columns (ComputeGroupCoding: Value equality, so NULL, NaN,
  // strings and mixed columns are all exact), scored once per class from
  // a representative row. Per-class scoring is sound because the class
  // key is the leaf's full attribute set, which is everything the score
  // reads.
  auto build_coded_leaf = [&](const std::vector<size_t>& cols,
                              const std::function<double(size_t)>& score_of) {
    GroupCoding coding = ComputeGroupCoding(r, cols, pool);
    std::vector<double> class_scores;
    class_scores.reserve(coding.num_groups);
    for (uint32_t rep : coding.group_rows) {
      class_scores.push_back(score_of(pool ? (*pool)[rep] : rep));
    }
    return add_classes(std::move(coding.codes), std::move(class_scores));
  };

  // Recursive descriptor build; returns the node index.
  std::function<int(const PrefPtr&, bool)> build = [&](const PrefPtr& p0,
                                                       bool dual) -> int {
    PrefPtr cur = p0;
    while (cur->kind() == PreferenceKind::kDual) {
      dual = !dual;
      cur = cur->children()[0];
    }
    if (cur->kind() == PreferenceKind::kPareto ||
        cur->kind() == PreferenceKind::kPrioritized ||
        cur->kind() == PreferenceKind::kIntersection ||
        cur->kind() == PreferenceKind::kDisjointUnion) {
      // A surrounding DUAL distributes over every aggregation here: flip
      // the order of every leaf below instead (score negation).
      auto kids = cur->children();
      int l = build(kids[0], dual);
      int rr = build(kids[1], dual);
      simd::DominanceProgram::Node node;
      switch (cur->kind()) {
        case PreferenceKind::kPareto:
          node.kind = simd::DominanceProgram::Node::Kind::kPareto;
          has_pareto = true;
          break;
        case PreferenceKind::kPrioritized:
          node.kind = simd::DominanceProgram::Node::Kind::kPrioritized;
          has_prio = true;
          break;
        case PreferenceKind::kIntersection:
          node.kind = simd::DominanceProgram::Node::Kind::kIntersect;
          has_other = true;
          break;
        default:
          node.kind = simd::DominanceProgram::Node::Kind::kUnion;
          has_other = true;
          break;
      }
      node.a = l;
      node.b = rr;
      table.prog_.nodes.push_back(node);
      return static_cast<int>(table.prog_.nodes.size() - 1);
    }

    const double sign = dual ? -1.0 : 1.0;
    std::vector<size_t> cols;
    for (const auto& name : cur->attributes()) {
      cols.push_back(ResolveColumnOrThrow(r.schema(), name));
    }
    int col = -1;
    if (IsScoredLeafKind(cur->kind())) {
      const auto* scored =
          dynamic_cast<const ScoredBasePreference*>(cur.get());
      const size_t c = cols[0];
      if (!store.column(c).NumericNanFree()) {
        col = build_coded_leaf(cols, [&r, scored, sign, c](size_t row) {
          return sign * scored->ScoreOf(r.ValueAt(row, c));
        });
      } else if (cur->kind() == PreferenceKind::kLowest ||
                 cur->kind() == PreferenceKind::kHighest) {
        // Strictly monotone score on an all-numeric column: injective by
        // construction — a straight fill off the column buffer, no sort,
        // no ids.
        const std::vector<double>& nums = store.column(c).nums;
        ColumnData out;
        out.scores.resize(count);
        if (identity) {
          for (size_t i = 0; i < count; ++i) {
            out.scores[i] = sign * scored->ScoreOf(Value(nums[i]));
          }
        } else {
          for (size_t i = 0; i < count; ++i) {
            out.scores[i] = sign * scored->ScoreOf(Value(nums[phys[i]]));
          }
        }
        columns.push_back(std::move(out));
        col = static_cast<int>(columns.size() - 1);
      } else {
        col = build_numeric_leaf(c, [scored, sign](double v) {
          return sign * scored->ScoreOf(Value(v));
        });
      }
    } else if (IsLevelLeafKind(cur->kind()) ||
               cur->kind() == PreferenceKind::kExplicit) {
      // Lower level = better, so the uniform "higher score wins" view
      // negates the level.
      const Preference* raw = cur.get();
      const size_t c = cols[0];
      col = build_coded_leaf(cols, [&r, raw, sign, c](size_t row) {
        return -sign * static_cast<double>(IntrinsicLevel(*raw, r.ValueAt(row, c)));
      });
    } else if (cur->kind() == PreferenceKind::kAntiChain) {
      col = build_coded_leaf(cols, [](size_t) { return 0.0; });
    } else {  // kRankF (guaranteed by CompilableTerm)
      // The utility reads a full-arity Tuple; one scratch tuple is reused,
      // mutating only the leaf's cells.
      ScoreFn utility =
          dynamic_cast<const RankPreference*>(cur.get())->BindUtility(
              r.schema());
      Tuple scratch{std::vector<Value>(r.schema().size())};
      col = build_coded_leaf(cols, [&](size_t row) {
        for (size_t c : cols) scratch[c] = r.ValueAt(row, c);
        return sign * utility(scratch);
      });
    }
    simd::DominanceProgram::Node node;
    node.kind = simd::DominanceProgram::Node::Kind::kLeaf;
    node.a = col;
    table.prog_.nodes.push_back(node);
    return static_cast<int>(table.prog_.nodes.size() - 1);
  };

  table.prog_.root = build(p, false);
  table.Assemble(std::move(columns), count, has_pareto, has_prio, has_other);
  return table;
}

size_t ScoreTable::HeapBytes() const {
  size_t bytes = scores_.capacity() * sizeof(double) +
                 ids_.capacity() * sizeof(uint32_t) +
                 prog_.use_ids.capacity() * sizeof(uint8_t) +
                 prog_.nodes.capacity() *
                     sizeof(simd::DominanceProgram::Node) +
                 sort_keys_.capacity() * sizeof(std::vector<int>);
  for (const std::vector<int>& key : sort_keys_) {
    bytes += key.capacity() * sizeof(int);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Dominance tests

bool ScoreTable::ParetoLess(size_t x, size_t y) const {
  const double* sx = Row(x);
  const double* sy = Row(y);
  const uint32_t* ix = Ids(x);
  const uint32_t* iy = Ids(y);
  bool strict = false;
  for (size_t c = 0; c < cols_; ++c) {
    if (sx[c] < sy[c]) {
      strict = true;
      continue;
    }
    if (!ColumnEq(c, sx, sy, ix, iy)) return false;
  }
  return strict;
}

bool ScoreTable::LexLess(size_t x, size_t y) const {
  const double* sx = Row(x);
  const double* sy = Row(y);
  const uint32_t* ix = Ids(x);
  const uint32_t* iy = Ids(y);
  for (size_t c = 0; c < cols_; ++c) {
    if (ColumnEq(c, sx, sy, ix, iy)) continue;
    return sx[c] < sy[c];
  }
  return false;
}

std::pair<bool, bool> ScoreTable::EvalNode(int n, const double* sx,
                                           const double* sy,
                                           const uint32_t* ix,
                                           const uint32_t* iy) const {
  const simd::DominanceProgram::Node& node = prog_.nodes[n];
  if (node.kind == simd::DominanceProgram::Node::Kind::kLeaf) {
    size_t c = static_cast<size_t>(node.a);
    return {sx[c] < sy[c], ColumnEq(c, sx, sy, ix, iy)};
  }
  auto [l1, e1] = EvalNode(node.a, sx, sy, ix, iy);
  auto [l2, e2] = EvalNode(node.b, sx, sy, ix, iy);
  if (node.kind == simd::DominanceProgram::Node::Kind::kPareto) {
    return {(l1 && (l2 || e2)) || (l2 && (l1 || e1)), e1 && e2};
  }
  if (node.kind == simd::DominanceProgram::Node::Kind::kIntersect) {
    return {l1 && l2, e1 && e2};
  }
  if (node.kind == simd::DominanceProgram::Node::Kind::kUnion) {
    return {l1 || l2, e1 && e2};
  }
  return {l1 || (e1 && l2), e1 && e2};
}

bool ScoreTable::GeneralLess(size_t x, size_t y) const {
  return EvalNode(prog_.root, Row(x), Row(y), Ids(x), Ids(y)).first;
}

bool ScoreTable::Less(size_t x, size_t y) const {
  switch (prog_.mode) {
    case simd::DominanceProgram::Mode::kFlatPareto:
      return ParetoLess(x, y);
    case simd::DominanceProgram::Mode::kFlatLex:
      return LexLess(x, y);
    case simd::DominanceProgram::Mode::kGeneral:
      return GeneralLess(x, y);
  }
  return false;
}

size_t ScoreTable::FindDominator(size_t x,
                                 const std::vector<size_t>& rows) const {
  for (size_t r : rows) {
    if (r != x && Less(x, r)) return r;
  }
  return static_cast<size_t>(-1);
}

bool ScoreTable::IsScoreChain() const {
  return cols_ == 1 && !prog_.use_ids[0];
}

// ---------------------------------------------------------------------------
// Kernels, through the batch dominance kernels.

namespace {

// kAuto hands BNL over to SFS once its window holds more than
// kSwitchWindowPerSqrtRow * sqrt(m) rows (m: the table's rows, the
// SwitchBound) and more than kSwitchWindowPerSqrtStreamed * sqrt(i)
// rows (i: the rows streamed so far). The first keeps narrow skylines on
// BNL, whose window scans then cost less than a presort; the second keeps
// a window that grows slower than sqrt(i) on BNL (the car table's 3-d
// Pareto, where the summed SFS key probes most of the window). Both
// were picked from kernel timings of the planner families: see
// bench/bench_planner.cc.
constexpr double kSwitchWindowPerSqrtRow = 2.5;
constexpr size_t kSwitchWindowPerSqrtStreamed = 6;

}  // namespace

std::string MaximaRun::ToString() const {
  if (switched()) {
    return "switch: bnl→sfs at row " + std::to_string(switch_row) +
           " of " + std::to_string(rows) + ", window " +
           std::to_string(switch_window) + " (final " +
           std::to_string(maxima) + ")";
  }
  if (bound == 0) return "";
  return "no switch (bound " + std::to_string(bound) + ", final window " +
         std::to_string(maxima) + ")";
}

size_t ScoreTable::SwitchBound() const {
  if (!HasSortKeys() || IsScoreChain()) return 0;
  return static_cast<size_t>(std::ceil(
      kSwitchWindowPerSqrtRow * std::sqrt(static_cast<double>(rows_))));
}

double ScoreTable::SortKeyValue(size_t row, size_t key) const {
  double sum = 0.0;
  const double* s = Row(row);
  for (int c : sort_keys_[key]) sum += s[c];
  return sum;
}

size_t ScoreTable::ResolveTileRows(size_t requested) const {
  if (requested != 0) return std::max(requested, simd::kLanes);
  // Auto: size the tile so its local window (column-major scores + ids +
  // payloads) stays L2-resident, using the cache size detected at
  // runtime (exec/hardware.h; falls back to the tuned 256KiB constant),
  // with bounds that keep tiles worthwhile on narrow and wide tables
  // alike.
  const size_t tile_bytes = BnlTileBudgetBytes();
  const size_t row_bytes =
      cols_ * (sizeof(double) + sizeof(uint32_t)) + sizeof(size_t);
  const size_t tile = tile_bytes / std::max<size_t>(1, row_bytes);
  return std::min<size_t>(16384, std::max<size_t>(1024, tile));
}

std::vector<bool> ScoreTable::BnlBatch(const simd::KernelOps& ops,
                                       size_t tile_rows, size_t bound,
                                       MaximaRun* run) const {
  const size_t m = rows_;
  std::vector<bool> maximal(m, false);
  if (IsScoreChain()) {
    // One score column without ids: a row is dominated iff some score
    // beats its own, and no score is NaN. The window is one score level:
    // a candidate below it is dropped, one equal to it (-0.0 == +0.0
    // included) joins it, one above it replaces it.
    std::vector<size_t> level;
    double best = 0.0;
    for (size_t row = 0; row < m; ++row) {
      const double s = Row(row)[0];
      if (level.empty() || s > best) {
        level.clear();
        best = s;
      } else if (s < best) {
        continue;
      }
      level.push_back(row);
    }
    for (size_t row : level) maximal[row] = true;
    run->maxima = level.size();
    return maximal;
  }
  run->bound = bound;
  if (bound == 0) bound = m;  // the window never holds more than m rows
  simd::RowBlock window(cols_);       // global antichain of survivors
  simd::RowBlock tile_window(cols_);  // per-tile local maxima
  std::vector<uint64_t> evict;
  std::vector<uint64_t> merge_evict;
  std::vector<size_t> survivors;
  auto words_for = [](size_t n) { return (n + 63) / 64; };
  // One BNL step of candidate `row` against `win`: true iff it survives
  // (evicting what it dominates). A dominated candidate never dominates a
  // window entry (antichain + transitivity), so the early-out scan is
  // exact.
  auto step = [&](simd::RowBlock& win, size_t row) {
    evict.resize(words_for(win.size()));
    if (ops.scan(prog_, Row(row), Ids(row), win, evict.data())) {
      return false;
    }
    bool any = false;
    for (uint64_t w : evict) any = any || w != 0;
    if (any) win.Evict(evict.data());
    win.Append(Row(row), Ids(row), row);
    return true;
  };
  size_t i = 0;
  while (i < m) {
    if (window.size() > bound &&
        window.size() * window.size() >
            kSwitchWindowPerSqrtStreamed * kSwitchWindowPerSqrtStreamed * i) {
      // Every row streamed so far is in the window or dominated by a
      // member of it (transitivity), so the maxima of the window plus
      // the rows not yet streamed are the table's. A non-finite key
      // keeps the pass on BNL.
      std::vector<size_t> rest;
      rest.reserve(window.size() + m - i);
      for (size_t w = 0; w < window.size(); ++w) {
        rest.push_back(window.payload(w));
      }
      for (size_t row = i; row < m; ++row) rest.push_back(row);
      if (std::optional<std::vector<bool>> flags = SfsRows(ops, rest, run)) {
        for (size_t k = 0; k < rest.size(); ++k) {
          if ((*flags)[k]) maximal[rest[k]] = true;
        }
        run->switch_row = i;
        run->switch_window = window.size();
        return maximal;
      }
      bound = m;
    }
    if (window.size() < tile_rows) {
      // Window still cache-resident: classic streaming BNL.
      step(window, i++);
      continue;
    }
    // The window outgrew the tile budget: reduce the next tile to its
    // local maxima entirely in cache, then antichain-merge the few
    // survivors into the big window — one window pass per survivor
    // instead of one per candidate.
    const size_t t1 = std::min(m, i + tile_rows);
    tile_window.Clear();
    for (; i < t1; ++i) step(tile_window, i);
    // Merge: every tile survivor scans the pre-merge global window once.
    // Order-independent: a global entry that dominates a survivor cannot
    // itself be dominated by another survivor (it would transitively
    // dominate a member of the tile's antichain).
    merge_evict.assign(words_for(window.size()), 0);
    survivors.clear();
    for (size_t w = 0; w < tile_window.size(); ++w) {
      const size_t row = tile_window.payload(w);
      evict.resize(words_for(window.size()));
      if (ops.scan(prog_, Row(row), Ids(row), window, evict.data())) {
        continue;
      }
      for (size_t k = 0; k < evict.size(); ++k) merge_evict[k] |= evict[k];
      survivors.push_back(row);
    }
    bool any = false;
    for (uint64_t w : merge_evict) any = any || w != 0;
    if (any) window.Evict(merge_evict.data());
    for (size_t row : survivors) window.Append(Row(row), Ids(row), row);
  }
  for (size_t w = 0; w < window.size(); ++w) maximal[window.payload(w)] = true;
  run->maxima = window.size();
  return maximal;
}

std::optional<std::vector<bool>> ScoreTable::SfsRows(
    const simd::KernelOps& ops, const std::vector<size_t>& rows,
    MaximaRun* run) const {
  const size_t m = rows.size();
  // Presort descending by key vectors, then a one-sided window scan.
  // Sound only under strict key compatibility (x <P y => keys(x) lex <
  // keys(y)), which finite keys guarantee; a NaN or +/-inf key value
  // (unscorable values, -inf-absorbed Pareto sums that tie although a
  // component is strictly better) voids it.
  const size_t nk = sort_keys_.size();
  std::vector<double> keys(m * nk);
  for (size_t i = 0; i < m; ++i) {
    for (size_t k = 0; k < nk; ++k) {
      const double v = SortKeyValue(rows[i], k);
      if (!std::isfinite(v)) return std::nullopt;
      keys[i * nk + k] = v;
    }
  }
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&keys, nk](uint32_t a, uint32_t b) {
    const double* ka = keys.data() + a * nk;
    const double* kb = keys.data() + b * nk;
    for (size_t k = 0; k < nk; ++k) {
      // Keys were finiteness-checked above.
      if (exec::ScoreNeqNanFree(ka[k], kb[k])) return ka[k] > kb[k];
    }
    return false;
  });
  // One-sided batch window scan: the presort guarantees candidates never
  // evict, so only "is it dominated" is needed.
  std::vector<bool> maximal(m, false);
  simd::RowBlock window(cols_);
  for (uint32_t i : order) {
    if (ops.dominated(prog_, Row(rows[i]), Ids(rows[i]), window)) continue;
    window.Append(Row(rows[i]), Ids(rows[i]), i);
  }
  for (size_t w = 0; w < window.size(); ++w) maximal[window.payload(w)] = true;
  run->finished = BmoAlgorithm::kSortFilter;
  run->maxima = window.size();
  return maximal;
}

std::vector<bool> ScoreTable::Maxima(BmoAlgorithm algo,
                                     const PhysicalPlan& plan,
                                     MaximaRun* run) const {
  const simd::KernelOps& ops = simd::ResolveKernel(plan.simd);
  MaximaRun local;
  if (run == nullptr) run = &local;
  *run = MaximaRun{};
  run->rows = rows_;
  if (algo == BmoAlgorithm::kSortFilter && HasSortKeys()) {
    std::vector<size_t> all(rows_);
    std::iota(all.begin(), all.end(), 0);
    if (std::optional<std::vector<bool>> flags = SfsRows(ops, all, run)) {
      return std::move(*flags);
    }
  }
  return BnlBatch(ops, ResolveTileRows(plan.bnl_tile_rows),
                  algo == BmoAlgorithm::kAuto ? SwitchBound() : 0, run);
}

std::string ScoreTable::KernelVariant(const MaximaRun& run,
                                      const PhysicalPlan& plan) const {
  const std::string impl = simd::ResolveKernel(plan.simd).name;
  if (run.finished == BmoAlgorithm::kSortFilter) return "sfs[" + impl + "]";
  return "bnl[" + impl + ",tile=" +
         std::to_string(ResolveTileRows(plan.bnl_tile_rows)) + "]";
}

}  // namespace prefdb
