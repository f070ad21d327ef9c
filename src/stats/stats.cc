#include "stats/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "exec/score_table.h"

namespace prefdb {

namespace {

using stats_internal::DistinctValues;
using stats_internal::KeySet;

/// Distinct tracking saturates at this many values per column, bounding
/// both derivation paths' memory independent of table size.
constexpr size_t kDistinctCap = 1 << 16;

/// The one per-cell rule of every derivation path (TableStats::Derive,
/// the columnar TableStatsBuilder scan, AddRow). Beyond the saturation
/// cap the count freezes and the flag is set (the real count is "at
/// least the cap"); estimation then treats the column as pool-scale
/// cardinality.
class CellCounter {
 public:
  CellCounter(ColumnStats* stats, DistinctValues* seen)
      : stats_(*stats), seen_(*seen) {}

  void Null() {
    ++stats_.null_count;
    if (!Room() || seen_.has_null) return;
    seen_.has_null = true;
    ++stats_.distinct;
  }

  void Number(double x) {
    if (std::isnan(x)) {
      // NaN != NaN under Value equality: one logical class, counted
      // once, never inserted (a NaN-heavy column would otherwise fill
      // the set with one entry per row).
      if (stats_.nan_count == 0) ++stats_.distinct;
      ++stats_.nan_count;
      return;
    }
    if (x == 0.0) x = 0.0;  // -0.0 == 0.0 under Value equality
    uint64_t key;
    std::memcpy(&key, &x, sizeof(key));
    if (Room() && seen_.numbers.Insert(key)) ++stats_.distinct;
  }

  /// Returns whether `s` is in the distinct set afterwards. `known`: an
  /// earlier call returned true for this string (a repeated dictionary
  /// code), so only the counters move, without hashing it again.
  bool String(const std::string& s, bool known = false) {
    ++stats_.non_numeric_count;
    if (!Room()) return known;
    if (!known && seen_.strings.insert(s).second) ++stats_.distinct;
    return true;
  }

 private:
  bool Room() {
    if (seen_.size() < kDistinctCap) return true;
    stats_.distinct_saturated = true;
    return false;
  }

  ColumnStats& stats_;
  DistinctValues& seen_;
};

/// Feeds column `col` of `r` through one CellCounter, reading the column
/// buffers: tags for NULL, the widened doubles for numerics, and each
/// distinct dictionary string once (repeated codes skip the hash).
void ScanColumn(const Relation& r, size_t col, ColumnStats* stats,
                DistinctValues* seen) {
  const ColumnStore& store = r.store();
  const Column& column = store.column(col);
  CellCounter counter(stats, seen);
  std::vector<char> code_seen;
  for (size_t i = 0; i < store.rows(); ++i) {
    const size_t row = store.PhysicalRow(i);
    switch (column.TagAt(row)) {
      case ValueType::kNull:
        counter.Null();
        break;
      case ValueType::kInt:
      case ValueType::kDouble:
        counter.Number(column.nums[row]);
        break;
      case ValueType::kString: {
        const uint32_t code = column.codes[row];
        if (code >= code_seen.size()) code_seen.resize(column.dict->size(), 0);
        if (counter.String(column.dict->At(code), code_seen[code] != 0)) {
          code_seen[code] = 1;
        }
        break;
      }
    }
  }
}

/// Leaves of a compilable accumulation in score-table column order
/// (DUAL wrappers stripped; Pareto/prioritized left-to-right, matching
/// the descriptor build of ScoreTable::Compile, the one score-table
/// compiler, in exec/score_table.cc).
void CollectLeaves(const PrefPtr& p, std::vector<PrefPtr>* out) {
  PrefPtr cur = p;
  while (cur->kind() == PreferenceKind::kDual) cur = cur->children()[0];
  if (cur->kind() == PreferenceKind::kPareto ||
      cur->kind() == PreferenceKind::kPrioritized) {
    for (const PrefPtr& child : cur->children()) CollectLeaves(child, out);
    return;
  }
  out->push_back(cur);
}

/// Estimated number of distinct *score classes* a leaf induces on a
/// column with `distinct` distinct values: injective leaves resolve every
/// value, level-based leaves collapse values into a handful of layers.
size_t LeafClasses(const PrefPtr& leaf, size_t distinct, bool all_numeric) {
  switch (leaf->kind()) {
    case PreferenceKind::kLowest:
    case PreferenceKind::kHighest:
      // Strictly monotone score: injective on numeric columns; NULLs and
      // strings collapse into the shared -inf class.
      return all_numeric ? distinct : std::max<size_t>(1, distinct / 2);
    case PreferenceKind::kAround:
    case PreferenceKind::kBetween:
    case PreferenceKind::kScore:
      // Distance-style scores tie symmetric values (|x-z| collapses two
      // values per class in the worst case).
      return std::max<size_t>(1, distinct / 2);
    case PreferenceKind::kPos:
    case PreferenceKind::kNeg:
      return std::min<size_t>(distinct, 2);
    case PreferenceKind::kPosNeg:
    case PreferenceKind::kPosPos:
      return std::min<size_t>(distinct, 3);
    case PreferenceKind::kLayered:
    case PreferenceKind::kExplicit:
      return std::min<size_t>(distinct, 4);
    case PreferenceKind::kAntiChain:
      // Pure equality: no value dominates another.
      return 1;
    default:
      return std::max<size_t>(1, distinct);
  }
}

size_t LeafInputDistinct(const TableStats& stats, const PrefPtr& leaf,
                         size_t pool_rows) {
  size_t distinct = pool_rows;
  for (const std::string& attr : leaf->attributes()) {
    const ColumnStats* c = stats.Column(attr);
    // A saturated counter only proves "at least the cap": assume
    // pool-scale cardinality rather than a 15x-low frozen count.
    if (c != nullptr && !c->distinct_saturated) {
      distinct = std::min(distinct, std::max<size_t>(1, c->distinct));
    }
  }
  return std::min(distinct, std::max<size_t>(1, pool_rows));
}

bool LeafAllNumeric(const TableStats& stats, const PrefPtr& leaf) {
  for (const std::string& attr : leaf->attributes()) {
    const ColumnStats* c = stats.Column(attr);
    if (!c || !c->AllNumeric(stats.rows)) return false;
  }
  return true;
}

/// Leaves of a subtree whose score classes exceed 1 act as independent
/// skyline dimensions; constant columns cannot discriminate. Pure
/// equality leaves (anti-chains) are not dimensions either — they
/// *partition* the block: Pareto dominance requires equality on them,
/// so every distinct combination is its own incomparable group.
/// `group_product` multiplies in those group counts.
size_t EffectiveDims(const TableStats& stats, const PrefPtr& p,
                     size_t pool_rows, double* group_product) {
  std::vector<PrefPtr> leaves;
  CollectLeaves(p, &leaves);
  size_t dims = 0;
  for (const PrefPtr& leaf : leaves) {
    if (leaf->kind() == PreferenceKind::kAntiChain) {
      if (group_product != nullptr) {
        *group_product *= static_cast<double>(
            std::max<size_t>(1, LeafInputDistinct(stats, leaf, pool_rows)));
      }
      continue;
    }
    size_t classes = LeafClasses(leaf, LeafInputDistinct(stats, leaf, pool_rows),
                                 LeafAllNumeric(stats, leaf));
    if (classes > 1) ++dims;
  }
  return dims;
}

/// Expected fraction of m distinct values that are maximal under the
/// subtree. Pareto subtrees use the independence closed form over their
/// effective dimensions; prioritized subtrees multiply the head's
/// surviving fraction into a tail evaluated on the shrunken pool (the
/// Prop 11 view: the tail only discriminates within the head's best
/// block); leaves keep their top score class.
double MaximaFraction(const TableStats& stats, const PrefPtr& p0, size_t m,
                      size_t pool_rows) {
  if (m == 0) return 0.0;
  PrefPtr p = p0;
  while (p->kind() == PreferenceKind::kDual) p = p->children()[0];
  switch (p->kind()) {
    case PreferenceKind::kPareto: {
      // Anti-chain columns split the block into `groups` incomparable
      // partitions (equality on them is required for dominance); each
      // partition keeps its own skyline over the ordering dimensions.
      double groups = 1.0;
      size_t dims = EffectiveDims(stats, p, pool_rows, &groups);
      groups = std::min(groups, static_cast<double>(m));
      const size_t m_group = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(m) / groups));
      const double w =
          std::min(static_cast<double>(m),
                   groups * WindowClosedForm(m_group, std::max<size_t>(1, dims)));
      return w / static_cast<double>(m);
    }
    case PreferenceKind::kPrioritized: {
      auto kids = p->children();
      PrefPtr head = kids[0];
      while (head->kind() == PreferenceKind::kDual) head = head->children()[0];
      if (head->kind() != PreferenceKind::kPareto &&
          head->kind() != PreferenceKind::kPrioritized) {
        // Leaf head: its values split into `classes` layers; only the top
        // layer survives, and the ~distinct/classes distinct head values
        // within it are mutually incomparable groups (Def. 9 equality is
        // value equality) — the tail only discriminates inside a group.
        // Injective heads collapse to one group (the classic selective
        // chain head); an anti-chain head makes every distinct value its
        // own group (the Def. 16 grouping device).
        size_t distinct = LeafInputDistinct(stats, head, pool_rows);
        size_t classes = LeafClasses(head, distinct, LeafAllNumeric(stats, head));
        double groups = std::max(
            1.0, static_cast<double>(distinct) / static_cast<double>(classes));
        double m_top =
            std::max(1.0, static_cast<double>(m) / static_cast<double>(classes));
        size_t m_group =
            std::max<size_t>(1, static_cast<size_t>(m_top / groups));
        double w = groups * static_cast<double>(m_group) *
                   MaximaFraction(stats, kids[1], m_group, pool_rows);
        return std::min(1.0, w / static_cast<double>(m));
      }
      // Complex head: multiplicative fallback on the head's own maxima.
      double head_frac = MaximaFraction(stats, kids[0], m, pool_rows);
      size_t sub = std::max<size_t>(
          1, static_cast<size_t>(static_cast<double>(m) * head_frac));
      return head_frac * MaximaFraction(stats, kids[1], sub, pool_rows);
    }
    default: {
      size_t classes = LeafClasses(p, LeafInputDistinct(stats, p, pool_rows),
                                   LeafAllNumeric(stats, p));
      return 1.0 / static_cast<double>(std::max<size_t>(1, classes));
    }
  }
}

}  // namespace

double WindowClosedForm(size_t m, size_t eff_dims) {
  if (m <= 1) return static_cast<double>(m);
  if (eff_dims <= 1) return 1.0;
  const double ln_m = std::log(static_cast<double>(m));
  double w = 1.0;
  // (ln m)^(d-1) / (d-1)!, accumulated factor-by-factor so large d cannot
  // overflow before the clamp.
  for (size_t k = 1; k < eff_dims; ++k) {
    w *= ln_m / static_cast<double>(k);
    if (w >= static_cast<double>(m)) return static_cast<double>(m);
  }
  return std::max(1.0, std::min(w, static_cast<double>(m)));
}

// ---------------------------------------------------------------------------
// TableStats

const ColumnStats* TableStats::Column(const std::string& name) const {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return &columns[i];
  }
  return nullptr;
}

TableStats TableStats::Derive(const Relation& r,
                              const std::vector<std::string>& attrs) {
  if (attrs.empty()) return TableStatsBuilder(r).Snapshot();
  // Restricted derivation: scan only the named columns.
  TableStats out;
  out.rows = r.size();
  out.names = attrs;
  out.columns.resize(attrs.size());
  const std::vector<size_t> cols = r.ResolveColumns(attrs);
  for (size_t i = 0; i < cols.size(); ++i) {
    DistinctValues seen;
    ScanColumn(r, cols[i], &out.columns[i], &seen);
  }
  return out;
}

TableStatsBuilder::TableStatsBuilder(const Schema& schema) {
  stats_.names.reserve(schema.size());
  for (const Attribute& a : schema.attributes()) stats_.names.push_back(a.name);
  stats_.columns.resize(schema.size());
  distinct_.resize(schema.size());
}

TableStatsBuilder::TableStatsBuilder(const Relation& r)
    : TableStatsBuilder(r.schema()) {
  stats_.rows = r.size();
  for (size_t c = 0; c < stats_.columns.size(); ++c) {
    ScanColumn(r, c, &stats_.columns[c], &distinct_[c]);
  }
}

void TableStatsBuilder::AddRow(const Tuple& row) {
  ++stats_.rows;
  for (size_t i = 0; i < stats_.columns.size() && i < row.size(); ++i) {
    const Value& v = row[i];
    CellCounter counter(&stats_.columns[i], &distinct_[i]);
    if (v.is_null()) {
      counter.Null();
    } else if (v.is_string()) {
      counter.String(v.as_string());
    } else {
      counter.Number(*v.numeric());
    }
  }
}

TableStats TableStatsBuilder::Snapshot() const { return stats_; }

namespace stats_internal {

bool KeySet::Insert(uint64_t key) {
  if ((size_ + 1) * 2 > slots_.size()) {
    // Grow (or allocate) to keep the load factor at most 1/2.
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, old.size() * 2), kEmpty);
    size_ = 0;
    for (uint64_t k : old) {
      if (k != kEmpty) Insert(k);
    }
  }
  const size_t mask = slots_.size() - 1;
  // splitmix64 finalizer: spreads the low-entropy bit patterns of small
  // integral doubles across the table.
  uint64_t h = key;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    if (slots_[i] == key) return false;
    if (slots_[i] == kEmpty) {
      slots_[i] = key;
      ++size_;
      return true;
    }
  }
}

}  // namespace stats_internal

// ---------------------------------------------------------------------------
// TermStats

std::string TermStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%zu m=%zu d=%zu keys=%zu window~%.0f%s%s", input_rows,
                distinct_values, dims, table_keys, est_window,
                measured_window ? " (sampled)" : "",
                score_chain ? " score-chain" : "");
  return buf;
}

TermStats EstimateTermStats(const TableStats& stats, const PrefPtr& p,
                            size_t pool_rows) {
  TermStats out;
  out.input_rows = pool_rows;
  out.compilable = ScoreTable::CompilableTerm(p);

  std::vector<PrefPtr> leaves;
  CollectLeaves(p, &leaves);
  out.dims = std::max<size_t>(1, out.compilable ? leaves.size()
                                                : p->attributes().size());

  // Distinct projections: capped product of per-leaf distinct counts.
  double product = 1.0;
  for (const PrefPtr& leaf : leaves) {
    size_t distinct = LeafInputDistinct(stats, leaf, pool_rows);
    product = std::min(product * static_cast<double>(std::max<size_t>(
                                     1, distinct)),
                       static_cast<double>(pool_rows) + 1.0);
  }
  out.distinct_values = std::max<size_t>(
      pool_rows == 0 ? 0 : 1,
      std::min<size_t>(pool_rows, static_cast<size_t>(product)));
  out.score_chain = out.compilable && leaves.size() == 1 &&
                    (leaves[0]->kind() == PreferenceKind::kLowest ||
                     leaves[0]->kind() == PreferenceKind::kHighest) &&
                    LeafAllNumeric(stats, leaves[0]);
  out.table_keys =
      out.compilable && ScoreTable::HasStaticSortKeys(p) ? 1 : 0;
  out.est_window = std::max(
      1.0, static_cast<double>(out.distinct_values) *
               MaximaFraction(stats, p, out.distinct_values, pool_rows));
  return out;
}

TermStats MeasureTermStats(const ScoreTable& table, const PrefPtr& p,
                           size_t input_rows) {
  TermStats out;
  out.input_rows = input_rows;
  out.distinct_values = table.rows();
  out.dims = std::max<size_t>(1, table.cols());
  out.table_keys = table.num_sort_keys();
  out.compilable = true;
  out.score_chain = table.IsScoreChain();
  const std::vector<uint32_t>& distinct = table.column_distinct();

  const size_t m = table.rows();
  if (m < 4096) {
    // Small blocks finish in microseconds under any kernel; the closed
    // form is plenty and the probe (two sampled scans) would cost a
    // significant fraction of just running the query. Anti-chain leaves
    // are group multipliers, not skyline dimensions (dominance requires
    // equality on them); leaves align with columns in compile order.
    std::vector<PrefPtr> leaves;
    CollectLeaves(p, &leaves);
    size_t eff = 0;
    double groups = 1.0;
    for (size_t c = 0; c < distinct.size(); ++c) {
      const bool antichain = c < leaves.size() &&
                             leaves[c]->kind() == PreferenceKind::kAntiChain;
      const size_t classes = distinct[c] == 0 ? m : distinct[c];
      if (antichain) {
        groups *= static_cast<double>(std::max<size_t>(1, classes));
      } else if (classes > 1) {
        ++eff;
      }
    }
    groups = std::min(groups, static_cast<double>(std::max<size_t>(1, m)));
    const size_t m_group = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(m) / groups));
    out.est_window =
        std::min(static_cast<double>(m),
                 groups * WindowClosedForm(m_group, std::max<size_t>(1, eff)));
    return out;
  }

  // Two-point window probe: maxima of two nested samples fit the
  // Pareto-front growth exponent alpha in w(m) ~ m^alpha, which captures
  // the data's correlation regime (anti-correlated fronts grow near
  // linearly, independent ones polylogarithmically) — the feedback loop
  // ROADMAP calls "feeding measured window sizes back into
  // ChooseAlgorithm". Samples are *strided* across the whole block, not
  // prefixes: physically sorted input (a CSV ordered by one attribute)
  // would make a prefix a biased subset of the value distribution and
  // pin a mispredicted plan into the exec cache.
  const size_t s2 = std::min<size_t>(m, 1024);
  const size_t s1 = s2 / 2;
  auto count = [&table, m](size_t sample) {
    std::vector<size_t> rows;
    rows.reserve(sample);
    const double step = static_cast<double>(m) / static_cast<double>(sample);
    for (size_t i = 0; i < sample; ++i) {
      rows.push_back(
          std::min(m - 1, static_cast<size_t>(static_cast<double>(i) * step)));
    }
    std::vector<bool> maximal =
        table.MaximaSubset(BmoAlgorithm::kBlockNestedLoop, rows);
    return static_cast<double>(
        std::count(maximal.begin(), maximal.end(), true));
  };
  const double w1 = std::max(1.0, count(s1));
  const double w2 = std::max(1.0, count(s2));
  double alpha = std::log2(std::max(1.0, w2 / w1));
  alpha = std::max(0.0, std::min(1.0, alpha));
  out.est_window = std::min(
      static_cast<double>(m),
      w2 * std::pow(static_cast<double>(m) / static_cast<double>(s2), alpha));
  out.measured_window = true;
  return out;
}

}  // namespace prefdb
