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
/// the derivation's memory independent of table size.
constexpr size_t kDistinctCap = 1 << 16;

/// The per-cell rule of TableStats::Derive. Beyond the saturation cap
/// the count freezes and the flag is set (the real count is "at least
/// the cap").
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
  bool String(const std::string& s, bool known) {
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

TableStats TableStats::Derive(const Relation& r) {
  TableStats out;
  out.rows = r.size();
  out.columns.resize(r.schema().size());
  for (size_t c = 0; c < r.schema().size(); ++c) {
    out.names.push_back(r.schema().at(c).name);
    DistinctValues seen;
    ScanColumn(r, c, &out.columns[c], &seen);
  }
  return out;
}

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
  // linearly, independent ones polylogarithmically) — the signal that
  // separates BNL from SFS. Samples are *strided* across the whole block,
  // not prefixes: physically sorted input (a CSV ordered by one attribute)
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
