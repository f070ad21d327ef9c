#include "ivm/maintained_view.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace prefdb::ivm {

MaintainedView::MaintainedView(PrefPtr preference,
                               std::function<bool(const Tuple&)> where,
                               const Relation& snapshot, uint64_t version,
                               const BmoOptions& options)
    : pref_(std::move(preference)),
      table_schema_(snapshot.schema()),
      proj_schema_(snapshot.schema().Project(pref_->attributes())),
      proj_cols_(snapshot.ResolveColumns(pref_->attributes())),
      where_(std::move(where)),
      less_(pref_->Bind(proj_schema_)),
      compilable_(options.vectorize && ScoreTable::CompilableTerm(pref_)),
      plan_(PhysicalPlan::FromOptions(options)),
      version_(version) {
  Seed(snapshot);
}

void MaintainedView::Seed(const Relation& snapshot) {
  cands_.reserve(snapshot.size());
  // RowAt, not at(): the candidates keep their own rows, so the
  // snapshot's shared row cache would be a second, permanent copy.
  for (size_t i = 0; i < snapshot.size(); ++i) {
    Tuple row = snapshot.RowAt(i);
    if (where_ && !where_(row)) continue;
    Candidate c;
    c.proj = row.Project(proj_cols_);
    c.row = std::move(row);
    c.table_row = i;
    c.witness = kMaximal;
    cands_.push_back(std::move(c));
  }
  Reseed();
}

void MaintainedView::Reseed() {
  std::vector<size_t> all(cands_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  std::optional<ScoreTable> table;
  const std::vector<bool> flags = MaximaOf(all, &table);
  antichain_.clear();
  for (size_t k = 0; k < all.size(); ++k) {
    if (flags[k]) antichain_.push_back(k);
  }
  AssignWitnesses(all, flags, table);
}

std::vector<bool> MaintainedView::MaximaOf(
    const std::vector<size_t>& subset,
    std::optional<ScoreTable>* table_out) const {
  if (subset.empty()) return {};
  if (compilable_) {
    // Table row k is subset position k: the witness probes index it so.
    Relation block(proj_schema_);
    for (size_t i : subset) block.Add(cands_[i].proj);
    auto table = ScoreTable::Compile(pref_, block);
    auto flags = table->Maxima(BmoAlgorithm::kAuto, plan_);
    if (table_out) *table_out = std::move(table);
    return flags;
  }
  std::vector<Tuple> projs;
  projs.reserve(subset.size());
  for (size_t i : subset) projs.push_back(cands_[i].proj);
  return MaximaBnl(projs, less_);
}

void MaintainedView::AssignWitnesses(const std::vector<size_t>& subset,
                                     const std::vector<bool>& flags,
                                     const std::optional<ScoreTable>& table) {
  std::vector<size_t> flagged;  // block positions of the subset's maxima
  for (size_t k = 0; k < subset.size(); ++k) {
    if (flags[k]) flagged.push_back(k);
  }
  for (size_t k = 0; k < subset.size(); ++k) {
    Candidate& c = cands_[subset[k]];
    if (flags[k]) {
      c.witness = kMaximal;
      continue;
    }
    size_t witness = kMaximal;
    if (table) {
      const size_t pos = table->FindDominator(k, flagged);
      if (pos != static_cast<size_t>(-1)) witness = subset[pos];
    } else {
      for (size_t f : flagged) {
        if (less_(c.proj, cands_[subset[f]].proj)) {
          witness = subset[f];
          break;
        }
      }
    }
    c.witness = witness;
  }
}

void MaintainedView::Compact(const std::vector<char>& dead,
                             std::vector<char>* aux) {
  std::vector<size_t> remap(cands_.size(), kMaximal);
  size_t next = 0;
  for (size_t i = 0; i < cands_.size(); ++i) {
    if (dead[i]) continue;
    remap[i] = next;
    if (i != next) {
      cands_[next] = std::move(cands_[i]);
      if (aux) (*aux)[next] = (*aux)[i];
    }
    ++next;
  }
  cands_.resize(next);
  if (aux) aux->resize(next);
  for (Candidate& c : cands_) {
    if (c.witness != kMaximal) c.witness = remap[c.witness];
  }
  for (size_t& m : antichain_) m = remap[m];
}

ViewDelta MaintainedView::ApplyInsert(const Tuple& row, size_t table_row,
                                      uint64_t new_version) {
  ViewDelta d;
  d.version = new_version;
  version_ = new_version;
  ++mstats_.inserts;
  if (where_ && !where_(row)) return d;

  const size_t idx = cands_.size();
  Candidate c;
  c.row = row;
  c.proj = row.Project(proj_cols_);
  c.table_row = table_row;
  c.witness = kMaximal;
  cands_.push_back(std::move(c));

  // Batch-kernel maxima pass over (antichain ∪ {new row}). The new row is
  // maximal in the full candidate set iff it is maximal here: any
  // dominated candidate's dominator chains up to an antichain member.
  std::vector<size_t> block = antichain_;
  block.push_back(idx);
  std::optional<ScoreTable> table;
  const std::vector<bool> flags = MaximaOf(block, &table);
  const size_t new_pos = block.size() - 1;

  if (!flags[new_pos]) {
    // Dominated on arrival: record a witness, result set unchanged.
    size_t witness = kMaximal;
    if (table) {
      std::vector<size_t> positions(antichain_.size());
      std::iota(positions.begin(), positions.end(), size_t{0});
      const size_t pos = table->FindDominator(new_pos, positions);
      if (pos != static_cast<size_t>(-1)) witness = block[pos];
    } else {
      for (size_t m : antichain_) {
        if (less_(cands_[idx].proj, cands_[m].proj)) {
          witness = m;
          break;
        }
      }
    }
    cands_[idx].witness = witness;
    return d;
  }

  std::vector<size_t> next;
  next.reserve(antichain_.size() + 1);
  for (size_t k = 0; k + 1 < block.size(); ++k) {
    const size_t m = block[k];
    if (flags[k]) {
      next.push_back(m);
      continue;
    }
    // Antichain members are mutually incomparable, so only the new row
    // can have defeated m — it is m's witness.
    cands_[m].witness = idx;
    d.exits.push_back(cands_[m].row);
  }
  next.push_back(idx);  // idx is the largest candidate index: stays sorted
  antichain_ = std::move(next);
  d.enters.push_back(cands_[idx].row);
  mstats_.enters += d.enters.size();
  mstats_.exits += d.exits.size();
  return d;
}

ViewDelta MaintainedView::ApplyDelete(
    const std::vector<size_t>& deleted_table_rows, uint64_t new_version) {
  ViewDelta d;
  d.version = new_version;
  version_ = new_version;
  ++mstats_.deletes;
  if (deleted_table_rows.empty() || cands_.empty()) return d;

  // Mark dead candidates and shift survivors' table rows down by the
  // number of deleted rows below them (one merge walk: both sides are
  // sorted ascending).
  std::vector<char> dead(cands_.size(), 0);
  size_t di = 0;
  bool any_dead = false;
  for (size_t i = 0; i < cands_.size(); ++i) {
    const size_t t = cands_[i].table_row;
    while (di < deleted_table_rows.size() && deleted_table_rows[di] < t) ++di;
    if (di < deleted_table_rows.size() && deleted_table_rows[di] == t) {
      dead[i] = 1;
      any_dead = true;
    } else {
      cands_[i].table_row = t - di;
    }
  }
  if (!any_dead) return d;  // deleted rows were not candidates

  std::vector<size_t> surviving_anti;
  surviving_anti.reserve(antichain_.size());
  for (size_t m : antichain_) {
    if (dead[m]) {
      d.exits.push_back(cands_[m].row);
    } else {
      surviving_anti.push_back(m);
    }
  }
  // Orphans: live dominated candidates whose recorded dominator died.
  // Everyone else's witness is still alive and still dominates them.
  std::vector<size_t> orphans;
  for (size_t i = 0; i < cands_.size(); ++i) {
    if (dead[i]) continue;
    const size_t w = cands_[i].witness;
    if (w != kMaximal && dead[w]) orphans.push_back(i);
  }

  size_t live = 0;
  for (char f : dead) live += f ? 0 : 1;
  const double maintain_ns =
      EstimateViewMaintenanceNs(surviving_anti.size(), orphans.size());
  const double reseed_ns =
      EstimateViewReseedNs(live, std::max<size_t>(surviving_anti.size(), 1));

  if (reseed_ns < maintain_ns) {
    // Most witnesses died at once: orphan maintenance would degenerate to
    // a full scan, so run exactly that, once, with fresh bookkeeping.
    ++mstats_.reseeds;
    std::vector<char> was_max(cands_.size(), 0);
    for (size_t m : antichain_) was_max[m] = 1;
    antichain_.clear();
    Compact(dead, &was_max);
    Reseed();
    for (size_t m : antichain_) {
      if (!was_max[m]) d.enters.push_back(cands_[m].row);
    }
  } else {
    // New antichain = maxima of (surviving antichain ∪ orphans): surviving
    // maxima provably stay maximal after a delete, and a previously
    // dominated row can only have risen if its witness died.
    std::vector<size_t> combined;
    std::vector<char> is_orphan;
    combined.reserve(surviving_anti.size() + orphans.size());
    is_orphan.reserve(combined.capacity());
    size_t a = 0, b = 0;  // disjoint sorted merge
    while (a < surviving_anti.size() || b < orphans.size()) {
      if (b == orphans.size() ||
          (a < surviving_anti.size() && surviving_anti[a] < orphans[b])) {
        combined.push_back(surviving_anti[a++]);
        is_orphan.push_back(0);
      } else {
        combined.push_back(orphans[b++]);
        is_orphan.push_back(1);
      }
    }
    std::optional<ScoreTable> table;
    const std::vector<bool> flags = MaximaOf(combined, &table);
    AssignWitnesses(combined, flags, table);
    antichain_.clear();
    for (size_t k = 0; k < combined.size(); ++k) {
      if (!flags[k]) continue;
      antichain_.push_back(combined[k]);
      if (is_orphan[k]) d.enters.push_back(cands_[combined[k]].row);
    }
    Compact(dead, nullptr);
  }
  mstats_.enters += d.enters.size();
  mstats_.exits += d.exits.size();
  return d;
}

ViewDelta MaintainedView::Resync() const {
  ViewDelta d;
  d.version = version_;
  d.resync = true;
  d.enters = MaximaRows();
  return d;
}

std::vector<Tuple> MaintainedView::MaximaRows() const {
  std::vector<Tuple> rows;
  rows.reserve(antichain_.size());
  for (size_t m : antichain_) rows.push_back(cands_[m].row);
  return rows;
}

std::vector<size_t> MaintainedView::MaximaTableRows() const {
  std::vector<size_t> rows;
  rows.reserve(antichain_.size());
  for (size_t m : antichain_) rows.push_back(cands_[m].table_row);
  return rows;
}

}  // namespace prefdb::ivm
