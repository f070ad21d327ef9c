#include "ivm/maintained_view.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <utility>

namespace prefdb::ivm {

MaintainedView::MaintainedView(PrefPtr preference,
                               std::function<bool(const Tuple&)> where,
                               const Relation& snapshot, uint64_t version,
                               const BmoOptions& options)
    : pref_(std::move(preference)),
      proj_cols_(snapshot.ResolveColumns(pref_->attributes())),
      where_(std::move(where)),
      less_(pref_->Bind(snapshot.schema().Project(pref_->attributes()))),
      compilable_(ScoreTable::CompilableTerm(pref_)),
      plan_(PhysicalPlan::FromOptions(options)),
      empty_(snapshot.schema()),
      version_(version) {
  // The candidates share the snapshot's column buffers. The engine runs
  // every mutation while its own thread still holds the seed snapshot,
  // so the view's first write clones the buffers it touches.
  if (where_) {
    std::vector<size_t> all(snapshot.schema().size());
    std::iota(all.begin(), all.end(), size_t{0});
    const std::vector<size_t> survivors = snapshot.SelectWhere(where_, all);
    table_rows_.assign(survivors.begin(), survivors.end());
    rows_ = snapshot.SelectRowIds(table_rows_);
  } else {
    table_rows_.resize(snapshot.size());
    std::iota(table_rows_.begin(), table_rows_.end(), uint32_t{0});
    rows_ = snapshot;
  }
  witness_.assign(table_rows_.size(), kMaximal);
  Reseed();
}

void MaintainedView::Reseed() {
  std::vector<size_t> all(rows_.size());
  std::iota(all.begin(), all.end(), size_t{0});
  const Pass pass = RunPass(all);
  antichain_.clear();
  for (size_t k = 0; k < all.size(); ++k) {
    if (pass.flags[k]) antichain_.push_back(static_cast<uint32_t>(k));
  }
  AssignWitnesses(all, pass);
}

MaintainedView::Pass MaintainedView::RunPass(
    const std::vector<size_t>& subset) const {
  Pass pass;
  if (subset.empty()) return pass;
  if (compilable_) {
    // Subsets are ascending and duplicate-free, so one as large as the
    // candidate set is all of it: compile without a pool.
    const bool all = subset.size() == rows_.size();
    pass.table = ScoreTable::Compile(pref_, rows_, all ? nullptr : &subset);
    pass.flags = pass.table->Maxima(BmoAlgorithm::kAuto, plan_);
    return pass;
  }
  pass.projs.reserve(subset.size());
  for (size_t i : subset) {
    std::vector<Value> values;
    values.reserve(proj_cols_.size());
    for (size_t c : proj_cols_) values.push_back(rows_.ValueAt(i, c));
    pass.projs.emplace_back(std::move(values));
  }
  pass.flags = MaximaBnl(pass.projs, less_);
  return pass;
}

size_t MaintainedView::Dominator(const Pass& pass, size_t k,
                                 const std::vector<size_t>& positions) const {
  if (pass.table) return pass.table->FindDominator(k, positions);
  for (size_t pos : positions) {
    if (less_(pass.projs[k], pass.projs[pos])) return pos;
  }
  return static_cast<size_t>(-1);
}

void MaintainedView::AssignWitnesses(const std::vector<size_t>& subset,
                                     const Pass& pass) {
  std::vector<size_t> flagged;  // subset positions of the subset's maxima
  for (size_t k = 0; k < subset.size(); ++k) {
    if (pass.flags[k]) flagged.push_back(k);
  }
  for (size_t k = 0; k < subset.size(); ++k) {
    uint32_t witness = kMaximal;
    if (!pass.flags[k]) {
      const size_t pos = Dominator(pass, k, flagged);
      if (pos != static_cast<size_t>(-1)) {
        witness = static_cast<uint32_t>(subset[pos]);
      }
    }
    witness_[subset[k]] = witness;
  }
}

void MaintainedView::Compact(const std::vector<char>& dead,
                             std::vector<char>* was_max) {
  std::vector<uint32_t> remap(witness_.size(), kMaximal);
  uint32_t next = 0;
  for (size_t i = 0; i < witness_.size(); ++i) {
    if (dead[i]) continue;
    remap[i] = next;
    if (i != next) {
      table_rows_[next] = table_rows_[i];
      witness_[next] = witness_[i];
      (*was_max)[next] = (*was_max)[i];
    }
    ++next;
  }
  table_rows_.resize(next);
  witness_.resize(next);
  was_max->resize(next);
  for (uint32_t& w : witness_) {
    if (w != kMaximal) w = remap[w];
  }
  for (uint32_t& m : antichain_) m = remap[m];
  rows_.EraseRows(dead);
}

ViewDelta MaintainedView::NoChange(uint64_t version) const {
  ViewDelta d;
  d.version = version;
  d.enters = empty_;
  d.exits = empty_;
  return d;
}

Relation MaintainedView::Gather(std::vector<uint32_t> candidates) const {
  if (candidates.empty()) return empty_;
  return Relation(rows_.schema(),
                  ColumnStore::Gather(rows_.store(), std::move(candidates)));
}

ViewDelta MaintainedView::ApplyInsert(const Tuple& row, size_t table_row,
                                      uint64_t new_version) {
  ViewDelta d = NoChange(new_version);
  version_ = new_version;
  ++mstats_.inserts;
  if (where_ && !where_(row)) return d;

  const size_t idx = rows_.size();
  rows_.Add(row);
  table_rows_.push_back(static_cast<uint32_t>(table_row));
  witness_.push_back(kMaximal);

  // Batch-kernel maxima pass over (antichain ∪ {new row}). The new row is
  // maximal in the full candidate set iff it is maximal here: any
  // dominated candidate's dominator chains up to an antichain member.
  std::vector<size_t> block(antichain_.begin(), antichain_.end());
  block.push_back(idx);
  const Pass pass = RunPass(block);
  const size_t new_pos = block.size() - 1;

  if (!pass.flags[new_pos]) {
    // Dominated on arrival: record a witness, result set unchanged.
    std::vector<size_t> positions(antichain_.size());
    std::iota(positions.begin(), positions.end(), size_t{0});
    const size_t pos = Dominator(pass, new_pos, positions);
    if (pos != static_cast<size_t>(-1)) {
      witness_[idx] = static_cast<uint32_t>(block[pos]);
    }
    return d;
  }

  std::vector<uint32_t> next;
  next.reserve(antichain_.size() + 1);
  std::vector<uint32_t> exits;
  for (size_t k = 0; k < new_pos; ++k) {
    const uint32_t m = antichain_[k];
    if (pass.flags[k]) {
      next.push_back(m);
      continue;
    }
    // Antichain members are mutually incomparable, so only the new row
    // can have defeated m — it is m's witness.
    witness_[m] = static_cast<uint32_t>(idx);
    exits.push_back(m);
  }
  // idx is the largest candidate index: the antichain stays sorted.
  next.push_back(static_cast<uint32_t>(idx));
  antichain_ = std::move(next);
  d.enters = Gather({static_cast<uint32_t>(idx)});
  d.exits = Gather(std::move(exits));
  mstats_.enters += d.enters.size();
  mstats_.exits += d.exits.size();
  return d;
}

ViewDelta MaintainedView::ApplyDelete(
    const std::vector<size_t>& deleted_table_rows, uint64_t new_version) {
  ViewDelta d = NoChange(new_version);
  version_ = new_version;
  ++mstats_.deletes;
  if (deleted_table_rows.empty() || table_rows_.empty()) return d;

  // Mark dead candidates and shift survivors' table rows down by the
  // number of deleted rows below them (one merge walk: both sides are
  // sorted ascending).
  std::vector<char> dead(table_rows_.size(), 0);
  size_t di = 0;
  bool any_dead = false;
  for (size_t i = 0; i < table_rows_.size(); ++i) {
    const size_t t = table_rows_[i];
    while (di < deleted_table_rows.size() && deleted_table_rows[di] < t) ++di;
    if (di < deleted_table_rows.size() && deleted_table_rows[di] == t) {
      dead[i] = 1;
      any_dead = true;
    } else {
      table_rows_[i] = static_cast<uint32_t>(t - di);
    }
  }
  if (!any_dead) return d;  // deleted rows were not candidates

  std::vector<char> was_max(witness_.size(), 0);
  std::vector<uint32_t> surviving_anti;
  std::vector<uint32_t> exits;
  surviving_anti.reserve(antichain_.size());
  for (uint32_t m : antichain_) {
    was_max[m] = 1;
    (dead[m] ? exits : surviving_anti).push_back(m);
  }
  d.exits = Gather(std::move(exits));  // before Compact erases them
  // Orphans: live dominated candidates whose recorded dominator died.
  // Everyone else's witness is still alive and still dominates them.
  std::vector<uint32_t> orphans;
  for (size_t i = 0; i < witness_.size(); ++i) {
    if (dead[i]) continue;
    const uint32_t w = witness_[i];
    if (w != kMaximal && dead[w]) orphans.push_back(static_cast<uint32_t>(i));
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
    antichain_.clear();
    Compact(dead, &was_max);
    Reseed();
  } else {
    // New antichain = maxima of (surviving antichain ∪ orphans): surviving
    // maxima provably stay maximal after a delete, and a previously
    // dominated row can only have risen if its witness died.
    std::vector<size_t> combined;
    combined.reserve(surviving_anti.size() + orphans.size());
    std::merge(surviving_anti.begin(), surviving_anti.end(), orphans.begin(),
               orphans.end(), std::back_inserter(combined));
    const Pass pass = RunPass(combined);
    AssignWitnesses(combined, pass);
    antichain_.clear();
    for (size_t k = 0; k < combined.size(); ++k) {
      if (pass.flags[k]) {
        antichain_.push_back(static_cast<uint32_t>(combined[k]));
      }
    }
    Compact(dead, &was_max);
  }
  // Entering rows are the new maxima that were not maximal before: the
  // orphans that rose, or what the reseed found.
  std::vector<uint32_t> enters;
  for (uint32_t m : antichain_) {
    if (!was_max[m]) enters.push_back(m);
  }
  d.enters = Gather(std::move(enters));
  mstats_.enters += d.enters.size();
  mstats_.exits += d.exits.size();
  return d;
}

ViewDelta MaintainedView::Resync() const {
  ViewDelta d = NoChange(version_);
  d.resync = true;
  d.enters = Gather(antichain_);
  return d;
}

std::vector<size_t> MaintainedView::MaximaTableRows() const {
  std::vector<size_t> rows;
  rows.reserve(antichain_.size());
  for (uint32_t m : antichain_) rows.push_back(table_rows_[m]);
  return rows;
}

size_t MaintainedView::HeapBytes() const {
  return rows_.store().OwnedHeapBytes() +
         (table_rows_.capacity() + witness_.capacity() +
          antichain_.capacity()) *
             sizeof(uint32_t);
}

}  // namespace prefdb::ivm
