#include "eval/bmo.h"

#include <algorithm>
#include <string>

#include "core/numeric_preferences.h"
#include "eval/bmo_internal.h"
#include "exec/score_table.h"

namespace prefdb {

const char* BmoAlgorithmName(BmoAlgorithm algo) {
  switch (algo) {
    case BmoAlgorithm::kAuto: return "auto";
    case BmoAlgorithm::kNaive: return "naive";
    case BmoAlgorithm::kBlockNestedLoop: return "bnl";
    case BmoAlgorithm::kSortFilter: return "sfs";
  }
  return "?";
}

const char* SimdModeName(SimdMode mode) {
  switch (mode) {
    case SimdMode::kAuto: return "auto";
    case SimdMode::kScalar: return "scalar";
    case SimdMode::kAvx2: return "avx2";
  }
  return "?";
}

ProjectionIndex BuildProjectionIndex(const Relation& r, const Preference& p,
                                     const std::vector<size_t>* rows) {
  ProjectionIndex out;
  std::vector<size_t> cols = r.ResolveColumns(p.attributes());
  out.proj_schema = r.schema().Project(p.attributes());
  // Columnar dedup: per-column equality coding over the store's flat
  // buffers instead of per-row Tuple::Project + hashing. Codes come out
  // in first-occurrence order, matching the old hash-map assignment.
  GroupCoding coding = ComputeGroupCoding(r, cols, rows);
  out.row_to_value = std::move(coding.codes);
  out.values.reserve(coding.num_groups);
  for (uint32_t rep : coding.group_rows) {
    const size_t row = rows ? (*rows)[rep] : rep;
    std::vector<Value> vals;
    vals.reserve(cols.size());
    for (size_t c : cols) vals.push_back(r.ValueAt(row, c));
    out.values.emplace_back(std::move(vals));
  }
  return out;
}

std::vector<bool> MaximaNaive(const std::vector<Tuple>& values,
                              const LessFn& less) {
  const size_t m = values.size();
  std::vector<bool> maximal(m, true);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < m; ++j) {
      if (i != j && less(values[i], values[j])) {
        maximal[i] = false;
        break;
      }
    }
  }
  return maximal;
}

std::vector<bool> MaximaBnl(const std::vector<Tuple>& values,
                            const LessFn& less) {
  const size_t m = values.size();
  std::vector<bool> maximal(m, false);
  std::vector<size_t> window;
  for (size_t i = 0; i < m; ++i) {
    bool dominated = false;
    size_t keep = 0;
    for (size_t w = 0; w < window.size(); ++w) {
      size_t cand = window[w];
      if (!dominated && less(values[i], values[cand])) {
        dominated = true;
        // The rest of the window cannot be dominated by i (asymmetry +
        // transitivity would contradict their mutual incomparability), so
        // keep everything from here on.
        for (; w < window.size(); ++w) window[keep++] = window[w];
        break;
      }
      if (less(values[cand], values[i])) continue;  // evict cand
      window[keep++] = cand;
    }
    window.resize(keep);
    if (!dominated) window.push_back(i);
  }
  for (size_t idx : window) maximal[idx] = true;
  return maximal;
}

namespace internal {

std::string CompiledBlock::KernelVariant(const MaximaRun& run) const {
  if (!table) return "closure";
  return table->KernelVariant(run, plan);
}

CompiledBlock CompileBlock(const Relation& r, const PrefPtr& p,
                           const std::vector<size_t>* rows,
                           const BmoOptions& options) {
  CompiledBlock block;
  const size_t pool_size = rows ? rows->size() : r.size();
  if (options.algorithm != BmoAlgorithm::kNaive && pool_size > 0 &&
      ScoreTable::CompilableTerm(p)) {
    const std::vector<size_t> cols = r.ResolveColumns(p->attributes());
    if (LikelyMostlyDistinct(r, cols, rows)) {
      block.table = ScoreTable::Compile(p, r, rows);
    } else {
      // Heavy duplication: compile one representative row per value
      // combination; the row map ties candidates to their class.
      GroupCoding coding = ComputeGroupCoding(r, cols, rows);
      std::vector<size_t> reps(coding.group_rows.begin(),
                               coding.group_rows.end());
      if (rows) {
        for (size_t& rep : reps) rep = (*rows)[rep];
      }
      block.table = ScoreTable::Compile(p, r, &reps);
      block.proj.row_to_value = std::move(coding.codes);
    }
  } else {
    block.proj = BuildProjectionIndex(r, *p, rows);
  }
  block.plan = PhysicalPlan::FromOptions(options);
  if (options.algorithm != BmoAlgorithm::kAuto) {
    block.plan.rationale = "algorithm explicitly requested";
  } else if (!block.table) {
    block.plan.algorithm = BmoAlgorithm::kBlockNestedLoop;
    block.plan.rationale = "no compiled table: closure BNL window";
  } else if (const size_t bound = block.table->SwitchBound(); bound > 0) {
    block.plan.rationale = "BNL window, finished by an SFS presort once it "
                           "holds more than " +
                           std::to_string(bound) +
                           " rows and 6·√i after i rows";
  } else {
    block.plan.algorithm = BmoAlgorithm::kBlockNestedLoop;
    block.plan.rationale = block.table->IsScoreChain()
                               ? "score chain: one-level BNL window, one pass"
                               : "no sort keys: BNL window";
  }
  return block;
}

MaximaRun AppendMaximalRows(const PrefPtr& p, const CompiledBlock& block,
                            const std::vector<size_t>* rows,
                            std::vector<size_t>* out) {
  MaximaRun run;
  std::vector<bool> maximal;
  if (block.table) {
    maximal = block.table->Maxima(block.plan.algorithm, block.plan, &run);
  } else {
    const LessFn less = p->Bind(block.proj.proj_schema);
    run.finished = block.plan.algorithm == BmoAlgorithm::kNaive
                       ? BmoAlgorithm::kNaive
                       : BmoAlgorithm::kBlockNestedLoop;
    maximal = run.finished == BmoAlgorithm::kNaive
                  ? MaximaNaive(block.proj.values, less)
                  : MaximaBnl(block.proj.values, less);
  }
  const size_t pool_size =
      block.identity() ? maximal.size() : block.proj.row_to_value.size();
  for (size_t i = 0; i < pool_size; ++i) {
    if (maximal[block.identity() ? i : block.proj.row_to_value[i]]) {
      out->push_back(rows ? (*rows)[i] : i);
    }
  }
  return run;
}

}  // namespace internal

std::vector<size_t> BmoIndices(const Relation& r, const PrefPtr& p,
                               const BmoOptions& options) {
  if (r.empty()) return {};
  std::vector<size_t> rows;
  internal::AppendMaximalRows(p, internal::CompileBlock(r, p, nullptr, options),
                              nullptr, &rows);
  return rows;
}

Relation Bmo(const Relation& r, const PrefPtr& p, const BmoOptions& options) {
  return r.SelectRows(BmoIndices(r, p, options));
}

std::vector<size_t> BmoGroupByIndices(
    const Relation& r, const PrefPtr& p,
    const std::vector<std::string>& group_attrs, const BmoOptions& options) {
  if (r.empty()) return {};
  const std::vector<std::vector<size_t>> groups =
      GroupRowsBy(r, r.ResolveColumns(group_attrs));
  std::vector<size_t> out;
  for (const std::vector<size_t>& rows : groups) {
    internal::AppendMaximalRows(p, internal::CompileBlock(r, p, &rows, options),
                                &rows, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Relation BmoGroupBy(const Relation& r, const PrefPtr& p,
                    const std::vector<std::string>& group_attrs,
                    const BmoOptions& options) {
  return r.SelectRows(BmoGroupByIndices(r, p, group_attrs, options));
}

size_t ResultSize(const Relation& r, const PrefPtr& p,
                  const BmoOptions& options) {
  Relation result = Bmo(r, p, options);
  return result.DistinctProjections(p->attributes()).size();
}

bool IsPerfectMatch(const Tuple& t, const Relation& r, const PrefPtr& p,
                    const std::vector<Tuple>& universe) {
  std::vector<size_t> cols = r.ResolveColumns(p->attributes());
  Schema proj_schema = r.schema().Project(p->attributes());
  LessFn less = p->Bind(proj_schema);
  Tuple proj = t.Project(cols);
  // Perfect match: t[A] in max(P) over the whole domain (Def. 14b), and t
  // must of course be in R.
  bool in_r = false;
  for (size_t i = 0; i < r.size() && !in_r; ++i) in_r = r.RowAt(i) == t;
  if (!in_r) return false;
  for (const Tuple& v : universe) {
    if (less(proj, v)) return false;
  }
  return true;
}

}  // namespace prefdb
