#include "eval/bmo.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <functional>

#include "core/numeric_preferences.h"
#include "eval/bmo_internal.h"
#include "eval/decomposition.h"
#include "exec/parallel_bmo.h"
#include "exec/score_table.h"
#include "exec/simd/dominance.h"
#include "exec/thread_pool.h"

namespace prefdb {

const char* BmoAlgorithmName(BmoAlgorithm algo) {
  switch (algo) {
    case BmoAlgorithm::kAuto: return "auto";
    case BmoAlgorithm::kNaive: return "naive";
    case BmoAlgorithm::kBlockNestedLoop: return "bnl";
    case BmoAlgorithm::kSortFilter: return "sfs";
    case BmoAlgorithm::kDivideConquer: return "dc";
    case BmoAlgorithm::kDecomposition: return "decomposition";
    case BmoAlgorithm::kParallel: return "parallel";
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

namespace {

// Range-based implementations: partition-parallel callers evaluate
// contiguous slices of the distinct-value array without copying tuples.

std::vector<bool> MaximaNaiveRange(const Tuple* values, size_t m,
                                   const LessFn& less) {
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

std::vector<bool> MaximaBnlRange(const Tuple* values, size_t m,
                                 const LessFn& less) {
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

}  // namespace

std::vector<bool> MaximaNaive(const std::vector<Tuple>& values,
                              const LessFn& less) {
  return MaximaNaiveRange(values.data(), values.size(), less);
}

std::vector<bool> MaximaBnl(const std::vector<Tuple>& values,
                            const LessFn& less) {
  return MaximaBnlRange(values.data(), values.size(), less);
}

namespace {

// Flat row-major matrix view for the KLP75 recursion: row i is the `d`
// doubles at data + i * stride (zero-copy over score-table storage).
// The quadratic base-case blocks run through the batch dominance
// `kernel` over `prog` (flat Pareto, score equality only — exactly
// coordinatewise dominance).
struct ScoreMatrix {
  const double* data;
  size_t d;
  size_t stride;
  const simd::KernelOps& kernel;
  const simd::DominanceProgram& prog;
  const double* row(size_t i) const { return data + i * stride; }
};

// Quadratic maxima over a small block; maximal[i] is only ever set, so
// callers can accumulate across disjoint blocks. Self-comparison is
// harmless (nothing dominates itself), so the batch path scans each row
// against the whole gathered block; blocks under two lane chunks keep a
// plain pair loop.
void QuadraticBlock(const ScoreMatrix& scores, const std::vector<size_t>& idx,
                    std::vector<bool>& maximal);

// KLP75 base case: 2-d maxima by a plane sweep.
void Maxima2D(const ScoreMatrix& scores, std::vector<size_t>& idx,
              std::vector<bool>& maximal) {
  std::sort(idx.begin(), idx.end(), [&scores](size_t a, size_t b) {
    if (scores.row(a)[0] != scores.row(b)[0]) {
      return scores.row(a)[0] > scores.row(b)[0];
    }
    return scores.row(a)[1] > scores.row(b)[1];
  });
  bool has_best = false;
  double best0 = 0.0;
  double best1 = -std::numeric_limits<double>::infinity();
  for (size_t i : idx) {
    if (!has_best || scores.row(i)[1] > best1) {
      maximal[i] = true;
      has_best = true;
      best0 = scores.row(i)[0];
      best1 = scores.row(i)[1];
    } else if (scores.row(i)[1] == best1 && scores.row(i)[0] == best0) {
      // Exact duplicate of the current sweep maximum: equal rows never
      // dominate each other (no strict coordinate), so it is maximal too.
      // Reachable when the block was compiled without deduplication.
      maximal[i] = true;
    }
  }
}

bool DominatesFrom(const ScoreMatrix& scores, size_t a, size_t b,
                   size_t from) {
  // a dominates b in dims [from, d): a >= b everywhere, a > b somewhere.
  const double* ra = scores.row(a);
  const double* rb = scores.row(b);
  bool strict = false;
  for (size_t k = from; k < scores.d; ++k) {
    if (ra[k] < rb[k]) return false;
    if (ra[k] > rb[k]) strict = true;
  }
  return strict;
}

void QuadraticBlock(const ScoreMatrix& scores, const std::vector<size_t>& idx,
                    std::vector<bool>& maximal) {
  if (idx.size() >= 2 * simd::kLanes) {
    simd::RowBlock block(scores.d);
    for (size_t i : idx) block.Append(scores.row(i), nullptr, i);
    for (size_t i : idx) {
      if (!scores.kernel.dominated(scores.prog, scores.row(i), nullptr,
                                   block)) {
        maximal[i] = true;
      }
    }
    return;
  }
  for (size_t i : idx) {
    bool dominated = false;
    for (size_t j : idx) {
      if (i != j && DominatesFrom(scores, j, i, 0)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal[i] = true;
  }
}

void MaximaDcRec(const ScoreMatrix& scores, std::vector<size_t> idx,
                 std::vector<bool>& maximal) {
  const size_t d = scores.d;
  // The batch kernels make a 32-row quadratic base case cheaper than
  // further recursion levels.
  if (idx.size() <= 32) {
    QuadraticBlock(scores, idx, maximal);
    return;
  }
  if (d == 2) {
    Maxima2D(scores, idx, maximal);
    return;
  }
  // Split by the median of dim 0.
  std::vector<size_t> sorted = idx;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end(), [&scores](size_t a, size_t b) {
                     return scores.row(a)[0] > scores.row(b)[0];
                   });
  double median = scores.row(sorted[sorted.size() / 2])[0];
  std::vector<size_t> upper, lower;
  for (size_t i : idx) {
    (scores.row(i)[0] > median ? upper : lower).push_back(i);
  }
  if (upper.empty() || lower.empty()) {
    // Degenerate split (many equal dim-0 values): dominance within the
    // block is decided by the remaining dims plus exact dim-0 ties;
    // fall back to the quadratic check for this block.
    QuadraticBlock(scores, idx, maximal);
    return;
  }
  std::vector<bool> upper_max(maximal.size(), false);
  std::vector<bool> lower_max(maximal.size(), false);
  MaximaDcRec(scores, upper, upper_max);
  MaximaDcRec(scores, lower, lower_max);
  // "Marriage" step: a lower maximum survives unless some upper maximum
  // weakly dominates it in dims 1..d-1 (dim 0 is already strictly larger).
  std::vector<size_t> upper_maxima;
  for (size_t i : upper) {
    if (upper_max[i]) {
      maximal[i] = true;
      upper_maxima.push_back(i);
    }
  }
  for (size_t i : lower) {
    if (!lower_max[i]) continue;
    bool dominated = false;
    for (size_t j : upper_maxima) {
      bool geq = true;
      for (size_t k = 1; k < d; ++k) {
        if (scores.row(j)[k] < scores.row(i)[k]) {
          geq = false;
          break;
        }
      }
      if (geq) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal[i] = true;
  }
}

}  // namespace

std::vector<bool> MaximaDivideConquerFlat(const double* scores, size_t n,
                                          size_t d, size_t stride,
                                          const simd::KernelOps& kernel) {
  std::vector<bool> maximal(n, false);
  if (n == 0) return maximal;
  // Coordinatewise dominance == flat Pareto over score-equality columns.
  simd::DominanceProgram prog;
  prog.mode = simd::DominanceProgram::Mode::kFlatPareto;
  prog.cols = d;
  prog.use_ids.assign(d, 0);
  ScoreMatrix m{scores, d, stride, kernel, prog};
  if (d < 2) {
    // 1-d: maxima are the rows attaining the maximum score.
    double best = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) best = std::max(best, m.row(i)[0]);
    for (size_t i = 0; i < n; ++i) maximal[i] = m.row(i)[0] == best;
    return maximal;
  }
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  MaximaDcRec(m, std::move(idx), maximal);
  return maximal;
}

namespace internal {

std::vector<bool> ComputeMaximaBlock(const Tuple* values, size_t count,
                                     const PrefPtr& p,
                                     const Schema& proj_schema,
                                     BmoAlgorithm algo) {
  const LessFn less = p->Bind(proj_schema);
  return algo == BmoAlgorithm::kNaive ? MaximaNaiveRange(values, count, less)
                                      : MaximaBnlRange(values, count, less);
}

std::vector<bool> ExecuteBlockPlan(const Tuple* values, size_t count,
                                   const PrefPtr& p,
                                   const Schema& proj_schema,
                                   const ScoreTable* table,
                                   const PhysicalPlan& plan) {
  if (plan.algorithm == BmoAlgorithm::kParallel) {
    return MaximaParallel(values, count, p, proj_schema, plan, table);
  }
  if (table != nullptr) {
    return table->MaximaRange(plan.algorithm, 0, count, plan);
  }
  return ComputeMaximaBlock(values, count, p, proj_schema, plan.algorithm);
}

std::string CompiledBlock::KernelVariant() const {
  if (!table) return "closure";
  if (plan.algorithm == BmoAlgorithm::kParallel) {
    return ParallelKernelVariant(*table, plan);
  }
  return table->KernelVariant(plan.algorithm, plan);
}

size_t CompiledBlock::HeapBytes() const {
  return VectorBytes(proj.row_to_value) + VectorBytes(proj.values) +
         proj.values.size() * proj.proj_schema.size() * sizeof(Value) +
         (table ? table->HeapBytes() : 0);
}

CompiledBlock CompileBlock(const Relation& r, const PrefPtr& p,
                           const std::vector<size_t>* rows,
                           const BmoOptions& options, const PlanScope& scope) {
  CompiledBlock block;
  const size_t pool_size = rows ? rows->size() : r.size();
  if (options.vectorize && pool_size > 0 && ScoreTable::CompilableTerm(p)) {
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
  const auto t0 = std::chrono::steady_clock::now();
  TermStats stats;
  if (options.algorithm == BmoAlgorithm::kAuto) {
    stats = block.table ? MeasureTermStats(*block.table, p, pool_size)
                        : EstimateClosureBlockStats(block.proj.values.size(),
                                                    pool_size, p);
  }
  block.plan = PlanPhysical(stats, options, scope);
  if (!scope.allow_parallel &&
      block.plan.algorithm == BmoAlgorithm::kParallel) {
    block.plan.algorithm = BmoAlgorithm::kAuto;
  }
  block.plan_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return block;
}

void AppendMaximalRows(const PrefPtr& p, const CompiledBlock& block,
                       const std::vector<size_t>* rows,
                       std::vector<size_t>* out) {
  const ScoreTable* table = block.table ? &*block.table : nullptr;
  const size_t distinct = table ? table->rows() : block.proj.values.size();
  if (distinct == 0) return;
  const std::vector<bool> maximal = ExecuteBlockPlan(
      table ? nullptr : block.proj.values.data(), distinct, p,
      block.proj.proj_schema, table, block.plan);
  const size_t pool_size =
      block.identity() ? distinct : block.proj.row_to_value.size();
  for (size_t i = 0; i < pool_size; ++i) {
    if (maximal[block.identity() ? i : block.proj.row_to_value[i]]) {
      out->push_back(rows ? (*rows)[i] : i);
    }
  }
}

std::vector<size_t> GroupMaximalRows(
    size_t num_groups, size_t num_threads,
    const std::function<void(size_t, std::vector<size_t>*)>& group_maxima) {
  std::vector<size_t> out;
  ThreadPool& pool = ThreadPool::Shared();
  const size_t threads = ThreadPool::ResolveThreads(num_threads);
  if (num_groups > 1 && threads > 1 && !pool.OnWorkerThread()) {
    std::vector<std::vector<size_t>> results(num_groups);
    pool.ParallelForChunks(num_groups, threads, 1,
                           [&](size_t, size_t begin, size_t end) {
                             for (size_t g = begin; g < end; ++g) {
                               group_maxima(g, &results[g]);
                             }
                           });
    for (const std::vector<size_t>& rows : results) {
      out.insert(out.end(), rows.begin(), rows.end());
    }
  } else {
    for (size_t g = 0; g < num_groups; ++g) group_maxima(g, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace internal

std::vector<size_t> BmoIndices(const Relation& r, const PrefPtr& p,
                               const BmoOptions& options) {
  if (r.empty()) return {};
  if (options.algorithm == BmoAlgorithm::kDecomposition) {
    return BmoDecompositionIndices(r, p);
  }
  PlanScope scope;
  scope.allow_decomposition = false;
  std::vector<size_t> rows;
  internal::AppendMaximalRows(
      p, internal::CompileBlock(r, p, nullptr, options, scope), nullptr,
      &rows);
  return rows;
}

Relation Bmo(const Relation& r, const PrefPtr& p, const BmoOptions& options) {
  return r.SelectRows(BmoIndices(r, p, options));
}

std::vector<size_t> BmoGroupByIndices(
    const Relation& r, const PrefPtr& p,
    const std::vector<std::string>& group_attrs, const BmoOptions& options) {
  if (r.empty()) return {};
  if (options.algorithm == BmoAlgorithm::kDecomposition) {
    return BmoDecompositionGroupByIndices(r, p, group_attrs);
  }
  const std::vector<std::vector<size_t>> groups =
      GroupRowsBy(r, r.ResolveColumns(group_attrs));
  PlanScope scope;
  scope.allow_decomposition = false;
  // Several groups already saturate the pool; a single group keeps
  // partition-parallelism inside its block.
  scope.allow_parallel = groups.size() == 1;
  return internal::GroupMaximalRows(
      groups.size(), options.num_threads,
      [&](size_t g, std::vector<size_t>* out) {
        internal::AppendMaximalRows(
            p, internal::CompileBlock(r, p, &groups[g], options, scope),
            &groups[g], out);
      });
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
  for (const Tuple& row : r.tuples()) {
    if (row == t) {
      in_r = true;
      break;
    }
  }
  if (!in_r) return false;
  for (const Tuple& v : universe) {
    if (less(proj, v)) return false;
  }
  return true;
}

}  // namespace prefdb
