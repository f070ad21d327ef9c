#include "exec/parallel_bmo.h"

#include <algorithm>

#include "eval/bmo_internal.h"
#include "exec/score_table.h"
#include "exec/thread_pool.h"

namespace prefdb {

namespace {

// Maxima of the union of two antichains (each the output of a prior
// maxima pass, so within-list domination is impossible): only the
// |a|*|b| cross-comparisons are needed, and no tuples are materialized.
std::vector<size_t> MergeAntichains(const Tuple* values, const LessFn& less,
                                    const std::vector<size_t>& a,
                                    const std::vector<size_t>& b) {
  std::vector<size_t> out;
  out.reserve(a.size() + b.size());
  for (size_t x : a) {
    bool dominated = false;
    for (size_t y : b) {
      if (less(values[x], values[y])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(x);
  }
  for (size_t y : b) {
    bool dominated = false;
    for (size_t x : a) {
      if (less(values[y], values[x])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) out.push_back(y);
  }
  return out;
}

// The algorithm every partition runs: the plan's partition_algorithm,
// kAuto resolved by the table's data-aware rules (D&C on exact
// flat-Pareto tables). The closure path runs naive or BNL (kAuto
// resolves to BNL there).
BmoAlgorithm PartitionAlgorithm(const PhysicalPlan& plan,
                                const ScoreTable* table) {
  BmoAlgorithm algo = plan.partition_algorithm;
  if (algo == BmoAlgorithm::kAuto && table) algo = table->ResolveAlgorithm();
  return algo;
}

}  // namespace

std::string ParallelKernelVariant(const ScoreTable& table,
                                  const PhysicalPlan& plan) {
  return "parallel+" +
         table.KernelVariant(PartitionAlgorithm(plan, &table), plan);
}

std::vector<bool> MaximaParallel(const Tuple* values, size_t m,
                                 const PrefPtr& p, const Schema& proj_schema,
                                 const PhysicalPlan& plan,
                                 const ScoreTable* table) {
  std::vector<bool> maximal(m, false);
  if (m == 0) return maximal;

  // Every partition and merge round shares the immutable table (reads
  // only, no synchronization needed).
  const BmoAlgorithm algo = PartitionAlgorithm(plan, table);

  ThreadPool& pool = ThreadPool::Shared();
  const size_t threads = ThreadPool::ResolveThreads(plan.num_threads);
  const size_t min_part = std::max<size_t>(1, plan.min_partition_size);
  const size_t parts = std::min(threads, std::max<size_t>(1, m / min_part));
  if (parts <= 1 || pool.OnWorkerThread()) {
    // Too small to split, or already on a pool worker (where blocking on
    // further pool tasks could deadlock): evaluate sequentially.
    if (table) return table->MaximaRange(algo, 0, m, plan);
    return internal::ComputeMaximaBlock(values, m, p, proj_schema, algo);
  }

  // Phase 1: local maxima per contiguous partition, in parallel. Each
  // chunk writes only its own slot of `local`.
  std::vector<std::vector<size_t>> local(parts);
  pool.ParallelForChunks(
      m, parts, min_part,
      [&values, &p, &proj_schema, &local, &table, &plan, algo](
          size_t c, size_t begin, size_t end) {
        std::vector<bool> flags =
            table ? table->MaximaRange(algo, begin, end, plan)
                  : internal::ComputeMaximaBlock(values + begin, end - begin,
                                                 p, proj_schema, algo);
        for (size_t i = begin; i < end; ++i) {
          if (flags[i - begin]) local[c].push_back(i);
        }
      });

  // Phase 2: merge local-maxima lists pairwise on the pool, log2(parts)
  // rounds. On low-selectivity data the candidate union approaches m, so
  // a single sequential merge pass would redo nearly all the work; the
  // tree keeps the large early merges parallel. Eliminations stay sound
  // round over round: an element is only dropped when a still-present
  // element dominates it, and dominator chains terminate at the final
  // survivors.
  std::vector<std::vector<size_t>> lists = std::move(local);
  while (lists.size() > 1) {
    const size_t pairs = lists.size() / 2;
    std::vector<std::vector<size_t>> next(pairs + lists.size() % 2);
    pool.ParallelForChunks(
        pairs, pairs, 1,
        [&values, &p, &proj_schema, &lists, &next, &table, &plan,
         algo](size_t, size_t begin, size_t end) {
          for (size_t k = begin; k < end; ++k) {
            const std::vector<size_t>& a = lists[2 * k];
            const std::vector<size_t>& b = lists[2 * k + 1];
            if (!table) {
              next[k] =
                  MergeAntichains(values, p->Bind(proj_schema), a, b);
            } else if (algo == BmoAlgorithm::kDivideConquer) {
              // D&C's asymptotics on big merges repay the gather copy.
              std::vector<size_t> cand;
              cand.reserve(a.size() + b.size());
              cand.insert(cand.end(), a.begin(), a.end());
              cand.insert(cand.end(), b.begin(), b.end());
              std::vector<bool> flags = table->MaximaSubset(algo, cand, plan);
              for (size_t i = 0; i < cand.size(); ++i) {
                if (flags[i]) next[k].push_back(cand[i]);
              }
            } else {
              next[k] = table->MergeAntichains(a, b, plan);
            }
          }
        });
    if (lists.size() % 2) next.back() = std::move(lists.back());
    lists = std::move(next);
  }
  for (size_t i : lists[0]) maximal[i] = true;
  return maximal;
}

std::vector<size_t> ParallelBmoIndices(const Relation& r, const PrefPtr& p,
                                       const PhysicalPlan& plan) {
  if (r.empty()) return {};
  BmoOptions options;
  options.algorithm = BmoAlgorithm::kParallel;
  options.vectorize = plan.vectorize;
  internal::CompiledBlock block =
      internal::CompileBlock(r, p, nullptr, options, PlanScope{});
  block.plan = plan;
  block.plan.algorithm = BmoAlgorithm::kParallel;
  std::vector<size_t> rows;
  internal::AppendMaximalRows(p, block, nullptr, &rows);
  return rows;
}

Relation ParallelBmo(const Relation& r, const PrefPtr& p,
                     const PhysicalPlan& plan) {
  return r.SelectRows(ParallelBmoIndices(r, p, plan));
}

}  // namespace prefdb
