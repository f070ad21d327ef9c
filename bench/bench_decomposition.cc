// Benchmark P2 (see DESIGN.md): decomposition-based evaluation
// (Props 10-12, BmoDecompositionIndices called directly) vs direct window
// evaluation for prioritized and Pareto queries on the used-car workload
// — the "divide & conquer algorithms exploiting the decomposition
// principles" the paper's outlook proposes as an optimizer alternative.

#include <benchmark/benchmark.h>

#include "prefdb.h"

namespace {

using namespace prefdb;  // NOLINT(google-build-using-namespace): benchmark driver, brevity wins

// Times `evaluate` (returning the BMO row indices) on the car table.
void RunCarQuery(benchmark::State& state, const PrefPtr& p,
                 std::vector<size_t> (*evaluate)(const Relation&,
                                                 const PrefPtr&)) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation cars = GenerateCars(n, 4711);
  size_t result_size = 0;
  for (auto _ : state) {
    std::vector<size_t> rows = evaluate(cars, p);
    result_size = rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["result"] = static_cast<double>(result_size);
}

std::vector<size_t> Direct(const Relation& r, const PrefPtr& p) {
  return BmoIndices(r, p, {BmoAlgorithm::kBlockNestedLoop});
}
std::vector<size_t> Naive(const Relation& r, const PrefPtr& p) {
  return BmoIndices(r, p, {BmoAlgorithm::kNaive});
}

// Prioritized query with a non-chain head: Prop 10 grouping applies.
PrefPtr PrioritizedQuery() {
  return Prioritized(Pos("color", {"red", "blue"}), Lowest("price"));
}

// Prioritized query with a chain head: Prop 11 cascade applies.
PrefPtr CascadeQuery() {
  return Prioritized(Lowest("price"), Lowest("mileage"));
}

// Pareto query: Prop 12 (three-term union incl. YY) applies.
PrefPtr ParetoQuery() {
  return Pareto(Around("price", 9000), Lowest("mileage"));
}

void BM_prioritized_direct(benchmark::State& state) {
  RunCarQuery(state, PrioritizedQuery(), Direct);
}
void BM_prioritized_decomposed(benchmark::State& state) {
  RunCarQuery(state, PrioritizedQuery(), BmoDecompositionIndices);
}
void BM_cascade_direct(benchmark::State& state) {
  RunCarQuery(state, CascadeQuery(), Direct);
}
void BM_cascade_decomposed(benchmark::State& state) {
  RunCarQuery(state, CascadeQuery(), BmoDecompositionIndices);
}
void BM_pareto_direct(benchmark::State& state) {
  RunCarQuery(state, ParetoQuery(), Direct);
}
void BM_pareto_decomposed(benchmark::State& state) {
  RunCarQuery(state, ParetoQuery(), BmoDecompositionIndices);
}
void BM_pareto_naive(benchmark::State& state) {
  RunCarQuery(state, ParetoQuery(), Naive);
}

BENCHMARK(BM_prioritized_direct)->Arg(2000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_prioritized_decomposed)->Arg(2000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_cascade_direct)->Arg(2000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_cascade_decomposed)->Arg(2000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_pareto_naive)->Arg(2000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_pareto_direct)->Arg(2000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_pareto_decomposed)->Arg(2000)->Arg(10000)->Arg(40000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
