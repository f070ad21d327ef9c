// Ablation benchmarks for the design choices DESIGN.md calls out:
//   (a) BNL window policy: evicting dominated window entries vs an
//       append-only window that never evicts;
//   (b) distinct-projection deduplication before dominance testing vs
//       testing raw rows (duplicates matter on categorical e-shop data);
//   (c) algebraic simplification before evaluation (Prop 7 rewrites) vs
//       evaluating the messy term as written.

#include <benchmark/benchmark.h>

#include "prefdb.h"

namespace {

using namespace prefdb;  // NOLINT(google-build-using-namespace): benchmark driver, brevity wins

// (a) Append-only BNL variant: candidates are only checked against, never
// evicted from, the window; a final pass removes dominated survivors.
std::vector<bool> MaximaBnlNoEvict(const std::vector<Tuple>& values,
                                   const LessFn& less) {
  const size_t m = values.size();
  std::vector<size_t> window;
  for (size_t i = 0; i < m; ++i) {
    bool dominated = false;
    for (size_t w : window) {
      if (less(values[i], values[w])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) window.push_back(i);
  }
  std::vector<bool> maximal(m, false);
  for (size_t i : window) {
    bool dominated = false;
    for (size_t j : window) {
      if (i != j && less(values[i], values[j])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal[i] = true;
  }
  return maximal;
}

void BM_bnl_evicting(benchmark::State& state) {
  Relation r = GenerateVectors(static_cast<size_t>(state.range(0)), 3,
                               Correlation::kIndependent, 5);
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Highest("d2")});
  ProjectionIndex proj = BuildProjectionIndex(r, *p);
  LessFn less = p->Bind(proj.proj_schema);
  for (auto _ : state) {
    auto maxima = MaximaBnl(proj.values, less);
    benchmark::DoNotOptimize(maxima);
  }
}
void BM_bnl_no_evict(benchmark::State& state) {
  Relation r = GenerateVectors(static_cast<size_t>(state.range(0)), 3,
                               Correlation::kIndependent, 5);
  PrefPtr p = Pareto({Highest("d0"), Highest("d1"), Highest("d2")});
  ProjectionIndex proj = BuildProjectionIndex(r, *p);
  LessFn less = p->Bind(proj.proj_schema);
  for (auto _ : state) {
    auto maxima = MaximaBnlNoEvict(proj.values, less);
    benchmark::DoNotOptimize(maxima);
  }
}
BENCHMARK(BM_bnl_evicting)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_bnl_no_evict)->Arg(2048)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// (b) Dedup ablation on categorical data with heavy duplication: compare
// σ[P](R) through the projection index vs dominance tests on raw rows.
void BM_dedup_projection(benchmark::State& state) {
  Relation cars = GenerateCars(static_cast<size_t>(state.range(0)), 31);
  // Color/category only: few distinct combinations, many duplicates.
  PrefPtr p = Pareto(Pos("color", {"red", "blue"}),
                     PosPos("category", {"cabriolet"}, {"roadster"}));
  for (auto _ : state) {
    auto rows = BmoIndices(cars, p, {BmoAlgorithm::kBlockNestedLoop});
    benchmark::DoNotOptimize(rows);
  }
}
void BM_dedup_rawrows(benchmark::State& state) {
  Relation cars = GenerateCars(static_cast<size_t>(state.range(0)), 31);
  PrefPtr p = Pareto(Pos("color", {"red", "blue"}),
                     PosPos("category", {"cabriolet"}, {"roadster"}));
  LessFn less = p->Bind(cars.schema());
  const std::vector<Tuple> rows = cars.tuples();  // materialized untimed
  for (auto _ : state) {
    // BNL over raw rows, no projection dedup.
    std::vector<size_t> window;
    for (size_t i = 0; i < rows.size(); ++i) {
      bool dominated = false;
      size_t keep = 0;
      for (size_t w = 0; w < window.size(); ++w) {
        if (!dominated && less(rows[i], rows[window[w]])) {
          dominated = true;
          for (; w < window.size(); ++w) window[keep++] = window[w];
          break;
        }
        if (less(rows[window[w]], rows[i])) continue;
        window[keep++] = window[w];
      }
      window.resize(keep);
      if (!dominated) window.push_back(i);
    }
    benchmark::DoNotOptimize(window);
  }
}
BENCHMARK(BM_dedup_projection)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_dedup_rawrows)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// (c) Simplification ablation: P (x) P^d over two attributes collapses to
// an anti-chain (Prop 3n) — the optimizer skips all dominance testing.
void BM_messy_term_direct(benchmark::State& state) {
  Relation cars = GenerateCars(static_cast<size_t>(state.range(0)), 77);
  PrefPtr messy = Pareto(Pareto(Lowest("price"), Highest("price")),
                         Pareto(Dual(Dual(Lowest("mileage"))),
                                Lowest("mileage")));
  for (auto _ : state) {
    auto rows = BmoIndices(cars, messy, {BmoAlgorithm::kBlockNestedLoop});
    benchmark::DoNotOptimize(rows);
  }
}
void BM_messy_term_optimized(benchmark::State& state) {
  Relation cars = GenerateCars(static_cast<size_t>(state.range(0)), 77);
  PrefPtr messy = Pareto(Pareto(Lowest("price"), Highest("price")),
                         Pareto(Dual(Dual(Lowest("mileage"))),
                                Lowest("mileage")));
  for (auto _ : state) {
    Relation res = BmoOptimized(cars, messy);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_messy_term_direct)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_messy_term_optimized)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
