// Prepared-vs-cold repeated-query benchmarks for the stateful engine:
// the serving-layer scenario where the same preference statements hit the
// same relations over and over.
//
//   cold_execute      caches off — full parse/translate/optimize/compile/
//                     execute every call (the legacy free-function path)
//   cached_execute    Engine::Execute with plan + exec caches — repeated
//                     text serves the exec entry's memoized answer rows
//   prepared_run      PreparedQuery::Run on a warm exec cache — the
//                     steady-state serving cost
//   prepare_only      plan-cache hit cost (normalize + lookup)
//
// A warm hit runs no kernel, so the cached and prepared families measure
// materialization only: the gather of the answer rows and the
// projection. Kernel time is measured by bench_skyline_algorithms
// (BENCH_kernels.json) and by the cold families here.
//
// The tiny N=1024 points exist for the CI smoke job
// (BENCH_engine_cache.json artifact).

#include <benchmark/benchmark.h>

#include "prefdb.h"

namespace {

using namespace prefdb;  // NOLINT(google-build-using-namespace): benchmark driver, brevity wins

const char* kSkylineQuery =
    "SELECT oid, price, mileage FROM car "
    "PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)";

const char* kLayeredQuery =
    "SELECT * FROM car WHERE price < 30000 "
    "PREFERRING (category = 'roadster' ELSE category <> 'passenger') "
    "AND price AROUND 20000 CASCADE LOWEST(mileage)";

const char* kTopKQuery =
    "SELECT TOP 10 oid, price, mileage FROM car "
    "PREFERRING LOWEST(price) AND LOWEST(mileage)";

EngineOptions ColdOptions() {
  EngineOptions options;
  options.enable_plan_cache = false;
  options.enable_exec_cache = false;
  return options;
}

void RunExecute(benchmark::State& state, const char* sql, bool cached) {
  Engine engine(cached ? EngineOptions{} : ColdOptions());
  engine.RegisterTable("car",
                       GenerateCars(static_cast<size_t>(state.range(0)), 7));
  size_t result_size = 0;
  for (auto _ : state) {
    auto res = engine.Execute(sql);
    result_size = res.relation.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["result"] = static_cast<double>(result_size);
}

void BM_cold_execute_skyline(benchmark::State& state) {
  RunExecute(state, kSkylineQuery, /*cached=*/false);
}
void BM_cached_execute_skyline(benchmark::State& state) {
  RunExecute(state, kSkylineQuery, /*cached=*/true);
}
void BM_cold_execute_layered(benchmark::State& state) {
  RunExecute(state, kLayeredQuery, /*cached=*/false);
}
void BM_cached_execute_layered(benchmark::State& state) {
  RunExecute(state, kLayeredQuery, /*cached=*/true);
}
void BM_cold_execute_topk(benchmark::State& state) {
  RunExecute(state, kTopKQuery, /*cached=*/false);
}
void BM_cached_execute_topk(benchmark::State& state) {
  RunExecute(state, kTopKQuery, /*cached=*/true);
}

void BM_prepared_run_skyline(benchmark::State& state) {
  Engine engine;
  engine.RegisterTable("car",
                       GenerateCars(static_cast<size_t>(state.range(0)), 7));
  PreparedQuery prepared = engine.Prepare(kSkylineQuery);
  size_t result_size = 0;
  for (auto _ : state) {
    auto res = prepared.Run();
    result_size = res.relation.size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["result"] = static_cast<double>(result_size);
}

void BM_prepare_only(benchmark::State& state) {
  Engine engine;
  engine.RegisterTable("car",
                       GenerateCars(static_cast<size_t>(state.range(0)), 7));
  for (auto _ : state) {
    PreparedQuery prepared = engine.Prepare(kSkylineQuery);
    benchmark::DoNotOptimize(prepared);
  }
}

#define ENGINE_ARGS ->Arg(1024)->Arg(10000)->Arg(100000)\
    ->Unit(benchmark::kMicrosecond)

BENCHMARK(BM_cold_execute_skyline) ENGINE_ARGS;
BENCHMARK(BM_cached_execute_skyline) ENGINE_ARGS;
BENCHMARK(BM_prepared_run_skyline) ENGINE_ARGS;
BENCHMARK(BM_cold_execute_layered) ENGINE_ARGS;
BENCHMARK(BM_cached_execute_layered) ENGINE_ARGS;
BENCHMARK(BM_cold_execute_topk) ENGINE_ARGS;
BENCHMARK(BM_cached_execute_topk) ENGINE_ARGS;
BENCHMARK(BM_prepare_only)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
