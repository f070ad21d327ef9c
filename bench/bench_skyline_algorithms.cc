// Benchmark P1 (see DESIGN.md): BMO/skyline algorithm comparison — the
// naive O(n^2) closure oracle, BNL [BKS01] and sort-filter (SFS-style) —
// across data correlation, cardinality n and dimensionality d. The
// Prop-8-12 decomposition evaluator has its own driver,
// bench_decomposition.
//
// The expected *shape* (who wins, where the crossovers are):
//   - naive degrades quadratically everywhere;
//   - BNL shines on correlated data (tiny windows) and degrades on
//     anti-correlated data (windows approach the full skyline);
//   - SFS presorting amortizes on large anti-correlated inputs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <vector>

#include "prefdb.h"

namespace {

using namespace prefdb;  // NOLINT(google-build-using-namespace): benchmark driver, brevity wins

PrefPtr SkylinePref(size_t d) {
  std::vector<PrefPtr> prefs;
  for (size_t i = 0; i < d; ++i) {
    prefs.push_back(Highest("d" + std::to_string(i)));
  }
  return Pareto(prefs);
}

void RunSkyline(benchmark::State& state, BmoAlgorithm algo, Correlation corr) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Relation r = GenerateVectors(n, d, corr, 42);
  PrefPtr p = SkylinePref(d);
  BmoOptions options;
  options.algorithm = algo;
  size_t result_size = 0;
  for (auto _ : state) {
    std::vector<size_t> rows = BmoIndices(r, p, options);
    result_size = rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["skyline"] = static_cast<double>(result_size);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// The closure BNL window, the one kernel of terms that do not compile:
// the projection index plus MaximaBnl, timed whole as BmoIndices is.
void RunClosureBnl(benchmark::State& state, const Relation& r,
                   const PrefPtr& p) {
  for (auto _ : state) {
    ProjectionIndex proj = BuildProjectionIndex(r, *p);
    std::vector<bool> maxima =
        MaximaBnl(proj.values, p->Bind(proj.proj_schema));
    benchmark::DoNotOptimize(maxima);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(r.size()));
}

// Level-based terms (POS/LAYERED under Pareto/prioritization) over a
// low-cardinality categorical column plus numeric chains: the workload the
// score table newly opens to SFS (no closure sort keys exist).
Relation LevelRelation(size_t n) {
  Relation r = GenerateVectors(n, 5, Correlation::kAntiCorrelated, 7);
  // Dict-encode d4 into 8 buckets so POS has categorical structure; the
  // 4-d Pareto tail keeps windows large enough that presorting matters.
  Relation cat(Schema{{"d0", ValueType::kDouble},
                      {"d1", ValueType::kDouble},
                      {"d2", ValueType::kDouble},
                      {"d3", ValueType::kDouble},
                      {"bucket", ValueType::kInt}});
  for (const Tuple& t : r.tuples()) {
    cat.Add({t[0], t[1], t[2], t[3],
             Value(static_cast<int64_t>(*t[4].numeric() * 8) % 8)});
  }
  return cat;
}

PrefPtr LevelTerm() {
  return Prioritized(
      Pos("bucket", {Value(0), Value(3)}),
      Pareto({Highest("d0"), Highest("d1"), Highest("d2"), Highest("d3")}));
}

#define SKYLINE_BENCH(algo_name, algo, corr_name, corr)                  \
  void BM_##algo_name##_##corr_name(benchmark::State& state) {           \
    RunSkyline(state, algo, corr);                                       \
  }                                                                      \
  BENCHMARK(BM_##algo_name##_##corr_name)                                \
      ->ArgsProduct({{1024, 4096, 16384}, {2, 4}})                       \
      ->Unit(benchmark::kMillisecond)

// The quadratic baseline gets smaller inputs (it is the contrast case).
#define SKYLINE_BENCH_SMALL(algo_name, algo, corr_name, corr)            \
  void BM_##algo_name##_##corr_name(benchmark::State& state) {           \
    RunSkyline(state, algo, corr);                                       \
  }                                                                      \
  BENCHMARK(BM_##algo_name##_##corr_name)                                \
      ->ArgsProduct({{1024, 4096}, {2, 4}})                              \
      ->Unit(benchmark::kMillisecond)

SKYLINE_BENCH_SMALL(naive, BmoAlgorithm::kNaive, indep,
                    Correlation::kIndependent);
SKYLINE_BENCH(bnl, BmoAlgorithm::kBlockNestedLoop, indep,
              Correlation::kIndependent);
SKYLINE_BENCH(sfs, BmoAlgorithm::kSortFilter, indep,
              Correlation::kIndependent);

SKYLINE_BENCH_SMALL(naive, BmoAlgorithm::kNaive, anti,
                    Correlation::kAntiCorrelated);
SKYLINE_BENCH(bnl, BmoAlgorithm::kBlockNestedLoop, anti,
              Correlation::kAntiCorrelated);
SKYLINE_BENCH(sfs, BmoAlgorithm::kSortFilter, anti,
              Correlation::kAntiCorrelated);

SKYLINE_BENCH(bnl, BmoAlgorithm::kBlockNestedLoop, corr,
              Correlation::kCorrelated);
SKYLINE_BENCH(sfs, BmoAlgorithm::kSortFilter, corr,
              Correlation::kCorrelated);

// Ablation: auto algorithm selection vs the best hand-picked one.
void BM_auto_anti(benchmark::State& state) {
  RunSkyline(state, BmoAlgorithm::kAuto, Correlation::kAntiCorrelated);
}
BENCHMARK(BM_auto_anti)
    ->ArgsProduct({{1024, 4096, 16384}, {2, 4}})
    ->Unit(benchmark::kMillisecond);

// Vectorized score-table BNL vs the closure BNL (the closure path runs
// BNL only), up to N=100k (the headline comparison; tiny N kept for the
// CI smoke).
void BM_bnl_closure_anti(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(1));
  RunClosureBnl(state,
                GenerateVectors(static_cast<size_t>(state.range(0)), d,
                                Correlation::kAntiCorrelated, 42),
                SkylinePref(d));
}
BENCHMARK(BM_bnl_closure_anti)
    ->ArgsProduct({{1024, 16384, 100000}, {2, 4}})
    ->Unit(benchmark::kMillisecond);
void BM_bnl_vector_anti(benchmark::State& state) {
  RunSkyline(state, BmoAlgorithm::kBlockNestedLoop,
             Correlation::kAntiCorrelated);
}
BENCHMARK(BM_bnl_vector_anti)
    ->ArgsProduct({{1024, 16384, 100000}, {2, 4}})
    ->Unit(benchmark::kMillisecond);

// Kernel-variant families (the CI perf gate tracks these at N=4096, see
// bench/compare.py): one compiled score table, measuring only the maxima
// kernel, across the portable batch kernels ("scalar", the perf gate's
// anchor), forced AVX2, and AVX2 + the L2-tiled BNL window loop. On CPUs without AVX2 the forced-AVX2 variants degrade to
// the batch scalar kernels (identical numbers, never a crash).
constexpr size_t kUntiled = std::numeric_limits<size_t>::max();

void RunKernelFamily(benchmark::State& state, BmoAlgorithm algo,
                     SimdMode simd, size_t tile, Correlation corr) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t d = static_cast<size_t>(state.range(1));
  Relation r = GenerateVectors(n, d, corr, 42);
  PrefPtr p = SkylinePref(d);
  auto table = ScoreTable::Compile(p, r);
  PhysicalPlan plan;
  plan.simd = simd;
  plan.bnl_tile_rows = tile;
  size_t skyline = 0;
  for (auto _ : state) {
    std::vector<bool> maximal = table->Maxima(algo, plan);
    skyline = static_cast<size_t>(
        std::count(maximal.begin(), maximal.end(), true));
    benchmark::DoNotOptimize(maximal);
  }
  state.counters["skyline"] = static_cast<double>(skyline);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

#define KERNEL_BENCH(fam, algo, variant, simd, tile, corr_name, corr, args) \
  void BM_kernel_##fam##_##variant##_##corr_name(benchmark::State& state) { \
    RunKernelFamily(state, algo, simd, tile, corr);                         \
  }                                                                         \
  BENCHMARK(BM_kernel_##fam##_##variant##_##corr_name)                      \
      ->ArgsProduct(args)                                                   \
      ->Unit(benchmark::kMillisecond)

#define KERNEL_BNL_ANTI(variant, simd, tile)                             \
  KERNEL_BENCH(bnl, BmoAlgorithm::kBlockNestedLoop, variant, simd, tile, \
               anti, Correlation::kAntiCorrelated,                       \
               (std::vector<std::vector<int64_t>>{{4096, 10000, 100000}, \
                                                  {2, 4}}))
KERNEL_BNL_ANTI(scalar, SimdMode::kScalar, kUntiled);
KERNEL_BNL_ANTI(avx2, SimdMode::kAvx2, kUntiled);
KERNEL_BNL_ANTI(avx2_tiled, SimdMode::kAvx2, 0);

#define KERNEL_BNL_INDEP(variant, simd, tile)                            \
  KERNEL_BENCH(bnl, BmoAlgorithm::kBlockNestedLoop, variant, simd, tile, \
               indep, Correlation::kIndependent,                         \
               (std::vector<std::vector<int64_t>>{                       \
                   {4096, 10000, 100000, 1000000}, {4}}))
KERNEL_BNL_INDEP(scalar, SimdMode::kScalar, kUntiled);
KERNEL_BNL_INDEP(avx2, SimdMode::kAvx2, kUntiled);
KERNEL_BNL_INDEP(avx2_tiled, SimdMode::kAvx2, 0);

#define KERNEL_SFS_ANTI(variant, simd)                                  \
  KERNEL_BENCH(sfs, BmoAlgorithm::kSortFilter, variant, simd, kUntiled, \
               anti, Correlation::kAntiCorrelated,                      \
               (std::vector<std::vector<int64_t>>{{4096, 10000, 100000}, \
                                                  {4}}))
KERNEL_SFS_ANTI(avx2, SimdMode::kAvx2);

// The deduplicating compile CompileBlock takes under heavy duplication:
// equality-code the term's columns, then compile one representative row
// per value combination. `codes` receives the row map.
std::optional<ScoreTable> CompileDedup(const Relation& r, const PrefPtr& p,
                                       std::vector<uint32_t>* codes) {
  GroupCoding coding = ComputeGroupCoding(r, r.ResolveColumns(p->attributes()));
  const std::vector<size_t> reps(coding.group_rows.begin(),
                                 coding.group_rows.end());
  *codes = std::move(coding.codes);
  return ScoreTable::Compile(p, r, &reps);
}

// Cold score-table compilation over the same column store: the
// deduplicating compile (named "gather": bench/compare.py fails when a
// baseline family vanishes) vs the identity compile (the pool as it is, reading the
// store's NaN-free column buffers outright). Tracked by the perf gate and
// enforced in-driver by the >=3x compile-speedup check after the timed
// families (see main()).
void RunCompileCold(benchmark::State& state, bool zero_copy) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation r = GenerateVectors(n, 4, Correlation::kAntiCorrelated, 42);
  PrefPtr p = SkylinePref(4);
  std::vector<uint32_t> codes;
  for (auto _ : state) {
    auto table = zero_copy ? ScoreTable::Compile(p, r)
                           : CompileDedup(r, p, &codes);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_compile_cold_gather(benchmark::State& state) {
  RunCompileCold(state, false);
}
BENCHMARK(BM_compile_cold_gather)
    ->Arg(4096)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
void BM_compile_cold_zero_copy(benchmark::State& state) {
  RunCompileCold(state, true);
}
BENCHMARK(BM_compile_cold_zero_copy)
    ->Arg(4096)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// End-to-end cold query (compile + kernel + row mapping), dedup ("gather")
// vs identity ("zero_copy"). The identity side is the real BmoIndices
// path on this mostly-distinct workload; the dedup side runs the
// deduplicating compile on the same relation.
void RunEndToEndCold(benchmark::State& state, bool zero_copy) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation r = GenerateVectors(n, 4, Correlation::kAntiCorrelated, 42);
  PrefPtr p = SkylinePref(4);
  size_t result_size = 0;
  for (auto _ : state) {
    std::vector<size_t> rows;
    if (zero_copy) {
      rows = BmoIndices(r, p, {});  // compiles the pool as it is
    } else {
      std::vector<uint32_t> codes;
      auto table = CompileDedup(r, p, &codes);
      std::vector<bool> maximal = table->Maxima(BmoAlgorithm::kAuto);
      for (size_t i = 0; i < r.size(); ++i) {
        if (maximal[codes[i]]) rows.push_back(i);
      }
    }
    result_size = rows.size();
    benchmark::DoNotOptimize(rows);
  }
  state.counters["skyline"] = static_cast<double>(result_size);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_end_to_end_cold_gather(benchmark::State& state) {
  RunEndToEndCold(state, false);
}
BENCHMARK(BM_end_to_end_cold_gather)
    ->Arg(4096)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);
void BM_end_to_end_cold_zero_copy(benchmark::State& state) {
  RunEndToEndCold(state, true);
}
BENCHMARK(BM_end_to_end_cold_zero_copy)
    ->Arg(4096)->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// Level-term workload: closure evaluation has no sort keys (BNL only),
// the score table compiles levels and presorts.
void BM_level_closure(benchmark::State& state) {
  RunClosureBnl(state, LevelRelation(static_cast<size_t>(state.range(0))),
                LevelTerm());
}
BENCHMARK(BM_level_closure)
    ->Arg(1024)->Arg(16384)->Arg(100000)
    ->Unit(benchmark::kMillisecond);
void BM_level_vector(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Relation cat = LevelRelation(n);
  const PrefPtr p = LevelTerm();
  for (auto _ : state) {
    std::vector<size_t> rows = BmoIndices(cat, p);
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_level_vector)
    ->Arg(1024)->Arg(16384)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Compile gate: after the timed families, wall-clock both cold compiles
// on the headline workload (100k anti-correlated, d=4) and require the
// identity compile to be at least 3x faster than the deduplicating one,
// so CompileBlock's dedup branch stays reserved for heavily duplicated
// pools. Enforced in-driver exactly like bench_planner's misprediction
// check so a regression fails the smoke test directly.

double MedianCompileMs(const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    auto t1 = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[1];
}

bool RunCompileGate() {
  const size_t n = 100000;
  Relation r = GenerateVectors(n, 4, Correlation::kAntiCorrelated, 42);
  PrefPtr p = SkylinePref(4);
  const double dedup_ms = MedianCompileMs([&] {
    std::vector<uint32_t> codes;
    auto table = CompileDedup(r, p, &codes);
    benchmark::DoNotOptimize(table);
  });
  const double identity_ms = MedianCompileMs([&] {
    auto table = ScoreTable::Compile(p, r);
    benchmark::DoNotOptimize(table);
  });
  const double speedup = identity_ms > 0 ? dedup_ms / identity_ms : 1e9;
  const bool ok = speedup >= 3.0;
  std::fprintf(stderr,
               "compile-gate n=%zu dedup %.3fms identity %.3fms "
               "speedup %.1fx (need >=3x) %s\n",
               n, dedup_ms, identity_ms, speedup, ok ? "OK" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunCompileGate() ? 0 : 1;
}
