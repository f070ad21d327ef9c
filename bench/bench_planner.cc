// Planner benchmark + misprediction gate.
//
// Families (tracked by the CI perf gate at n=4096, see bench/compare.py):
//   BM_planner_anchor_scalar      forced scalar-kernel BNL (the per-file
//                                 anchor that cancels machine speed)
//   BM_planner_overhead_estimate  statistics-level planning only
//                                 (EstimateTermStats + cost model)
//   BM_planner_overhead_measured  measured planning only (sampled window
//                                 probe + cost model, table precompiled)
//   BM_planner_chosen_<family>    end-to-end kAuto execution (plan +
//                                 chosen kernel) per workload regime
//
// After the benchmarks run, main() executes the misprediction check: for
// every workload family, each eligible block algorithm is wall-clocked
// on the compiled table (median of 3) and the planner's choice must land
// within 1.3x of the best measured algorithm — the acceptance bound that
// keeps the cost-model constants honest as kernels evolve.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
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

struct Family {
  const char* name;
  Correlation corr;
  size_t d;
};

const Family kFamilies[] = {
    {"anti_d4", Correlation::kAntiCorrelated, 4},
    {"indep_d4", Correlation::kIndependent, 4},
    {"anti_d2", Correlation::kAntiCorrelated, 2},
    {"corr_d4", Correlation::kCorrelated, 4},
};

// --- anchor: forced scalar-kernel BNL so committed baselines normalize
// out machine speed (compare.py picks the first family containing
// "scalar").
void BM_planner_anchor_scalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation r = GenerateVectors(n, 4, Correlation::kIndependent, 42);
  PrefPtr p = SkylinePref(4);
  BmoOptions options;
  options.algorithm = BmoAlgorithm::kBlockNestedLoop;
  options.simd = SimdMode::kScalar;
  for (auto _ : state) {
    std::vector<size_t> rows = BmoIndices(r, p, options);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_planner_anchor_scalar)->Arg(4096)->Unit(benchmark::kMillisecond);

// --- planning overhead, statistics level (what ChooseAlgorithm costs on
// the engine's cached TableStats).
void BM_planner_overhead_estimate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation r = GenerateVectors(n, 4, Correlation::kIndependent, 42);
  PrefPtr p = SkylinePref(4);
  TableStats stats = TableStats::Derive(r, p->attributes());
  for (auto _ : state) {
    PhysicalPlan plan = ChooseAlgorithm(stats, n, p, {});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_planner_overhead_estimate)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// --- planning overhead, measured level (the sampled window probe over a
// precompiled table + the cost model).
void BM_planner_overhead_measured(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation r = GenerateVectors(n, 4, Correlation::kAntiCorrelated, 42);
  PrefPtr p = SkylinePref(4);
  auto table = ScoreTable::Compile(p, r);
  for (auto _ : state) {
    TermStats stats = MeasureTermStats(*table, p, n);
    PhysicalPlan plan = PlanPhysical(stats, {});
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_planner_overhead_measured)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// --- end-to-end kAuto per workload regime: the chosen plan's cost is
// what the gate tracks; a planner that starts mispredicting shows up as
// a regression here even before the misprediction check trips.
void RunChosen(benchmark::State& state, const Family& family) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relation r = GenerateVectors(n, family.d, family.corr, 42);
  PrefPtr p = SkylinePref(family.d);
  for (auto _ : state) {
    std::vector<size_t> rows = BmoIndices(r, p, {});
    benchmark::DoNotOptimize(rows);
  }
}
#define CHOSEN_BENCH(fam, index)                                       \
  void BM_planner_chosen_##fam(benchmark::State& state) {              \
    RunChosen(state, kFamilies[index]);                                \
  }                                                                    \
  BENCHMARK(BM_planner_chosen_##fam)->Arg(4096)->Unit(                 \
      benchmark::kMillisecond)

CHOSEN_BENCH(anti_d4, 0);
CHOSEN_BENCH(indep_d4, 1);
CHOSEN_BENCH(anti_d2, 2);
CHOSEN_BENCH(corr_d4, 3);

// ---------------------------------------------------------------------
// Misprediction check

double MedianMs(const std::function<void()>& fn) {
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

bool CheckFamily(const Family& family, size_t n) {
  Relation r = GenerateVectors(n, family.d, family.corr, 42);
  PrefPtr p = SkylinePref(family.d);
  auto table = ScoreTable::Compile(p, r);
  if (!table) {
    std::fprintf(stderr, "planner-check %s: term did not compile\n",
                 family.name);
    return false;
  }
  const size_t m = table->rows();
  PlanScope scope;
  scope.allow_decomposition = false;
  PhysicalPlan plan = PlanPhysical(MeasureTermStats(*table, p, n), {}, scope);

  struct Candidate {
    BmoAlgorithm algo;
    double ms;
  };
  std::vector<Candidate> candidates;
  auto time_algo = [&](BmoAlgorithm algo) {
    return MedianMs([&] {
      std::vector<bool> maximal = table->MaximaRange(algo, 0, m, plan);
      benchmark::DoNotOptimize(maximal);
    });
  };
  candidates.push_back(
      {BmoAlgorithm::kBlockNestedLoop, time_algo(BmoAlgorithm::kBlockNestedLoop)});
  if (table->HasSortKeys()) {
    candidates.push_back(
        {BmoAlgorithm::kSortFilter, time_algo(BmoAlgorithm::kSortFilter)});
  }
  if (table->CanDivideConquer()) {
    candidates.push_back(
        {BmoAlgorithm::kDivideConquer, time_algo(BmoAlgorithm::kDivideConquer)});
  }
  double best = candidates[0].ms;
  const Candidate* chosen = nullptr;
  for (const Candidate& c : candidates) {
    best = std::min(best, c.ms);
    if (c.algo == plan.algorithm) chosen = &c;
  }
  if (chosen == nullptr) {
    // kParallel cannot be timed via MaximaRange; it is never chosen at
    // smoke sizes (below parallel_threshold), so this is a real failure.
    std::fprintf(stderr, "planner-check %s: chose %s, not a block kernel\n",
                 family.name, BmoAlgorithmName(plan.algorithm));
    return false;
  }
  // 1.3x of best measured, plus a 50us absolute floor for clock noise on
  // the sub-millisecond families.
  const double bound = std::max(best * 1.3, best + 0.05);
  const bool ok = chosen->ms <= bound;
  std::fprintf(stderr,
               "planner-check %-9s m=%zu chose %-3s %.3fms (best %.3fms, "
               "bound %.3fms, window~%.0f) %s\n",
               family.name, m, BmoAlgorithmName(plan.algorithm), chosen->ms,
               best, bound, plan.stats.est_window, ok ? "OK" : "MISPREDICT");
  return ok;
}

bool RunMispredictionCheck() {
  bool ok = true;
  for (const Family& family : kFamilies) {
    ok = CheckFamily(family, 4096) && ok;
  }
  std::fprintf(stderr, "planner-check: %s\n", ok ? "passed" : "FAILED");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunMispredictionCheck() ? 0 : 1;
}
