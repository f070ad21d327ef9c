// Planner benchmark + misprediction gate.
//
// Families (tracked by the CI perf gate at n=4096, see bench/compare.py):
//   BM_planner_anchor_scalar      forced scalar-kernel BNL (the per-file
//                                 anchor that cancels machine speed)
//   BM_planner_chosen_<family>    end-to-end kAuto execution (compile +
//                                 the adaptive BNL -> SFS pass) per
//                                 workload regime
//
// After the benchmarks run, main() executes the misprediction check. On
// every family below, ScoreTable::Maxima under kAuto — BNL that hands
// over to SFS once its window is wide (exec/score_table.h) — is
// wall-clocked against forced BNL and forced SFS on the same compiled
// table (median of 5 interleaved rounds), and kAuto must land within
// 1.3x of the better forced kernel (plus 50us for clock noise). Families:
//   - the four chosen families at 4096 rows (seed 42);
//   - anti-correlated and independent d=6 at 4096 rows and d=4 at 100k
//     rows, seeds 42 and 7 (d=6 at 100k stays out: forced BNL takes
//     1.6-1.9 s per repetition there);
//   - anti-correlated d=3 at 100k rows;
//   - the generated car table under the serving mix's 3-d Pareto term,
//     whole and under `price <` 12000, 20000 and 26000 (the serving
//     seed, 42 and 7), at 100k rows and at 20k (the ingest workload's
//     table size), and its LOWEST(price) chain.
// The check prints one line per family: the three times and where kAuto
// switched from BNL to SFS.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
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

// --- end-to-end kAuto per workload regime: the adaptive pass's cost is
// what the gate tracks; a switch rule that starts misfiring shows up as
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

// Median wall time of each algorithm over 5 rounds; a round runs every
// algorithm once, so a burst of load on a shared host lands on all of
// them instead of on one algorithm's repetitions.
std::vector<double> MedianMs(const ScoreTable& table,
                             const std::vector<BmoAlgorithm>& algos,
                             MaximaRun* run) {
  constexpr int kRounds = 5;
  std::vector<std::vector<double>> samples(algos.size());
  for (int round = 0; round < kRounds; ++round) {
    for (size_t a = 0; a < algos.size(); ++a) {
      auto t0 = std::chrono::steady_clock::now();
      std::vector<bool> maximal = table.Maxima(algos[a], {}, run);
      benchmark::DoNotOptimize(maximal);
      auto t1 = std::chrono::steady_clock::now();
      samples[a].push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  std::vector<double> medians;
  for (std::vector<double>& s : samples) {
    std::sort(s.begin(), s.end());
    medians.push_back(s[kRounds / 2]);
  }
  return medians;
}

bool CheckFamily(const std::string& name, const Relation& r,
                 const PrefPtr& p, const std::vector<size_t>* pool = nullptr) {
  auto table = ScoreTable::Compile(p, r, pool);
  if (!table || !table->HasSortKeys()) {
    std::fprintf(stderr, "planner-check %s: no compiled table with sort keys\n",
                 name.c_str());
    return false;
  }
  // kAuto runs last in each round, so `run` is its report.
  MaximaRun run;
  const std::vector<double> ms =
      MedianMs(*table,
               {BmoAlgorithm::kBlockNestedLoop, BmoAlgorithm::kSortFilter,
                BmoAlgorithm::kAuto},
               &run);
  const double bnl = ms[0];
  const double sfs = ms[1];
  const double chosen = ms[2];
  const double best = std::min(bnl, sfs);
  // 1.3x of best measured, plus a 50us absolute floor for clock noise on
  // the sub-millisecond families.
  const double bound = std::max(best * 1.3, best + 0.05);
  const bool ok = chosen <= bound;
  const std::string switched =
      run.switched() ? "at row " + std::to_string(run.switch_row)
                     : std::string("none");
  std::fprintf(stderr,
               "planner-check %-30s m=%-6zu auto %8.3fms bnl %8.3fms "
               "sfs %8.3fms (bound %8.3fms) switch %-12s final %-5zu %s\n",
               name.c_str(), table->rows(), chosen, bnl, sfs, bound,
               switched.c_str(), run.maxima, ok ? "OK" : "MISPREDICT");
  return ok;
}

bool RunMispredictionCheck() {
  bool ok = true;
  for (const Family& family : kFamilies) {
    ok = CheckFamily(std::string(family.name) + "/4096",
                     GenerateVectors(4096, family.d, family.corr, 42),
                     SkylinePref(family.d)) &&
         ok;
  }
  // Serving scale: the row count of the serving benchmark's tables.
  constexpr size_t kServingRows = 100000;
  for (uint64_t seed : {42, 7}) {
    for (const auto& [rows, d] :
         {std::pair<size_t, size_t>{4096, 6}, {kServingRows, 4}}) {
      for (const auto& [corr, corr_name] :
           {std::pair<Correlation, const char*>{Correlation::kAntiCorrelated,
                                                "anti"},
            {Correlation::kIndependent, "indep"}}) {
        ok = CheckFamily(std::string(corr_name) + "_d" + std::to_string(d) +
                             "/" + std::to_string(rows) + "/s" +
                             std::to_string(seed),
                         GenerateVectors(rows, d, corr, seed),
                         SkylinePref(d)) &&
             ok;
      }
    }
  }
  ok = CheckFamily("anti_d3/100000",
                   GenerateVectors(kServingRows, 3,
                                   Correlation::kAntiCorrelated, 42),
                   SkylinePref(3)) &&
       ok;
  // The car table: the serving benchmark's generator seed, then 42 and 7.
  const PrefPtr pareto3 = Pareto(Pareto(Lowest("price"), Lowest("mileage")),
                                 Highest("horsepower"));
  for (uint64_t seed : {uint64_t{20020820}, uint64_t{42}, uint64_t{7}}) {
    for (size_t rows : {kServingRows, size_t{20000}}) {
      const Relation cars = GenerateCars(rows, seed);
      const size_t price = *cars.schema().IndexOf("price");
      for (int cap : {0, 12000, 20000, 26000}) {
        std::vector<size_t> pool;
        for (size_t i = 0; i < cars.size(); ++i) {
          if (cap == 0 || *cars.ValueAt(i, price).numeric() < cap) {
            pool.push_back(i);
          }
        }
        ok = CheckFamily("car_pareto_d3" +
                             (cap == 0 ? std::string()
                                       : "_price<" + std::to_string(cap)) +
                             "/" + std::to_string(rows) + "/s" +
                             std::to_string(seed),
                         cars, pareto3, &pool) &&
             ok;
      }
    }
  }
  ok = CheckFamily("car_lowest/100000",
                   GenerateCars(kServingRows, 20020820), Lowest("price")) &&
       ok;
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
