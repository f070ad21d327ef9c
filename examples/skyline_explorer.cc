// Skyline explorer: the 'SKYLINE OF' fragment (§6.1) on the classic
// [BKS01] vector workloads — compares the evaluation algorithms, prints
// skyline sizes per correlation, and shows the non-monotonic filter
// behavior of §5.1.
//
//   $ ./build/examples/skyline_explorer [n] [d]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "prefdb.h"

using namespace prefdb;  // NOLINT(google-build-using-namespace): example code, brevity wins

namespace {

double MillisFor(const Relation& r, const PrefPtr& p, BmoAlgorithm algo) {
  auto start = std::chrono::steady_clock::now();
  std::vector<size_t> rows = BmoIndices(r, p, {algo});
  auto stop = std::chrono::steady_clock::now();
  (void)rows;
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  size_t n = argc > 1 ? static_cast<size_t>(std::atoll(argv[1])) : 20000;
  size_t d = argc > 2 ? static_cast<size_t>(std::atoll(argv[2])) : 3;

  std::vector<PrefPtr> dims;
  for (size_t i = 0; i < d; ++i) dims.push_back(Highest("d" + std::to_string(i)));
  PrefPtr skyline = Pareto(dims);
  std::printf("SKYLINE OF d0, ..., d%zu (all HIGHEST) over n=%zu points\n\n",
              d - 1, n);

  std::printf("%-16s %10s %10s %10s\n", "correlation", "skyline",
              "bnl[ms]", "sfs[ms]");
  for (Correlation corr : {Correlation::kCorrelated,
                           Correlation::kIndependent,
                           Correlation::kAntiCorrelated}) {
    Relation r = GenerateVectors(n, d, corr, 123);
    size_t size = ResultSize(r, skyline);
    std::printf("%-16s %10zu %10.1f %10.1f\n", CorrelationName(corr), size,
                MillisFor(r, skyline, BmoAlgorithm::kBlockNestedLoop),
                MillisFor(r, skyline, BmoAlgorithm::kSortFilter));
  }

  // Non-monotonicity demo: grow the relation, watch the skyline shrink.
  std::printf("\nNon-monotonicity (Example 9 at scale): inserting better "
              "points shrinks the answer.\n");
  Relation r = GenerateVectors(n, 2, Correlation::kAntiCorrelated, 5);
  PrefPtr sky2 = Pareto(Highest("d0"), Highest("d1"));
  std::printf("  before: skyline of %zu points = %zu\n", r.size(),
              ResultSize(r, sky2));
  // Insert a utopia point dominating everything.
  r.Add({Value(2.0), Value(2.0)});
  std::printf("  after adding a dominating point: skyline = %zu\n",
              ResultSize(r, sky2));

  // Small better-than graph on a sample, to visualize dominance.
  Relation sample = GenerateVectors(8, 2, Correlation::kAntiCorrelated, 9);
  BetterThanGraph g(sample, sky2);
  std::printf("\nBetter-than graph of an 8-point sample:\n%s",
              g.ToText().c_str());
  std::printf("\nGraphviz (pipe to `dot -Tpng`):\n%s", g.ToDot().c_str());
  return 0;
}
