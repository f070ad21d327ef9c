// Incremental view maintenance vs copy-on-write recompute: the perf
// claim behind src/ivm/ is that keeping a BMO result current under
// mutations via the maintained antichain (witness bookkeeping + batch
// kernels over antichain-sized blocks) beats the evict-and-recompute
// strategy by a wide margin. This driver measures both strategies over
// one deterministic mutation trace and writes Google-Benchmark-shaped
// JSON for the CI perf gate (bench/compare.py vs
// bench/baselines/BENCH_ivm.json):
//
//   ivm_cold_anchor          one full BMO pass over the N-row table,
//                            min over passes — the machine-speed
//                            normalizer every family is anchored on
//   ivm_cow_refresh          per-mutation full recompute (median):
//                            the pre-ivm strategy of invalidating the
//                            cached result and re-running the kernel
//   ivm_cow_mutate           per-mutation snapshot cost alone (median):
//                            applying the trace to shared-buffer
//                            relations — Add clones only the touched
//                            columns (per-column COW), deletes build
//                            index views — isolating storage-layer cost
//                            from the kernel recompute
//   ivm_delta_maintain       per-mutation MaintainedView::ApplyInsert /
//                            ApplyDelete (median) over the same trace
//   ivm_subscribed_query     Engine::Execute against a subscribed table
//                            right after an insert (median) — served
//                            from the delta-refreshed exec cache entry
//
// Acceptance gate (runs in-driver, exits nonzero on failure): at
// --rows >= 100000 the delta strategy must beat COW recompute by at
// least 5x on the per-mutation median.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "prefdb.h"

namespace {

using namespace prefdb;  // NOLINT(google-build-using-namespace): benchmark driver, brevity wins
using Clock = std::chrono::steady_clock;

struct DriverOptions {
  size_t rows = 100000;
  size_t mutations = 200;
  size_t repeat = 3;
  uint64_t seed = 42;
  std::string out;  // JSON path, empty = stdout summary only
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--rows N] [--mutations M] [--repeat R]\n"
               "          [--seed S] [--out BENCH_ivm.json]\n",
               argv0);
  std::exit(2);
}

DriverOptions ParseArgs(int argc, char** argv) {
  DriverOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--rows") {
      opt.rows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--mutations") {
      opt.mutations = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--repeat") {
      opt.repeat = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      opt.out = next();
    } else {
      Usage(argv[0]);
    }
  }
  if (opt.rows == 0 || opt.mutations == 0 || opt.repeat == 0) Usage(argv[0]);
  return opt;
}

// One deterministic mutation trace, replayed identically by every
// strategy. Inserts draw unseen rows from a pre-generated pool; deletes
// hit 1-3 random live rows (indices valid at application time).
struct Mutation {
  bool insert = true;
  Tuple row;                 // insert payload
  std::vector<size_t> dead;  // sorted pre-delete table row indices
};

std::vector<Mutation> BuildTrace(const Relation& pool, size_t seed_rows,
                                 size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Mutation> trace;
  trace.reserve(count);
  size_t live = seed_rows;
  size_t next_pool = 0;
  for (size_t i = 0; i < count; ++i) {
    Mutation m;
    if (next_pool < pool.size() && (rng() % 8 != 0 || live < 16)) {
      m.row = pool.at(next_pool++);
      ++live;
    } else {
      m.insert = false;
      size_t want = 1 + rng() % 3;
      for (size_t k = 0; k < want; ++k) m.dead.push_back(rng() % live);
      std::sort(m.dead.begin(), m.dead.end());
      m.dead.erase(std::unique(m.dead.begin(), m.dead.end()), m.dead.end());
      live -= m.dead.size();
    }
    trace.push_back(std::move(m));
  }
  return trace;
}

Relation ApplyToTable(const Relation& table, const Mutation& m) {
  if (m.insert) {
    Relation next = table;
    next.Add(m.row);
    return next;
  }
  std::vector<size_t> survivors;
  survivors.reserve(table.size() - m.dead.size());
  for (size_t i = 0; i < table.size(); ++i) {
    if (!std::binary_search(m.dead.begin(), m.dead.end(), i)) {
      survivors.push_back(i);
    }
  }
  return table.SelectRows(survivors);
}

double MedianNs(std::vector<double>* samples) {
  std::sort(samples->begin(), samples->end());
  return samples->empty() ? 0.0 : (*samples)[samples->size() / 2];
}

struct Family {
  std::string name;
  double real_time_ns = 0.0;
};

void WriteJson(const DriverOptions& opt, const std::vector<Family>& families) {
  std::ofstream out(opt.out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    std::exit(1);
  }
  out << "{\n  \"context\": {\n"
      << "    \"executable\": \"bench_ivm\",\n"
      << "    \"rows\": " << opt.rows << ",\n"
      << "    \"mutations\": " << opt.mutations << "\n"
      << "  },\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < families.size(); ++i) {
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "    {\"name\": \"%s\", \"run_name\": \"%s\", "
                  "\"run_type\": \"iteration\", \"real_time\": %.1f, "
                  "\"cpu_time\": 0.0, \"time_unit\": \"ns\"}%s\n",
                  families[i].name.c_str(), families[i].name.c_str(),
                  families[i].real_time_ns,
                  i + 1 < families.size() ? "," : "");
    out << entry;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  DriverOptions opt = ParseArgs(argc, argv);
  const PrefPtr term = Pareto(Lowest("price"), Lowest("mileage"));
  const BmoOptions bmo;  // defaults: kAuto, compiled kernels — the serving config

  const Relation seed_table = GenerateCars(opt.rows, opt.seed);
  const Relation pool = GenerateCars(opt.mutations, opt.seed + 1);
  const std::vector<Mutation> trace =
      BuildTrace(pool, seed_table.size(), opt.mutations, opt.seed + 2);

  // Anchor: one full BMO pass over the seed table, min over passes
  // (noise only ever adds time, so min is the stable estimator).
  double anchor_ns = 1e18;
  for (size_t r = 0; r < opt.repeat + 1; ++r) {
    Clock::time_point t0 = Clock::now();
    size_t maxima = BmoIndices(seed_table, term, bmo).size();
    double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0)
                    .count();
    if (maxima == 0) {
      std::fprintf(stderr, "empty maxima over datagen cars?\n");
      return 1;
    }
    if (r > 0) anchor_ns = std::min(anchor_ns, ns);  // pass 0 warms up
  }

  // COW strategy: every mutation invalidates the result; refresh cost is
  // a full kernel pass over the post-mutation table.
  double cow_ns = 1e18;
  for (size_t r = 0; r < opt.repeat; ++r) {
    Relation table = seed_table;
    std::vector<double> samples;
    samples.reserve(trace.size());
    for (const Mutation& m : trace) {
      table = ApplyToTable(table, m);
      Clock::time_point t0 = Clock::now();
      volatile size_t keep = BmoIndices(table, term, bmo).size();
      (void)keep;
      samples.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
    }
    cow_ns = std::min(cow_ns, MedianNs(&samples));
  }

  // COW mutation cost alone: the same trace applied to shared-buffer
  // snapshots, no kernel pass. Every strategy pays this storage cost;
  // tracking it separately pins the per-column COW clone (inserts) and
  // the index-view build (deletes) against regressions.
  double cow_mutate_ns = 1e18;
  for (size_t r = 0; r < opt.repeat; ++r) {
    Relation table = seed_table;
    std::vector<double> samples;
    samples.reserve(trace.size());
    for (const Mutation& m : trace) {
      Clock::time_point t0 = Clock::now();
      Relation next = ApplyToTable(table, m);
      samples.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
      table = std::move(next);
    }
    cow_mutate_ns = std::min(cow_mutate_ns, MedianNs(&samples));
  }

  // Delta strategy: the maintained view absorbs the same trace.
  double delta_ns = 1e18;
  for (size_t r = 0; r < opt.repeat; ++r) {
    Relation table = seed_table;
    ivm::MaintainedView view(term, nullptr, table, 1, bmo);
    uint64_t version = 1;
    std::vector<double> samples;
    samples.reserve(trace.size());
    for (const Mutation& m : trace) {
      const size_t insert_at = table.size();
      table = ApplyToTable(table, m);
      Clock::time_point t0 = Clock::now();
      if (m.insert) {
        view.ApplyInsert(m.row, insert_at, ++version);
      } else {
        view.ApplyDelete(m.dead, ++version);
      }
      samples.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
    }
    // Cross-check: the maintained antichain must equal a recompute.
    if (view.antichain_size() != BmoIndices(table, term, bmo).size()) {
      std::fprintf(stderr, "maintained view diverged from recompute\n");
      return 1;
    }
    delta_ns = std::min(delta_ns, MedianNs(&samples));
  }

  // End-to-end serving: subscribed engine, insert then query; Execute is
  // served from the exec-cache entry the delta refresh installed.
  double serve_ns = 1e18;
  {
    const char* kSql =
        "SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)";
    Engine engine;
    engine.RegisterTable("car", seed_table);
    Engine::Subscription sub = engine.Subscribe(kSql);
    std::vector<double> samples;
    for (const Mutation& m : trace) {
      if (!m.insert) continue;
      engine.Insert("car", m.row);
      Clock::time_point t0 = Clock::now();
      volatile size_t keep = engine.Execute(kSql).relation.size();
      (void)keep;
      samples.push_back(
          std::chrono::duration<double, std::nano>(Clock::now() - t0)
              .count());
      while (sub.Poll().has_value()) {}
    }
    serve_ns = MedianNs(&samples);
  }

  std::vector<Family> families = {
      {"ivm_cold_anchor", anchor_ns},
      {"ivm_cow_refresh", cow_ns},
      {"ivm_cow_mutate", cow_mutate_ns},
      {"ivm_delta_maintain", delta_ns},
      {"ivm_subscribed_query", serve_ns},
  };
  std::printf("rows=%zu mutations=%zu\n", opt.rows, opt.mutations);
  for (const Family& f : families) {
    std::printf("  %-22s %12.1f us\n", f.name.c_str(), f.real_time_ns / 1e3);
  }
  if (!opt.out.empty()) WriteJson(opt, families);

  if (opt.rows >= 100000 && cow_ns < 5.0 * delta_ns) {
    std::fprintf(stderr,
                 "FAIL: delta maintenance (%.1f us) is not 5x faster than "
                 "COW recompute (%.1f us) at %zu rows\n",
                 delta_ns / 1e3, cow_ns / 1e3, opt.rows);
    return 1;
  }
  return 0;
}
