// prefbench: prefdb's end-to-end serving benchmark. One process runs one
// workload: it hosts server::Server on loopback, drives it over TCP with
// server::Client, checks every answer it can against a single-threaded
// reference engine, and prints one JSON result line last. See README.md.
//
//   prefbench --workload NAME --seed N --duration SECONDS --inputs DIR
//             [--trace SPANS.jsonl]
//
// Without --trace the result carries the end-to-end metrics, set-up time
// and peak RSS. With it, the same TCP run is followed by two in-process
// replays of its request streams (spans off, then on); the spans go to the
// file and the result carries the per-layer metrics instead, which include
// the TCP window's throughput and read latencies. Exit status is nonzero
// when any check fails or any request fails.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "driver.h"
#include "inputs.h"
#include "metrics.h"
#include "trace.h"

namespace {

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --duration SECONDS "
               "--inputs DIR [--trace SPANS.jsonl]\nworkloads: %s\n",
               argv0, prefbench::WorkloadNames().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string inputs_dir;
  std::string trace_path;
  uint64_t seed = 0;
  double duration_s = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--duration") {
      duration_s = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--inputs") {
      inputs_dir = value;
    } else if (arg == "--trace") {
      trace_path = value;
    } else {
      Usage(argv[0]);
    }
  }
  const prefbench::Workload* workload = prefbench::FindWorkload(workload_name);
  if (workload == nullptr || inputs_dir.empty() || !(duration_s > 0)) {
    Usage(argv[0]);
  }

  try {
    prefbench::Inputs inputs =
        prefbench::MakeInputs(*workload, inputs_dir, seed, duration_s);
    prefbench::TcpRun tcp =
        prefbench::RunTcp(*workload, inputs, duration_s);
    std::vector<std::string> errors = tcp.errors;
    prefbench::Report report;
    if (trace_path.empty()) {
      report.Add("setup_s", prefbench::Median(tcp.setup_s), "s");
      report.Add("peak_rss_mb", tcp.peak_rss_mb, "MiB");
    } else {
      prefbench::Replay off =
          prefbench::RunReplay(*workload, inputs, tcp, /*spans=*/false);
      prefbench::Replay on =
          prefbench::RunReplay(*workload, inputs, tcp, /*spans=*/true);
      prefbench::WriteSpans(on, trace_path);
      prefbench::AddLayerMetrics(inputs, tcp, off, on, &report);
      errors.insert(errors.end(), off.errors.begin(), off.errors.end());
      errors.insert(errors.end(), on.errors.begin(), on.errors.end());
    }
    for (const std::string& e : errors) {
      std::fprintf(stderr, "prefbench: FAIL %s\n", e.c_str());
    }
    std::string setups;
    for (double s : tcp.setup_s) setups += " " + std::to_string(s);
    std::fprintf(stderr,
                 "prefbench: %s seed %llu: %llu reads (%zu latency "
                 "samples), %zu mutations in %.2fs window; set-ups (s):%s\n",
                 workload->name, static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(tcp.attempted -
                                                 tcp.mutations),
                 tcp.reads.size(), tcp.mutations, tcp.window_s,
                 setups.c_str());
    const bool correct = errors.empty();
    std::printf("%s\n",
                report.Json(correct, tcp.attempted, tcp.failed).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prefbench: %s\n", e.what());
    return 1;
  }
}
