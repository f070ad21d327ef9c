// prefbench's measured run: set up the served engine several times, warm
// it, check its answers against a reference engine, then drive one window
// of load over real TCP and record every request.

#ifndef PREFBENCH_DRIVER_H_
#define PREFBENCH_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "inputs.h"
#include "metrics.h"
#include "server/server.h"

namespace prefbench {

/// Readers a workload runs here: its own count, capped at the host's
/// hardware threads.
size_t Readers(const Workload& workload);

/// Session options every served connection starts with; the reference
/// and the traced replay execute with the same ones.
prefdb::BmoOptions ServedBmo();

/// Whether request `i` of a reader runs its prepared handle instead of
/// sending text (Workload::prepared_half). Over any two consecutive
/// passes of the statement list, every statement goes once as text and
/// once by handle.
bool RunsHandle(const Workload& workload, size_t i, size_t statements);

/// Warm-up requests each reader sends.
size_t WarmupPerReader(const Workload& workload, const Inputs& inputs,
                       size_t readers);

/// When mutation `m` is due in a window that starts at `start`.
Clock::time_point DueAt(Clock::time_point start, const Mutation& m);

/// Registers the workload's tables on `engine` (the trip table only when
/// the workload has one); returns the RegisterTable time in ms.
double RegisterTables(const Inputs& inputs, prefdb::Engine* engine);
/// Engine::Stats on every registered table; returns the time in ms.
double DeriveStats(prefdb::Engine* engine);

/// One read of the measured window.
struct ReadSample {
  double latency_ms = 0;  // +inf when the request failed
  uint32_t statement = 0;
};

struct TcpRun {
  /// Every mismatch, failed request or broken invariant, in words.
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One entry per set-up.
  std::vector<double> setup_s;
  std::vector<double> register_ms;
  std::vector<double> derive_ms;
  /// From the window's start to its last completed read.
  double window_s = 0;
  /// VmHWM in MiB over the window alone.
  double peak_rss_mb = 0;
  /// Window reads that completed and passed their row-count check.
  uint64_t reads_ok = 0;
  /// Latency samples of the window's reads: every read, or an even
  /// subsample of a fixed number per reader when there are more.
  std::vector<ReadSample> reads;
  /// Window requests each reader sent, in reader order.
  std::vector<size_t> sent_per_reader;
  /// Writer mutations sent in the window.
  size_t mutations = 0;
  std::vector<double> write_ms;
  std::vector<double> writer_late_ms;
  std::vector<double> delta_lag_ms;
  prefdb::Engine::CacheStats cache_before;
  prefdb::Engine::CacheStats cache_after;
  prefdb::server::ServerStats server_before;
  prefdb::server::ServerStats server_after;
};

/// Computes the reference answers the warm-up needs, runs several set-ups
/// (the last one feeds the window), then runs one `duration_s` window and
/// checks it.
TcpRun RunTcp(const Workload& workload, const Inputs& inputs,
              double duration_s);

}  // namespace prefbench

#endif  // PREFBENCH_DRIVER_H_
