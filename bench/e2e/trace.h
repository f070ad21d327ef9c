// prefbench's traced run: replays a TCP run's request streams in-process
// through the public entry points the server itself calls, optionally
// recording a span around each call, and turns spans and engine counters
// into the per-layer metrics.

#ifndef PREFBENCH_TRACE_H_
#define PREFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "driver.h"
#include "inputs.h"
#include "metrics.h"
#include "psql/executor.h"

namespace prefbench {

/// One timed interval. `parent` indexes the same thread's spans (-1 for a
/// root); `derived` marks an interval placed from a QueryStats phase
/// counter instead of timed around a call.
struct Span {
  const char* name;
  uint64_t request;
  int64_t parent;
  int64_t start_ns;
  int64_t end_ns;
  bool derived;
};

/// One thread's spans, kept in memory until the run ends. Disabled logs
/// record nothing, so the same replay code runs with spans on and off.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}
  /// Opens a span under the innermost open one; returns its index.
  int64_t Open(const char* name, uint64_t request);
  void Close(int64_t index);
  /// Adds a span timed by the caller, under the innermost open one.
  void Record(const char* name, uint64_t request, Clock::time_point start,
              Clock::time_point end);
  /// Adds a derived child of span `parent`.
  void AddDerived(const char* name, int64_t parent, int64_t start_ns,
                  int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// One replayed read.
struct ReplayRead {
  uint32_t statement = 0;
  double latency_ms = 0;
  bool handle = false;
  /// TOP k / RANKED: execute_ns is the ranked sort, not a BMO kernel.
  bool ranked = false;
  prefdb::psql::QueryStats stats;
  size_t result_bytes = 0;
  double encode_ms = 0;
  double decode_ms = 0;
};

struct Replay {
  /// Slowest reader, from the replay's start to its last request.
  double reader_wall_s = 0;
  std::vector<ReplayRead> reads;
  std::vector<double> prepare_us;
  std::vector<double> insert_ms;
  std::vector<double> delete_ms;
  std::vector<double> apply_us;
  /// Summed over the in-process subscriptions.
  uint64_t ivm_enters = 0;
  uint64_t ivm_exits = 0;
  uint64_t ivm_reseeds = 0;
  uint64_t coalesced_resyncs = 0;
  /// One span log per thread.
  std::vector<SpanLog> logs;
  std::vector<std::string> errors;
};

/// Re-issues what `tcp` sent — the same warm-up, the same window requests
/// per reader and the same mutations on the same schedule — against a
/// fresh in-process engine, with the same number of threads. With
/// `spans`, window reads record spans for at most 8192 requests per
/// reader, evenly spaced.
Replay RunReplay(const Workload& workload, const Inputs& inputs,
                 const TcpRun& tcp, bool spans);

/// Writes every span as one JSON object per line, with its self time.
void WriteSpans(const Replay& replay, const std::string& path);

/// The per-layer metrics: counters from the TCP window, spans and phase
/// counters from the traced replay, and the difference between the
/// replays with spans off and on. Also runs one untimed EXPLAIN per
/// template on a throwaway engine for exec.zero_copy_frac.
void AddLayerMetrics(const Inputs& inputs, const TcpRun& tcp,
                     const Replay& off, const Replay& on, Report* report);

}  // namespace prefbench

#endif  // PREFBENCH_TRACE_H_
