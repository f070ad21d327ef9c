#include "metrics.h"

#include <malloc.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace prefbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= values.size() || frac <= 0.0) return values[lo];
  // Written so an infinite upper neighbour yields +inf, not NaN.
  return values[lo] * (1.0 - frac) + values[lo + 1] * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

void TrimHeap() { malloc_trim(0); }

bool ResetPeakRss() {
  // "5" resets the peak RSS (proc(5), /proc/pid/clear_refs).
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Report::Json(bool correct, uint64_t attempted,
                         uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    // JSON has no infinity: a latency percentile that reached a failed
    // request prints as the largest double (the run is already marked
    // failed).
    double v = entries_[i].value;
    if (std::isinf(v)) v = v > 0 ? DBL_MAX : -DBL_MAX;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace prefbench
