// prefbench metric helpers: quantiles over samples, the process's peak
// RSS, and the one-line JSON result every run prints last.

#ifndef PREFBENCH_METRICS_H_
#define PREFBENCH_METRICS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace prefbench {

using Clock = std::chrono::steady_clock;

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Quantile q in [0, 1] by linear interpolation between the closest ranks
/// (0 for no samples). A failed request enters latency samples as +inf
/// and sorts last.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMb();

/// Hands freed heap memory back to the kernel.
void TrimHeap();

/// Restarts VmHWM from the current RSS, so PeakRssMb() covers only what
/// runs after this call. Returns false when the kernel refused.
bool ResetPeakRss();

/// Named metrics with units, rendered as the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  std::string Json(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace prefbench

#endif  // PREFBENCH_METRICS_H_
