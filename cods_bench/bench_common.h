// Shared helpers of the cods_bench driver: the monotonic clock, order
// statistics, process and directory measurements, and the metric record
// a run prints as its last line.

#ifndef CODS_BENCH_BENCH_COMMON_H_
#define CODS_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace cods_bench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock epoch).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}
/// Geometric mean of positive values; 0 for an empty input.
double GeoMean(const std::vector<double>& values);

/// Peak resident set size of this process (getrusage), in MB.
double PeakRssMb();

/// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);

/// Prints `what: status` to stderr and exits with code 2. Every setup
/// failure of the benchmark ends here: a run either measures the real
/// stack end to end or prints no result at all.
[[noreturn]] void Die(const std::string& what, const cods::Status& status);
[[noreturn]] void Die(const std::string& what);

inline void Check(const cods::Status& status, const std::string& what) {
  if (!status.ok()) Die(what, status);
}
template <typename T>
T Take(cods::Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what, result.status());
  return std::move(result).ValueOrDie();
}

/// One named metric of the final report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Informational numbers (printed to stderr as `info <name> <value>
/// <unit>`): the per-class breakdowns the end-to-end metrics summarize.
void Info(const std::string& name, double value, const std::string& unit);

/// Progress: prints `phase <name> <seconds since start>` to stderr.
void Phase(const std::string& name);

/// The last stdout line of a run: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// A number with every significant digit of the double.
std::string FormatNumber(double v);
/// JSON string literal (quotes and escapes).
std::string JsonString(const std::string& s);

}  // namespace cods_bench

#endif  // CODS_BENCH_BENCH_COMMON_H_
