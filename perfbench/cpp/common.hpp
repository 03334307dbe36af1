#pragma once
// Shared plumbing for the TuneKit benchmark: a monotonic clock, sample sets
// with percentiles, a seed-derived input generator independent of the
// library's own RNG, process accounting (/proc), and the result record every
// workload fills in.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

namespace json = tunekit::json;

/// Steady-clock nanoseconds since an arbitrary process-wide epoch.
std::uint64_t now_ns();
inline double ms_between(std::uint64_t a, std::uint64_t b) {
  return b > a ? static_cast<double>(b - a) / 1e6 : 0.0;
}

/// SplitMix64: the benchmark's input generator. Kept local so a change to
/// the library's Rng never changes what the benchmark feeds the system.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed ^ 0x7e3b5a1c9d2f4e61ull) {}
  std::uint64_t next();
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

/// A growing set of latency (or any) samples. Thread-safe append.
class Samples {
 public:
  void add(double v);
  std::size_t size() const;
  double sum() const;
  /// Linear-interpolated percentile, q in [0, 1]; NaN when empty.
  double quantile(double q) const;
  std::vector<double> values() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> v_;
};

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

/// One named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run produces: the contract's counters, the metrics the
/// requested mode reports, and everything else for the results file.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output checks made / failed (they count as attempted / failed too).
  std::uint64_t checks = 0;
  std::uint64_t checks_failed = 0;
  std::map<std::string, Metric> metrics;
  /// Failed output checks, one line each.
  std::vector<std::string> check_failures;
  /// Free-form details written to the results file (not printed).
  json::Object details;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(bool ok, const std::string& what);
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout: journals, results, traces.
  std::string work_dir;
};

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();
/// write_bytes from /proc/self/io (bytes this process caused to be sent to
/// the storage layer); 0 when unavailable.
std::uint64_t proc_write_bytes();
/// Flush the dirty pages of the filesystem holding `path` (syncfs).
void sync_filesystem(const std::string& path);
/// Filesystem type name of `path` ("ext4", "xfs", "tmpfs", ...) and whether
/// it is memory-backed (tmpfs/ramfs), where fsync costs nothing.
std::string fs_type(const std::string& path, bool* memory_backed);

/// The environment record attached to every result.
json::Value environment(const Options& options);

}  // namespace perfbench
