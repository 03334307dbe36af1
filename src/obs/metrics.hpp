#pragma once
// Lock-cheap metrics registry: counters, gauges, and fixed-bucket histograms.
//
// Design goals, in order:
//   1. Observation is wait-free: counters and gauges are single relaxed
//      atomics, histogram observe() is one binary search plus two relaxed
//      atomic adds (the sum uses a CAS loop, uncontended in practice).
//   2. References returned by the registry are stable for its lifetime, so
//      hot paths resolve a metric by name once and then only touch atomics.
//   3. Export (Prometheus text, JSON snapshot) tolerates concurrent
//      observation — readers may see a histogram whose bucket counts are a
//      line behind its total count, which is the usual Prometheus contract.
//
// Registration (counter()/gauge()/histogram()) takes a mutex and is expected
// at setup time, not per evaluation.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tunekit::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `bounds` are ascending upper bounds; values above
/// the last bound land in an implicit +inf overflow bucket, so there are
/// bounds.size() + 1 buckets in total.
class Histogram {
 public:
  /// One sampled observation kept per bucket for the OpenMetrics exemplar
  /// syntax: the latest value that landed in the bucket plus the trace it
  /// belonged to (32 hex chars; empty = no exemplar recorded).
  struct Exemplar {
    double value = 0.0;
    std::string trace_hex;
  };

  explicit Histogram(std::vector<double> bounds);

  void observe(double v);
  /// observe() plus exemplar capture. Taking a short mutex, this is meant
  /// for per-request latency observations, not per-iteration hot loops.
  void observe_with_exemplar(double v, const std::string& trace_hex);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the +inf overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const;
  /// Exemplar for bucket i (empty trace_hex when none was recorded).
  Exemplar exemplar(std::size_t i) const;

  /// Estimated q-quantile: bucket_quantile() over this histogram's buckets.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  mutable std::mutex exemplar_mutex_;
  std::vector<Exemplar> exemplars_;  ///< lazily sized on first capture
};

/// Estimated q-quantile (q clamped to [0,1]) of a fixed-bucket histogram by
/// linear interpolation inside the non-empty bucket holding the target rank —
/// the histogram_quantile() convention. The first bucket interpolates from 0;
/// ranks in the overflow bucket clamp to the last finite bound. `counts` are
/// per bucket, not cumulative: bounds.size() + 1 of them, the last one the
/// overflow bucket. Returns NaN for an empty histogram. Histogram::quantile
/// and `tunekit_cli top` (over scraped /metrics buckets) both use this rule.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<double>& counts, double q);

/// Bucket bounds suited to latencies from microseconds to minutes.
std::vector<double> default_time_buckets();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime. `help` is kept from the first registration.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  /// `bounds` is used only when the histogram does not exist yet; empty means
  /// default_time_buckets().
  Histogram& histogram(const std::string& name, std::vector<double> bounds = {},
                       const std::string& help = "");

  std::string help(const std::string& name) const;

  /// Stable-name snapshots for exporters (pointers stay valid, values live).
  std::vector<std::pair<std::string, const Counter*>> counters() const;
  std::vector<std::pair<std::string, const Gauge*>> gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> histograms() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::string> help_;
};

}  // namespace tunekit::obs
