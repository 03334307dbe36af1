#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <stdexcept>

namespace tunekit::obs {

void Gauge::add(double delta) {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram bounds must be ascending");
  }
  for (double b : bounds_) {
    if (!std::isfinite(b)) throw std::invalid_argument("Histogram bounds must be finite");
  }
}

void Histogram::observe(double v) {
  if (std::isnan(v)) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void Histogram::observe_with_exemplar(double v, const std::string& trace_hex) {
  observe(v);
  if (std::isnan(v) || trace_hex.empty()) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (exemplars_.empty()) exemplars_.resize(buckets_.size());
  exemplars_[bucket].value = v;
  exemplars_[bucket].trace_hex = trace_hex;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  return buckets_.at(i).load(std::memory_order_relaxed);
}

Histogram::Exemplar Histogram::exemplar(std::size_t i) const {
  std::lock_guard<std::mutex> lock(exemplar_mutex_);
  if (i >= exemplars_.size()) return {};
  return exemplars_[i];
}

double Histogram::quantile(double q) const {
  std::vector<double> counts(buckets_.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(bucket_count(i));
  }
  return bucket_quantile(bounds_, counts, q);
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<double>& counts, double q) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0 || bounds.empty()) return std::numeric_limits<double>::quiet_NaN();

  const double rank = std::clamp(q, 0.0, 1.0) * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = counts[i];
    if (cumulative + in_bucket >= rank && in_bucket > 0.0) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket: clamp
      const double lo = (i == 0) ? 0.0 : bounds[i - 1];
      const double hi = bounds[i];
      const double frac = (rank - cumulative) / in_bucket;
      return lo + frac * (hi - lo);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

std::vector<double> default_time_buckets() {
  return {1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2,
          0.1,  0.25, 0.5,  1.0,  2.5,  5.0,  10.0, 30.0, 60.0, 300.0};
}

Counter& MetricsRegistry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
    if (!help.empty()) help_[name] = help;
  }
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
    if (!help.empty()) help_[name] = help;
  }
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>(bounds.empty() ? default_time_buckets()
                                                      : std::move(bounds));
    if (!help.empty()) help_[name] = help;
  }
  return *slot;
}

std::string MetricsRegistry::help(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = help_.find(name);
  return it == help_.end() ? std::string() : it->second;
}

std::vector<std::pair<std::string, const Counter*>> MetricsRegistry::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> MetricsRegistry::gauges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.get());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> MetricsRegistry::histograms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

}  // namespace tunekit::obs
