#pragma once
// The three workloads and the traced-run helpers they share.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/json.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace perfbench {

/// The client-side objective of a service session: an 8-dimensional
/// runtime-like function (6 reals, 2 integers) drawn from the seed. Its
/// minimum is 1 and the space default sits at exactly 1 + kDefaultExcess,
/// so objective(default) / objective(best) measures search quality on the
/// same scale for every seed.
class SeededObjective {
 public:
  static constexpr double kDefaultExcess = 3.0;
  explicit SeededObjective(std::uint64_t seed);

  /// The inline-space spec for POST /v1/sessions ({"params": [...]}).
  json::Value space_spec() const;
  /// Objective at a named configuration (as the ask reply carries it).
  double evaluate(const std::map<std::string, double>& named) const;
  static constexpr double default_value() { return 1.0 + kDefaultExcess; }

 private:
  struct Param {
    std::string name;
    bool integer = false;
    double lo = 0.0, hi = 1.0, def = 0.0;
    double center = 0.5;  ///< optimum, unit coordinate
    double weight = 1.0;
  };
  double raw_excess(const std::vector<double>& unit) const;
  std::vector<Param> params_;
  std::vector<std::pair<std::size_t, std::size_t>> pairs_;
  double scale_ = 1.0;
};

void run_service_bo(const Options& options, RunResult& result);
void run_service_journal(const Options& options, RunResult& result);
void run_methodology(const Options& options, RunResult& result);

/// Fixed-archive GP / linear-algebra probe (traced runs): fills the
/// bo.*.nN, bo.predict_us.n200 and linalg.* metrics.
void run_gp_probe(std::uint64_t seed, RunResult& result);

/// Traced-run summary: per-layer self time, the coverage of the given root
/// spans by their child spans (obs.span_coverage), and a Chrome trace of the
/// span tree written to `chrome_path`. `root_prefixes` selects the roots.
/// Every span comes from the program; the benchmark records none itself.
void summarize_trace(const tunekit::obs::Telemetry& telemetry,
                     const std::vector<std::string>& root_prefixes,
                     const std::string& chrome_path, RunResult& result);

}  // namespace perfbench
