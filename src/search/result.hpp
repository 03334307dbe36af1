#pragma once
// Result type shared by every search driver (random, grid, BO).

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "search/space.hpp"

namespace tunekit::search {

struct SearchResult {
  /// Label set by the driver ("random", "grid", "bo").
  std::string method;

  Config best_config;
  double best_value = std::numeric_limits<double>::infinity();

  /// Objective value of each evaluation in order.
  std::vector<double> values;

  /// Best-so-far after each evaluation (the Figure 6 series).
  std::vector<double> trajectory;

  std::size_t evaluations = 0;
  double seconds = 0.0;

  bool found() const { return evaluations > 0 && best_config.size() > 0; }

  /// Append one evaluation: its value, the incumbent (finite values only)
  /// and the best-so-far trajectory.
  void record(const Config& config, double value) {
    values.push_back(value);
    if (std::isfinite(value) && value < best_value) {
      best_value = value;
      best_config = config;
    }
    trajectory.push_back(best_value);
    evaluations = values.size();
  }
};

}  // namespace tunekit::search
