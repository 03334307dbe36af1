#include "search/grid_search.hpp"

#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "search/samplers.hpp"

namespace tunekit::search {

SearchResult GridSearch::run(Objective& objective, const SearchSpace& space) const {
  Stopwatch watch;
  SearchResult result;
  result.method = "grid";

  const auto grid = grid_configs(space, options_.real_levels, options_.max_grid_points);

  std::size_t stride = 1;
  if (options_.max_evals > 0 && grid.size() > options_.max_evals) {
    stride = (grid.size() + options_.max_evals - 1) / options_.max_evals;
  }

  for (std::size_t i = 0; i < grid.size(); i += stride) {
    double v = std::numeric_limits<double>::quiet_NaN();
    try {
      v = objective.evaluate(grid[i]);
    } catch (const std::exception& e) {
      // One crashing cell must not abort the whole enumeration.
      log_warn("grid: evaluation failed (", e.what(), "); recording as failure");
    } catch (...) {
      log_warn("grid: evaluation threw a non-standard exception; recording as failure");
    }
    result.record(grid[i], v);
  }
  result.seconds = watch.seconds();
  return result;
}

}  // namespace tunekit::search
