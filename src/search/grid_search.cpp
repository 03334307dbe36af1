#include "search/grid_search.hpp"

#include <limits>

#include "search/samplers.hpp"

namespace tunekit::search {

SearchResult GridSearch::run(Objective& objective, const SearchSpace& space) const {
  // No budget here: the proposer ends the search after the last cell.
  return drive(objective, proposer(space), std::numeric_limits<std::size_t>::max(), {},
               nullptr, "grid");
}

Proposer GridSearch::proposer(const SearchSpace& space) const {
  return [cells = evenly_spaced(grid_configs(space, options_.real_levels),
                                options_.max_evals)](
             const std::vector<Evaluation>& evals) -> std::optional<Config> {
    if (evals.size() >= cells.size()) return std::nullopt;
    return cells[evals.size()];
  };
}

}  // namespace tunekit::search
