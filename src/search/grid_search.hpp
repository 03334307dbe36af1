#pragma once
// Exhaustive / budgeted grid search baseline.
//
// Enumerates the full factorial grid (real parameters discretized); when the
// grid exceeds the evaluation budget, evenly_spaced() keeps exactly
// max_evals cells so coverage stays uniform.

#include <cstddef>

#include "search/drive.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::search {

struct GridSearchOptions {
  /// Levels used to discretize Real parameters.
  std::size_t real_levels = 4;
  /// Evaluation budget; 0 means evaluate the whole grid.
  std::size_t max_evals = 0;
};

class GridSearch {
 public:
  explicit GridSearch(GridSearchOptions options = {}) : options_(options) {}

  SearchResult run(Objective& objective, const SearchSpace& space) const;

  /// run()'s cell sequence, ending with nullopt after the last cell.
  Proposer proposer(const SearchSpace& space) const;

 private:
  GridSearchOptions options_;
};

}  // namespace tunekit::search
