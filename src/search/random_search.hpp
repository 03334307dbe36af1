#pragma once
// Random Search baseline (Table III's first column pair).
//
// Uniform valid configurations, drawn and evaluated one at a time through
// search::drive. Random Search's "inherent parallelizability", which the
// paper contrasts with BO's sequentiality, is the session Random backend
// under service::EvalScheduler.

#include <cstddef>

#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::search {

struct RandomSearchOptions {
  std::size_t max_evals = 100;
  std::uint64_t seed = 1;
};

class RandomSearch {
 public:
  explicit RandomSearch(RandomSearchOptions options = {}) : options_(options) {}

  SearchResult run(Objective& objective, const SearchSpace& space) const;

 private:
  RandomSearchOptions options_;
};

}  // namespace tunekit::search
