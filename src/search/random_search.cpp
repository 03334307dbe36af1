#include "search/random_search.hpp"

#include "search/drive.hpp"

namespace tunekit::search {

SearchResult RandomSearch::run(Objective& objective, const SearchSpace& space) const {
  auto propose = [&space, rng = tunekit::Rng(options_.seed)](
                     const std::vector<Evaluation>&) mutable -> std::optional<Config> {
    return space.sample_valid(rng);
  };
  return drive(objective, propose, options_.max_evals, {}, nullptr, "random");
}

}  // namespace tunekit::search
