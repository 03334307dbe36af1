#include "search/random_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"

namespace tunekit::search {

SearchResult RandomSearch::run(Objective& objective, const SearchSpace& space) const {
  Stopwatch watch;
  SearchResult result;
  result.method = "random";

  tunekit::Rng rng(options_.seed);
  std::vector<Config> configs;
  configs.reserve(options_.max_evals);
  for (std::size_t i = 0; i < options_.max_evals; ++i) {
    configs.push_back(space.sample_valid(rng, options_.max_sample_tries));
  }

  std::vector<double> values(configs.size());
  auto eval_one = [&](std::size_t i) {
    try {
      values[i] = objective.evaluate(configs[i]);
    } catch (const std::exception& e) {
      // A crashing sample is recorded as NaN and skipped by the incumbent
      // scan, instead of aborting the whole (possibly parallel) sweep.
      log_warn("random: evaluation failed (", e.what(), "); recording as failure");
      values[i] = std::numeric_limits<double>::quiet_NaN();
    } catch (...) {
      log_warn("random: evaluation threw a non-standard exception; recording as failure");
      values[i] = std::numeric_limits<double>::quiet_NaN();
    }
  };
  const std::size_t threads =
      objective.thread_safe() ? std::max<std::size_t>(1, options_.n_threads) : 1;
  if (threads > 1) {
    ThreadPool pool(threads);
    pool.parallel_for(configs.size(), eval_one);
  } else {
    for (std::size_t i = 0; i < configs.size(); ++i) eval_one(i);
  }

  for (std::size_t i = 0; i < values.size(); ++i) result.record(configs[i], values[i]);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace tunekit::search
