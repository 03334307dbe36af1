#include "bo/dropout_bo.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "search/samplers.hpp"

namespace tunekit::bo {

search::SearchResult DropoutBo::run(search::Objective& objective,
                                    const search::SearchSpace& space) const {
  Stopwatch watch;
  tunekit::Rng rng(options_.seed);
  const std::size_t total_dims = space.size();
  const std::size_t d = std::min(options_.active_dims, total_dims);

  search::SearchResult result;
  result.method = "dropout-bo";

  std::vector<search::Config> configs;
  std::vector<std::vector<double>> units;
  std::vector<double> values;

  auto evaluate = [&](const search::Config& config) {
    const double v = objective.evaluate(config);
    configs.push_back(config);
    units.push_back(space.encode_unit(config));
    values.push_back(v);
    result.record(config, v);
  };

  for (const auto& config : search::sample_valid_configs(
           space, std::min(options_.n_init, options_.max_evals), rng)) {
    evaluate(config);
  }

  GaussianProcess gp(options_.kernel);
  std::size_t iteration = 0;
  while (values.size() < options_.max_evals) {
    // Pick this iteration's active subspace.
    const auto active = rng.sample_without_replacement(total_dims, d);

    // Training inputs restricted to the active dimensions. The projection
    // makes the model myopic — exactly the weakness the paper points out.
    linalg::Matrix x(units.size(), d);
    for (std::size_t r = 0; r < units.size(); ++r) {
      for (std::size_t k = 0; k < d; ++k) x(r, k) = units[r][active[k]];
    }

    try {
      if (options_.hyperopt_every > 0 && iteration % options_.hyperopt_every == 0) {
        gp.set_hyperparams(GpHyperparams::isotropic(d));
        gp.fit_with_hyperopt(std::move(x), values, rng, options_.hyperopt_restarts,
                             options_.hyperopt_max_iters);
      } else {
        if (gp.dim() != d) gp.set_hyperparams(GpHyperparams::isotropic(d));
        gp.fit(std::move(x), values);
      }
    } catch (const std::exception& e) {
      log_warn("dropout-bo: surrogate failed (", e.what(), "); random step");
      evaluate(space.sample_valid(rng));
      ++iteration;
      continue;
    }

    // Incumbent's active coordinates seed the local candidates.
    const auto best_unit = space.encode_unit(result.best_config);
    std::vector<double> incumbent_active(d);
    for (std::size_t k = 0; k < d; ++k) incumbent_active[k] = best_unit[active[k]];

    const auto active_point = maximize_acquisition(
        gp, options_.acquisition, options_.acq_params, result.best_value,
        incumbent_active, rng, options_.maximizer, nullptr);

    // Assemble the full proposal: active coords from the acquisition,
    // dropped coords from the incumbent or at random.
    std::vector<double> unit(total_dims);
    for (std::size_t i = 0; i < total_dims; ++i) {
      unit[i] = options_.fill_from_best ? best_unit[i] : rng.uniform();
    }
    for (std::size_t k = 0; k < d; ++k) unit[active[k]] = active_point[k];

    search::Config proposal = space.decode_unit(unit);
    if (!space.is_valid(proposal)) {
      proposal = space.has_repair() ? space.repair(std::move(proposal))
                                    : space.sample_valid(rng);
      if (!space.is_valid(proposal)) proposal = space.sample_valid(rng);
    }
    evaluate(proposal);
    ++iteration;
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace tunekit::bo
