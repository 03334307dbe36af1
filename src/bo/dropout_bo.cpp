#include "bo/dropout_bo.hpp"

#include <algorithm>
#include <cmath>

#include "search/drive.hpp"
#include "search/samplers.hpp"

namespace tunekit::bo {

search::SearchResult DropoutBo::run(search::Objective& objective,
                                    const search::SearchSpace& space) const {
  const std::size_t total_dims = space.size();
  const std::size_t d = std::min(options_.active_dims, total_dims);

  // `units`/`values` are the finite observations; `seen` counts the
  // evaluations already folded into them.
  auto propose = [&, rng = tunekit::Rng(options_.seed), gp = GaussianProcess(options_.kernel),
                  design = std::vector<search::Config>(),
                  units = std::vector<std::vector<double>>(), values = std::vector<double>(),
                  seen = std::size_t{0}, iteration = std::size_t{0}](
                     const std::vector<search::Evaluation>& evals) mutable
      -> std::optional<search::Config> {
    for (; seen < evals.size(); ++seen) {
      if (!std::isfinite(evals[seen].value)) continue;
      units.push_back(space.encode_unit(evals[seen].config));
      values.push_back(evals[seen].value);
    }
    if (evals.empty()) {
      design = search::sample_valid_configs(
          space, std::min(options_.n_init, options_.max_evals), rng);
    }
    if (evals.size() < design.size()) return design[evals.size()];
    if (values.empty()) return space.sample_valid(rng);  // everything failed so far

    // Pick this iteration's active subspace.
    const auto active = rng.sample_without_replacement(total_dims, d);

    // Training inputs restricted to the active dimensions. The projection
    // makes the model myopic — exactly the weakness the paper points out.
    linalg::Matrix x(units.size(), d);
    for (std::size_t r = 0; r < units.size(); ++r) {
      for (std::size_t k = 0; k < d; ++k) x(r, k) = units[r][active[k]];
    }
    const bool hyperopt = on_cadence(iteration, options_.hyperopt_every);
    if (hyperopt || gp.dim() != d) gp.set_hyperparams(GpHyperparams::isotropic(d));
    if (!try_fit(gp, std::move(x), values, hyperopt, rng, options_.hyperopt_restarts,
                 options_.hyperopt_max_iters, "dropout-bo")) {
      return space.sample_valid(rng);
    }

    // Incumbent's active coordinates seed the local candidates.
    const auto best = static_cast<std::size_t>(
        std::min_element(values.begin(), values.end()) - values.begin());
    const std::vector<double>& best_unit = units[best];
    std::vector<double> incumbent_active(d);
    for (std::size_t k = 0; k < d; ++k) incumbent_active[k] = best_unit[active[k]];

    const auto active_point =
        maximize_acquisition(gp, options_.acquisition, options_.acq_params, values[best],
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
    return proposal;
  };
  return search::drive(objective, propose, options_.max_evals, {}, nullptr, "dropout-bo");
}

}  // namespace tunekit::bo
