#include "bo/rembo.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "search/drive.hpp"

namespace tunekit::bo {

std::vector<double> Rembo::project(const linalg::Matrix& embedding,
                                   const std::vector<double>& y) {
  // x_unit = clip(0.5 + A y, [0, 1]) — the embedding acts around the cube
  // center so y = 0 maps to the center configuration.
  std::vector<double> x = embedding.mul(y);
  for (double& v : x) v = std::clamp(0.5 + v, 0.0, 1.0);
  return x;
}

search::SearchResult Rembo::run(search::Objective& objective,
                                const search::SearchSpace& space) const {
  tunekit::Rng rng(options_.seed);
  const std::size_t total_dims = space.size();
  const std::size_t d = std::min(options_.embedding_dims, total_dims);
  const double box = std::sqrt(static_cast<double>(d));

  // Gaussian random embedding, scaled so typical |A y| spans the cube.
  linalg::Matrix embedding(total_dims, d);
  for (std::size_t i = 0; i < total_dims; ++i) {
    for (std::size_t k = 0; k < d; ++k) {
      embedding(i, k) = rng.normal() / (2.0 * box);
    }
  }

  // Unit-scale the embedded box for the GP.
  auto y_to_unit = [&](const std::vector<double>& y) {
    std::vector<double> u(d);
    for (std::size_t k = 0; k < d; ++k) u[k] = (y[k] + box) / (2.0 * box);
    return u;
  };
  auto unit_to_y = [&](const std::vector<double>& u) {
    std::vector<double> y(d);
    for (std::size_t k = 0; k < d; ++k) y[k] = u[k] * 2.0 * box - box;
    return y;
  };

  // `ys[i]` is the embedded point evaluation i came from. `guard` caps the
  // draws spent on infeasible projections, across both phases.
  const std::size_t n_design = std::min(options_.n_init, options_.max_evals);
  auto propose = [&, gp = GaussianProcess(options_.kernel),
                  ys = std::vector<std::vector<double>>(), designing = true,
                  guard = std::size_t{0}, iteration = std::size_t{0}](
                     const std::vector<search::Evaluation>& evals) mutable
      -> std::optional<search::Config> {
    auto random_y = [&] {
      std::vector<double> y(d);
      for (auto& v : y) v = rng.uniform(-box, box);
      return y;
    };
    // The configuration `y` projects to, archived; nullopt when infeasible.
    auto accept = [&](std::vector<double> y) -> std::optional<search::Config> {
      search::Config config = space.decode_unit(project(embedding, y));
      if (!space.is_valid(config)) {
        if (space.has_repair()) config = space.repair(std::move(config));
        if (!space.is_valid(config)) return std::nullopt;  // infeasible projection
      }
      ys.push_back(std::move(y));
      return config;
    };

    // Initial design in the embedded box.
    if (designing) {
      while (evals.size() < n_design && guard++ < 100 * options_.n_init) {
        if (auto config = accept(random_y())) return config;
      }
      designing = false;
      if (evals.empty()) {
        throw std::runtime_error("rembo: no feasible projection found in the initial design");
      }
    }

    while (guard++ < 100 * options_.max_evals) {
      // Finite observations only; the incumbent is the first best.
      std::vector<std::size_t> rows;
      for (std::size_t r = 0; r < evals.size(); ++r) {
        if (std::isfinite(evals[r].value)) rows.push_back(r);
      }
      linalg::Matrix x(rows.size(), d);
      std::vector<double> values(rows.size());
      std::size_t best = rows.empty() ? 0 : rows[0];
      for (std::size_t r = 0; r < rows.size(); ++r) {
        const auto u = y_to_unit(ys[rows[r]]);
        for (std::size_t k = 0; k < d; ++k) x(r, k) = u[k];
        values[r] = evals[rows[r]].value;
        if (values[r] < evals[best].value) best = rows[r];
      }
      const bool hyperopt = on_cadence(iteration, options_.hyperopt_every);
      if (hyperopt) gp.set_hyperparams(GpHyperparams::isotropic(d));
      if (rows.empty() || !try_fit(gp, std::move(x), values, hyperopt, rng,
                                   options_.hyperopt_restarts, options_.hyperopt_max_iters,
                                   "rembo")) {
        if (auto config = accept(random_y())) return config;
        continue;
      }

      const auto proposal_unit = maximize_acquisition(
          gp, options_.acquisition, options_.acq_params, evals[best].value,
          y_to_unit(ys[best]), rng, options_.maximizer, nullptr);
      if (auto config = accept(unit_to_y(proposal_unit))) return config;
      // Infeasible projection: fall back to a random embedded point.
      if (auto config = accept(random_y())) return config;
    }
    return std::nullopt;
  };
  return search::drive(objective, propose, options_.max_evals, {}, nullptr, "rembo");
}

}  // namespace tunekit::bo
