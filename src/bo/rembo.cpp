#include "bo/rembo.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "common/stopwatch.hpp"

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
  Stopwatch watch;
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

  search::SearchResult result;
  result.method = "rembo";

  linalg::Matrix ys(0, 0);
  std::vector<std::vector<double>> y_points;
  std::vector<double> values;

  auto evaluate_y = [&](const std::vector<double>& y) {
    const auto unit = project(embedding, y);
    search::Config config = space.decode_unit(unit);
    if (!space.is_valid(config)) {
      if (space.has_repair()) config = space.repair(std::move(config));
      if (!space.is_valid(config)) return false;  // infeasible projection
    }
    const double v = objective.evaluate(config);
    y_points.push_back(y);
    values.push_back(v);
    result.record(config, v);
    return true;
  };

  // Initial design in the embedded box.
  std::size_t guard = 0;
  while (values.size() < std::min(options_.n_init, options_.max_evals) &&
         guard++ < 100 * options_.n_init) {
    std::vector<double> y(d);
    for (auto& v : y) v = rng.uniform(-box, box);
    evaluate_y(y);
  }
  if (values.empty()) {
    throw std::runtime_error("rembo: no feasible projection found in the initial design");
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

  GaussianProcess gp(options_.kernel);
  std::size_t iteration = 0;
  while (values.size() < options_.max_evals && guard++ < 100 * options_.max_evals) {
    linalg::Matrix x(y_points.size(), d);
    std::size_t best_idx = 0;
    for (std::size_t r = 0; r < y_points.size(); ++r) {
      const auto u = y_to_unit(y_points[r]);
      for (std::size_t k = 0; k < d; ++k) x(r, k) = u[k];
      if (values[r] < values[best_idx]) best_idx = r;
    }

    try {
      if (options_.hyperopt_every > 0 && iteration % options_.hyperopt_every == 0) {
        gp.set_hyperparams(GpHyperparams::isotropic(d));
        gp.fit_with_hyperopt(std::move(x), values, rng, options_.hyperopt_restarts,
                             options_.hyperopt_max_iters);
      } else {
        gp.fit(std::move(x), values);
      }
    } catch (const std::exception& e) {
      log_warn("rembo: surrogate failed (", e.what(), "); random step");
      std::vector<double> y(d);
      for (auto& v : y) v = rng.uniform(-box, box);
      evaluate_y(y);
      ++iteration;
      continue;
    }

    const auto proposal_unit = maximize_acquisition(
        gp, options_.acquisition, options_.acq_params, values[best_idx],
        y_to_unit(y_points[best_idx]), rng, options_.maximizer, nullptr);
    if (!evaluate_y(unit_to_y(proposal_unit))) {
      // Infeasible projection: fall back to a random embedded point.
      std::vector<double> y(d);
      for (auto& v : y) v = rng.uniform(-box, box);
      evaluate_y(y);
    }
    ++iteration;
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace tunekit::bo
