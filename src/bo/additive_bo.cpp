#include "bo/additive_bo.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "search/samplers.hpp"

namespace tunekit::bo {

AdditiveBo::AdditiveBo(std::vector<std::vector<std::size_t>> groups,
                       AdditiveBoOptions options)
    : groups_(std::move(groups)), options_(options) {
  if (groups_.empty()) throw std::invalid_argument("AdditiveBo: no groups");
}

search::SearchResult AdditiveBo::run(search::Objective& objective,
                                     const search::SearchSpace& space) const {
  Stopwatch watch;
  tunekit::Rng rng(options_.seed);
  const std::size_t dims = space.size();

  // Groups must cover a subset of the space; uncovered coordinates keep the
  // incumbent's values (they are not modeled).
  std::set<std::size_t> covered;
  for (const auto& g : groups_) {
    for (std::size_t idx : g) {
      if (idx >= dims) throw std::invalid_argument("AdditiveBo: group index out of range");
      covered.insert(idx);
    }
  }

  // The active decomposition; the regroup hook may re-cut it mid-run.
  std::vector<std::vector<std::size_t>> groups = groups_;
  bool regrouped = false;

  search::SearchResult result;
  result.method = "additive-bo";

  std::vector<std::vector<double>> units;
  std::vector<double> values;

  auto evaluate = [&](const search::Config& config) {
    const double v = objective.evaluate(config);
    units.push_back(space.encode_unit(config));
    values.push_back(v);
    result.record(config, v);

    if (options_.regroup_hook) {
      auto revised = options_.regroup_hook(units, values);
      if (revised && !revised->empty() && *revised != groups) {
        bool valid = true;
        for (const auto& g : *revised) {
          for (std::size_t idx : g) valid = valid && idx < dims;
        }
        if (valid) {
          log_info("additive-bo: adopting revised decomposition (",
                   revised->size(), " groups, ", values.size(), " evals kept)");
          groups = std::move(*revised);
          regrouped = true;
        }
      }
    }
  };

  for (const auto& config : search::sample_valid_configs(
           space, std::min(options_.n_init, options_.max_evals), rng)) {
    evaluate(config);
  }

  AdditiveGp gp(groups, options_.kernel);
  std::size_t iteration = 0;
  while (values.size() < options_.max_evals) {
    if (regrouped) {
      // Migrate, don't discard: the archive is full-dimensional, so a
      // re-cut only means refitting the additive GP over the new groups.
      gp = AdditiveGp(groups, options_.kernel);
      regrouped = false;
    }
    linalg::Matrix x(units.size(), dims);
    for (std::size_t r = 0; r < units.size(); ++r) {
      for (std::size_t k = 0; k < dims; ++k) x(r, k) = units[r][k];
    }

    try {
      if (options_.hyperopt_every > 0 && iteration % options_.hyperopt_every == 0) {
        gp.fit_with_hyperopt(std::move(x), values, rng, options_.hyperopt_restarts,
                             options_.hyperopt_max_iters);
      } else {
        gp.fit(std::move(x), values);
      }
    } catch (const std::exception& e) {
      log_warn("additive-bo: surrogate failed (", e.what(), "); random step");
      evaluate(space.sample_valid(rng));
      ++iteration;
      continue;
    }

    // Group-wise acquisition maximization: each group's component is
    // optimized independently over candidate values of its coordinates.
    std::vector<double> proposal_unit = space.encode_unit(result.best_config);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<double> best_coords;
      double best_score = -std::numeric_limits<double>::infinity();
      std::vector<double> candidate = proposal_unit;
      for (std::size_t c = 0; c < options_.group_candidates; ++c) {
        for (std::size_t idx : groups[g]) candidate[idx] = rng.uniform();
        const auto pred = gp.predict_group(g, candidate);
        // Per-group LCB: group contribution mean minus exploration bonus.
        const double score = acquisition_score(AcquisitionKind::LowerConfidenceBound,
                                               pred.mean, pred.stddev(), 0.0,
                                               options_.acq_params);
        if (score > best_score) {
          best_score = score;
          best_coords.clear();
          for (std::size_t idx : groups[g]) best_coords.push_back(candidate[idx]);
        }
      }
      std::size_t k = 0;
      for (std::size_t idx : groups[g]) proposal_unit[idx] = best_coords[k++];
    }

    search::Config proposal = space.decode_unit(proposal_unit);
    if (!space.is_valid(proposal)) {
      if (space.has_repair()) proposal = space.repair(std::move(proposal));
      if (!space.is_valid(proposal)) proposal = space.sample_valid(rng);
    }
    // Duplicate guard for discrete spaces.
    const auto is_dup = [&](const std::vector<double>& u) {
      for (const auto& seen : units) {
        bool same = true;
        for (std::size_t k = 0; k < dims && same; ++k) {
          same = std::abs(seen[k] - u[k]) < 1e-12;
        }
        if (same) return true;
      }
      return false;
    };
    if (is_dup(space.encode_unit(proposal))) proposal = space.sample_valid(rng);

    evaluate(proposal);
    ++iteration;
  }

  result.seconds = watch.seconds();
  return result;
}

}  // namespace tunekit::bo
