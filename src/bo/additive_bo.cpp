#include "bo/additive_bo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/log.hpp"
#include "search/drive.hpp"
#include "search/samplers.hpp"

namespace tunekit::bo {

AdditiveBo::AdditiveBo(std::vector<std::vector<std::size_t>> groups,
                       AdditiveBoOptions options)
    : groups_(std::move(groups)), options_(options) {
  if (groups_.empty()) throw std::invalid_argument("AdditiveBo: no groups");
}

search::SearchResult AdditiveBo::run(search::Objective& objective,
                                     const search::SearchSpace& space) const {
  const std::size_t dims = space.size();
  // Groups must cover a subset of the space; uncovered coordinates keep the
  // incumbent's values (they are not modeled).
  for (const auto& g : groups_) {
    for (std::size_t idx : g) {
      if (idx >= dims) throw std::invalid_argument("AdditiveBo: group index out of range");
    }
  }

  // `groups` is the active decomposition; the regroup hook may re-cut it
  // mid-run. `units`/`values` are the finite observations the surrogate and
  // the hook see; `seen` counts the evaluations already folded into them.
  auto propose = [&, rng = tunekit::Rng(options_.seed), groups = groups_,
                  gp = std::optional<AdditiveGp>(), design = std::vector<search::Config>(),
                  units = std::vector<std::vector<double>>(), values = std::vector<double>(),
                  seen = std::size_t{0}, iteration = std::size_t{0}](
                     const std::vector<search::Evaluation>& evals) mutable
      -> std::optional<search::Config> {
    for (; seen < evals.size(); ++seen) {
      if (!std::isfinite(evals[seen].value)) continue;
      units.push_back(space.encode_unit(evals[seen].config));
      values.push_back(evals[seen].value);
      if (!options_.regroup_hook) continue;
      auto revised = options_.regroup_hook(units, values);
      if (revised && !revised->empty() && *revised != groups) {
        bool valid = true;
        for (const auto& g : *revised) {
          for (std::size_t idx : g) valid = valid && idx < dims;
        }
        if (valid) {
          log_info("additive-bo: adopting revised decomposition (", revised->size(),
                   " groups, ", values.size(), " evals kept)");
          groups = std::move(*revised);
          // Migrate, don't discard: the archive is full-dimensional, so a
          // re-cut only means refitting the additive GP over the new groups.
          gp.reset();
        }
      }
    }

    if (evals.empty()) {
      design = search::sample_valid_configs(
          space, std::min(options_.n_init, options_.max_evals), rng);
    }
    if (evals.size() < design.size()) return design[evals.size()];
    if (values.empty()) return space.sample_valid(rng);  // everything failed so far

    if (!gp) gp.emplace(groups, options_.kernel);
    linalg::Matrix x(units.size(), dims);
    for (std::size_t r = 0; r < units.size(); ++r) {
      for (std::size_t k = 0; k < dims; ++k) x(r, k) = units[r][k];
    }
    if (!try_fit(*gp, std::move(x), values, on_cadence(iteration, options_.hyperopt_every),
                 rng, options_.hyperopt_restarts, options_.hyperopt_max_iters, "additive-bo")) {
      return space.sample_valid(rng);
    }

    // Group-wise acquisition maximization around the incumbent: each
    // group's component is optimized independently over candidate values of
    // its coordinates.
    const auto best = std::min_element(values.begin(), values.end()) - values.begin();
    std::vector<double> proposal_unit = units[static_cast<std::size_t>(best)];
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<double> best_coords;
      double best_score = -std::numeric_limits<double>::infinity();
      std::vector<double> candidate = proposal_unit;
      for (std::size_t c = 0; c < options_.group_candidates; ++c) {
        for (std::size_t idx : groups[g]) candidate[idx] = rng.uniform();
        const auto pred = gp->predict_group(g, candidate);
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
    if (search::already_evaluated(evals, proposal)) proposal = space.sample_valid(rng);
    return proposal;
  };
  return search::drive(objective, propose, options_.max_evals, {}, nullptr, "additive-bo");
}

}  // namespace tunekit::bo
