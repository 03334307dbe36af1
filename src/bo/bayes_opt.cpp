#include "bo/bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"
#include "search/samplers.hpp"
#include "search/sobol.hpp"

namespace tunekit::bo {

namespace {

/// Surrogate training data in unit coordinates, plus the incumbent.
struct TrainingSet {
  std::vector<std::vector<double>> units;
  std::vector<double> targets;
  double best_value = std::numeric_limits<double>::infinity();
  std::vector<double> best_unit;

  void add(std::vector<double> unit, double value) {
    if (value < best_value) {
      best_value = value;
      best_unit = unit;
    }
    units.push_back(std::move(unit));
    targets.push_back(value);
  }
};

/// Any non-finite observation (NaN crash sentinel or an overflowed +inf
/// timing) is a failure: it takes failure_penalty, or stays out when that is
/// NaN — it never reaches the GP as is. Targets are clamped at timeout_value.
TrainingSet training_set(const std::vector<search::Evaluation>& evals,
                         const search::SearchSpace& space, const BoOptions& options) {
  TrainingSet data;
  for (const auto& e : evals) {
    double value = e.value;
    if (!std::isfinite(value)) {
      if (std::isnan(options.failure_penalty)) continue;
      value = options.failure_penalty;
    }
    data.add(space.encode_unit(e.config), std::min(value, options.timeout_value));
  }
  return data;
}

void observe_seconds(obs::Telemetry* telemetry, const char* histogram, double seconds) {
  if (telemetry == nullptr || !telemetry->enabled()) return;
  telemetry->metrics().histogram(histogram, obs::default_time_buckets()).observe(seconds);
}

/// The BO step both drivers share: fit `gp` to `data` (with a
/// hyperparameter search when `hyperopt`), maximize the acquisition under
/// the space's constraints, re-run the argmax up to duplicate_retries times
/// while it lands on a configuration in `seen`, then fall back to a random
/// valid sample. nullopt when there is nothing to fit or the fit fails; the
/// caller picks its own fallback.
std::optional<search::Config> propose(GaussianProcess& gp, const TrainingSet& data,
                                      bool hyperopt,
                                      const std::vector<search::Evaluation>& seen,
                                      const search::SearchSpace& space, tunekit::Rng& rng,
                                      const BoOptions& options) {
  if (data.units.empty()) return std::nullopt;
  linalg::Matrix x(data.units.size(), space.size());
  for (std::size_t i = 0; i < data.units.size(); ++i) {
    for (std::size_t k = 0; k < space.size(); ++k) x(i, k) = data.units[i][k];
  }
  Stopwatch fit_watch;
  if (!try_fit(gp, std::move(x), data.targets, hyperopt, rng, options.hyperopt_restarts,
               options.hyperopt_max_iters, "bo")) {
    return std::nullopt;
  }
  observe_seconds(options.telemetry, obs::metric::kGpFitSeconds, fit_watch.seconds());

  auto accept_unit = [&](const std::vector<double>& u) {
    return space.is_valid(space.decode_unit(u));
  };
  auto argmax = [&] {
    return space.decode_unit(maximize_acquisition(gp, options.acquisition,
                                                  options.acq_params, data.best_value,
                                                  data.best_unit, rng, options.maximizer,
                                                  accept_unit));
  };
  Stopwatch acq_watch;
  search::Config proposal = argmax();
  // Duplicate handling for small/discrete spaces.
  for (std::size_t retries = 0;
       search::already_evaluated(seen, proposal) && retries < options.duplicate_retries;
       ++retries) {
    proposal = argmax();
  }
  if (search::already_evaluated(seen, proposal)) proposal = space.sample_valid(rng);
  // Proposal-selection time including duplicate retries: each retry is a
  // full argmax, and their cost is what this histogram exists to expose.
  observe_seconds(options.telemetry, obs::metric::kAcqArgmaxSeconds, acq_watch.seconds());
  return proposal;
}

GaussianProcess make_gp(const BoOptions& options) {
  GaussianProcess gp(options.kernel);
  if (options.transfer) {
    const TransferPrior& prior = *options.transfer;
    gp.set_prior_mean([&prior](const std::vector<double>& u) { return prior.mean_at(u); });
  }
  return gp;
}

}  // namespace

std::vector<search::Config> BayesOpt::initial_design(const search::SearchSpace& space,
                                                     std::size_t n,
                                                     tunekit::Rng& rng) const {
  switch (options_.init_design) {
    case InitialDesign::LatinHypercube:
      return search::sample_valid_configs(space, n, rng, /*latin_hypercube=*/true);
    case InitialDesign::Sobol:
      return search::SobolSequence::sample(space, n, options_.seed | 1);
    case InitialDesign::UniformRandom:
      return search::sample_valid_configs(space, n, rng, /*latin_hypercube=*/false);
  }
  return {};
}

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space) const {
  search::EvalDb db;
  return run(objective, space, db);
}

search::SearchResult BayesOpt::run(search::Objective& objective,
                                   const search::SearchSpace& space,
                                   search::EvalDb& db) const {
  return search::drive(objective, proposer(space), options_.max_evals, {},
                       options_.telemetry, "bo", &db);
}

search::Proposer BayesOpt::proposer(const search::SearchSpace& space) const {
  return [this, &space, rng = tunekit::Rng(options_.seed), gp = make_gp(options_),
          next_warm = std::size_t{0}, design = std::optional<std::vector<search::Config>>(),
          next_design = std::size_t{0}, iteration = std::size_t{0}](
             const std::vector<search::Evaluation>& evals) mutable
             -> std::optional<search::Config> {
    // Warm start: source-task winners first (transfer learning).
    while (next_warm < options_.warm_start.size()) {
      const search::Config& config = options_.warm_start[next_warm++];
      if (!space.is_valid(config)) {
        log_warn("bo: skipping invalid warm-start configuration");
        continue;
      }
      if (!search::already_evaluated(evals, config)) return config;
    }
    if (!design) {
      design = evals.size() < options_.n_init
                   ? initial_design(space, options_.n_init - evals.size(), rng)
                   : std::vector<search::Config>();
    }
    if (next_design < design->size()) return (*design)[next_design++];

    const bool hyperopt = on_cadence(iteration, options_.hyperopt_every);
    auto proposal =
        propose(gp, training_set(evals, space, options_), hyperopt, evals, space, rng, options_);
    if (proposal) return proposal;
    // Everything failed so far, or the surrogate broke down: explore at random.
    return space.sample_valid(rng);
  };
}

std::vector<search::Config> BayesOpt::suggest_batch(const search::EvalDb& db,
                                                    const search::SearchSpace& space,
                                                    std::size_t k) const {
  const auto evals = db.all();
  // Observed data plus the growing liar set.
  TrainingSet data = training_set(evals, space, options_);
  if (data.units.empty()) {
    throw std::invalid_argument("BayesOpt::suggest_batch: no usable evaluations");
  }
  tunekit::Rng rng(options_.seed ^ 0xba7c4);
  GaussianProcess gp = make_gp(options_);
  std::vector<search::Config> batch;
  std::vector<search::Evaluation> seen = evals;
  for (std::size_t b = 0; b < k; ++b) {
    auto proposal = propose(gp, data, /*hyperopt=*/b == 0, seen, space, rng, options_);
    if (!proposal) {
      batch.push_back(space.sample_valid(rng));
      continue;
    }
    // Constant liar: pretend the proposal observed the incumbent best.
    data.add(space.encode_unit(*proposal), data.best_value);
    seen.push_back({*proposal, data.best_value, 0.0});
    batch.push_back(std::move(*proposal));
  }
  return batch;
}

}  // namespace tunekit::bo
