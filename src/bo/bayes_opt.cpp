#include "bo/bayes_opt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"
#include "robust/outcome.hpp"
#include "search/samplers.hpp"
#include "search/sobol.hpp"

namespace tunekit::bo {

namespace {

bool nearly_equal_config(const search::Config& a, const search::Config& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > 1e-9 * std::max(1.0, std::abs(a[i]))) return false;
  }
  return true;
}

bool already_evaluated(const std::vector<search::Evaluation>& evals,
                       const search::Config& c) {
  return std::any_of(evals.begin(), evals.end(), [&](const search::Evaluation& e) {
    return nearly_equal_config(e.config, c);
  });
}

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
  try {
    Stopwatch fit_watch;
    if (hyperopt) {
      gp.fit_with_hyperopt(std::move(x), data.targets, rng, options.hyperopt_restarts,
                           options.hyperopt_max_iters);
    } else {
      gp.fit(std::move(x), data.targets);
    }
    observe_seconds(options.telemetry, obs::metric::kGpFitSeconds, fit_watch.seconds());
  } catch (const std::exception& e) {
    // Surrogate breakdown (e.g. all-identical targets).
    log_warn("bo: surrogate fit failed (", e.what(), "); random fallback");
    return std::nullopt;
  }

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
       already_evaluated(seen, proposal) && retries < options.duplicate_retries; ++retries) {
    proposal = argmax();
  }
  if (already_evaluated(seen, proposal)) proposal = space.sample_valid(rng);
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
  Stopwatch watch;
  tunekit::Rng rng(options_.seed);
  obs::Telemetry* telemetry = options_.telemetry;
  const bool traced = telemetry != nullptr && telemetry->enabled();

  auto evaluate_and_record = [&](const search::Config& config) {
    obs::ScopedSpan eval_span(telemetry, "eval");
    if (traced) telemetry->metrics().counter(obs::metric::kEvalsStarted).inc();
    Stopwatch eval_watch;
    double value = std::numeric_limits<double>::quiet_NaN();
    robust::EvalOutcome outcome = robust::EvalOutcome::Ok;
    try {
      value = objective.evaluate(config);
      outcome = robust::classify_value(value);
    } catch (const robust::EvalFailure& e) {
      // A hardened objective already classified the failure; keep the why.
      log_warn("bo: evaluation failed (", e.what(), "); recording as ",
               robust::to_string(e.outcome()));
      outcome = e.outcome();
    } catch (const std::invalid_argument& e) {
      log_warn("bo: invalid configuration (", e.what(), "); recording as failure");
      outcome = robust::EvalOutcome::InvalidConfig;
    } catch (const std::exception& e) {
      // Application crash: record the failure and keep searching.
      log_warn("bo: evaluation failed (", e.what(), "); recording as failure");
      outcome = robust::EvalOutcome::Crashed;
    } catch (...) {
      log_warn("bo: evaluation threw a non-standard exception; recording as crash");
      outcome = robust::EvalOutcome::Crashed;
    }
    const double seconds = eval_watch.seconds();
    eval_span.end();
    if (traced) obs::outcome_counter(telemetry->metrics(), robust::to_string(outcome)).inc();
    observe_seconds(telemetry, obs::metric::kEvalSeconds, seconds);
    if (robust::is_failure(outcome)) value = std::numeric_limits<double>::quiet_NaN();
    db.record(config, value, seconds, outcome);
  };

  // Warm start: source-task winners first (transfer learning).
  for (const auto& config : options_.warm_start) {
    if (db.size() >= options_.max_evals) break;
    if (!space.is_valid(config)) {
      log_warn("bo: skipping invalid warm-start configuration");
      continue;
    }
    if (already_evaluated(db.all(), config)) continue;
    evaluate_and_record(config);
  }

  if (db.size() < options_.n_init) {
    for (const auto& config : initial_design(space, options_.n_init - db.size(), rng)) {
      if (db.size() >= options_.max_evals) break;
      evaluate_and_record(config);
    }
  }

  GaussianProcess gp = make_gp(options_);
  for (std::size_t iteration = 0; db.size() < options_.max_evals; ++iteration) {
    obs::ScopedSpan iter_span(telemetry, "bo.iteration");
    const auto evals = db.all();
    const bool hyperopt =
        options_.hyperopt_every > 0 && iteration % options_.hyperopt_every == 0;
    auto proposal =
        propose(gp, training_set(evals, space, options_), hyperopt, evals, space, rng, options_);
    // Everything failed so far, or the surrogate broke down: explore at random.
    evaluate_and_record(proposal ? std::move(*proposal) : space.sample_valid(rng));
  }

  search::SearchResult result;
  result.method = "bo";
  for (const auto& e : db.all()) result.record(e.config, e.value);
  result.seconds = watch.seconds();
  return result;
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
