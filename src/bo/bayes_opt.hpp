#pragma once
// The Bayesian-optimization search driver (the GPTune stand-in).
//
// Proposals: warm-start configurations, then an LHS initial design (5
// random configurations, as the paper uses), then fit GP (periodic
// hyperparameter optimization) -> maximize acquisition under the space's
// validity constraints. run() feeds them to search::drive, the sequential
// loop every blocking driver shares, until the evaluation budget (the
// paper's criterion: 10 x num_parameters) is spent.
//
// Features carried over from GPTune because the paper depends on them:
//  * hard search-space constraints (candidates are filtered for validity),
//  * crash tolerance (drive records crashing evaluations, not fatal),
//  * transfer learning (TransferPrior as GP prior mean).
//
// run() keeps its state in memory. Crash recovery is the session journal:
// service::TuningSession (which takes its proposals from suggest_batch and
// its initial design from initial_design) resumes a killed search.

#include <limits>
#include <optional>
#include <vector>

#include "bo/acquisition.hpp"
#include "bo/transfer.hpp"
#include "search/drive.hpp"
#include "search/eval_db.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::bo {

enum class InitialDesign { LatinHypercube, Sobol, UniformRandom };

struct BoOptions {
  /// Total evaluation budget (including the initial design).
  std::size_t max_evals = 100;
  /// Initial random configurations (paper: 5).
  std::size_t n_init = 5;
  /// Space-filling design used for the initial configurations.
  InitialDesign init_design = InitialDesign::LatinHypercube;

  KernelKind kernel = KernelKind::Matern52;
  AcquisitionKind acquisition = AcquisitionKind::ExpectedImprovement;
  AcquisitionParams acq_params;
  AcquisitionMaximizerOptions maximizer;

  /// Re-optimize GP hyperparameters every this many BO iterations (1 =
  /// every iteration). Between re-optimizations the GP refits with the
  /// current hyperparameters only.
  std::size_t hyperopt_every = 5;
  std::size_t hyperopt_restarts = 2;
  /// Nelder-Mead iteration cap per hyperparameter optimization.
  std::size_t hyperopt_max_iters = 120;

  std::uint64_t seed = 1;

  /// Duplicate proposals (common in small discrete spaces) are replaced by
  /// random valid configs after this many repeats of an already-evaluated
  /// configuration.
  std::size_t duplicate_retries = 3;

  /// Pick a killed search back up from its session journal. Read only by
  /// core::PlanExecutor's session-scheduler path (with a checkpoint_dir);
  /// run() itself keeps no durable state.
  bool resume = false;

  /// Optional transfer-learning prior fitted on a source task.
  std::optional<TransferPrior> transfer;

  /// Warm-start configurations evaluated before the random initial design
  /// (e.g. the source task's best configurations) — the second half of the
  /// transfer-learning mechanism. Invalid or duplicate entries are skipped;
  /// they count toward n_init and the total budget.
  std::vector<search::Config> warm_start;

  /// Evaluations whose objective exceeds this are recorded but reported to
  /// the GP clamped at the value (simulates the paper's 15-minute timeout
  /// during Case Study 2's search). infinity = disabled.
  double timeout_value = std::numeric_limits<double>::infinity();

  /// Failed evaluations (crashes, timeouts, invalid configurations,
  /// non-finite values) are recorded as NaN. A finite failure_penalty feeds
  /// that value to the surrogate, steering it away from the crashing region;
  /// the default NaN excludes failed points from the surrogate entirely. Failures count
  /// toward the budget, so a crash-looping application still terminates.
  double failure_penalty = std::numeric_limits<double>::quiet_NaN();

  /// run()'s spans ("bo.iteration" per evaluation, initial design included,
  /// → "eval"), evaluation counters, and GP-fit / acquisition-argmax timing
  /// histograms (null = disabled, the default).
  obs::Telemetry* telemetry = nullptr;
};

class BayesOpt {
 public:
  explicit BayesOpt(BoOptions options = {}) : options_(std::move(options)) {}

  const BoOptions& options() const { return options_; }

  /// Run the search.
  search::SearchResult run(search::Objective& objective,
                           const search::SearchSpace& space) const;

  /// As run(), but also exposes the evaluation database (for transfer
  /// learning into a later task).
  search::SearchResult run(search::Objective& objective, const search::SearchSpace& space,
                           search::EvalDb& db) const;

  /// run()'s proposal sequence, for callers that drive the search with their
  /// own measurement options. Valid while this BayesOpt and `space` live.
  search::Proposer proposer(const search::SearchSpace& space) const;

  /// Suggest `k` configurations to evaluate in parallel, without evaluating
  /// anything (constant-liar batching): each accepted suggestion is added to
  /// the surrogate as a pseudo-observation at the incumbent best value, so
  /// later suggestions explore elsewhere. Failed evaluations enter the
  /// surrogate as run() feeds them (failure_penalty, or not at all). Throws
  /// std::invalid_argument when no evaluation is usable.
  std::vector<search::Config> suggest_batch(const search::EvalDb& db,
                                            const search::SearchSpace& space,
                                            std::size_t k) const;

  /// `n` initial-design configurations of kind init_design. Latin hypercube
  /// and uniform designs draw from `rng`; Sobol is seeded from `seed`.
  std::vector<search::Config> initial_design(const search::SearchSpace& space,
                                             std::size_t n, tunekit::Rng& rng) const;

 private:
  BoOptions options_;
};

}  // namespace tunekit::bo
