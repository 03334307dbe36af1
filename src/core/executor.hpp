#pragma once
// PlanExecutor: runs a SearchPlan against a TunableApp.
//
// Stages run sequentially; stage results (tuned parameter values) are
// written into the base configuration before the next stage starts — this
// is how "first determine the batch value that optimizes the Slater
// Determinant region" happens before the per-group searches. Searches
// within a stage are independent (disjoint parameters) and run in parallel
// when the app is thread-safe and n_threads > 1.
//
// Backend choice per search: BO by default; a search whose discrete
// sub-space is smaller than its evaluation budget is exhaustively
// enumerated instead (the paper obtains the MPI grid "without incurring the
// overhead of a guided BO search").

#include <string>
#include <vector>

#include "bo/bayes_opt.hpp"
#include "graph/search_plan.hpp"
#include "robust/measure.hpp"
#include "search/grid_search.hpp"
#include "search/objective.hpp"
#include "search/result.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::core {

class TunableApp;  // fwd

struct ExecutorOptions {
  /// Evaluation budget per search: max(min_evals, evals_per_param * dims).
  /// The paper uses 10 x num_parameters.
  std::size_t evals_per_param = 10;
  std::size_t min_evals = 20;

  /// Total evaluation budget across all searches (the paper's step 1:
  /// "define the maximum cost of the tuning search"). 0 = unlimited. When
  /// the remaining budget is smaller than a search's nominal budget, the
  /// search is truncated; searches after exhaustion are skipped (their
  /// parameters keep the base configuration).
  std::size_t max_total_evals = 0;

  /// Template BO options (seed is offset per search).
  bo::BoOptions bo;

  /// Enumerate exhaustively instead of BO when the discrete sub-space has
  /// at most this multiple of the search budget (1.0 = enumerate only when
  /// cheaper than the BO budget; 0 disables enumeration).
  double enumerate_threshold = 1.0;

  /// Parallel searches within a stage (requires a thread-safe app).
  std::size_t n_threads = 1;

  /// Route every search through the session service (service::TuningSession
  /// + service::EvalScheduler) instead of the blocking drivers: candidates
  /// are asked in constant-liar batches and evaluated concurrently on
  /// n_threads workers — *intra-search* parallelism, which pays off when a
  /// single evaluation is expensive. Requires a thread-safe app; stage-level
  /// search parallelism is disabled to avoid nesting thread pools.
  bool session_scheduler = false;

  /// Directory for the per-search session journals
  /// (<dir>/search_<id>.journal.jsonl) that session_scheduler searches write;
  /// bo.resume picks a killed run back up from them, with in-flight
  /// candidates re-issued. The blocking drivers keep no durable state, so
  /// without session_scheduler nothing is journaled. Empty disables.
  std::string checkpoint_dir;

  /// Hardened-evaluation settings applied to every search evaluation:
  /// watchdog timeout, transient-crash retries, and repeats with MAD outlier
  /// rejection. Defaults are the seed behavior (one bare call, no deadline).
  /// To run evaluations in worker processes, execute a robust::SandboxedApp
  /// and leave the watchdog timeout infinite: the pool's deadline applies.
  robust::MeasureOptions measure;

  /// Spans ("search.<name>" per planned search, propagated into the drivers)
  /// and evaluation metrics (null = disabled, the default).
  obs::Telemetry* telemetry = nullptr;

  std::uint64_t seed = 1234;
};

struct SearchOutcome {
  graph::PlannedSearch planned;
  search::SearchResult result;
  /// Tuned values adopted into the final configuration, by parameter name.
  search::NamedConfig tuned_values;
};

struct ExecutionResult {
  std::vector<SearchOutcome> outcomes;
  search::Config final_config;
  search::RegionTimes final_times;
  std::size_t total_evaluations = 0;
  double seconds = 0.0;
};

class PlanExecutor {
 public:
  explicit PlanExecutor(ExecutorOptions options = {});

  ExecutionResult execute(TunableApp& app, const graph::SearchPlan& plan) const;

  /// Budget for one search of the given dimensionality.
  std::size_t budget_for(std::size_t dims) const;

 private:
  ExecutorOptions options_;
};

}  // namespace tunekit::core
