#include "core/executor.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/tunable_app.hpp"
#include "obs/telemetry.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace tunekit::core {

PlanExecutor::PlanExecutor(ExecutorOptions options) : options_(std::move(options)) {}

std::size_t PlanExecutor::budget_for(std::size_t dims) const {
  return std::max(options_.min_evals, options_.evals_per_param * dims);
}

namespace {

/// Product of discrete cardinalities of the selected params; 0 if any
/// parameter is continuous or the product overflows `limit`.
std::size_t discrete_cardinality(const search::SearchSpace& space,
                                 const std::vector<std::size_t>& params,
                                 std::size_t limit) {
  std::size_t total = 1;
  for (std::size_t idx : params) {
    const std::size_t card = space.param(idx).cardinality();
    if (card == 0) return 0;
    if (total > limit / card) return 0;  // would exceed limit
    total *= card;
  }
  return total;
}

}  // namespace

ExecutionResult PlanExecutor::execute(TunableApp& app,
                                      const graph::SearchPlan& plan) const {
  Stopwatch watch;
  const search::SearchSpace& space = app.space();
  obs::Telemetry* telemetry = options_.telemetry;

  ExecutionResult exec;
  search::Config base = app.baseline();
  if (!space.is_valid(base)) {
    // Fall back to a deterministic valid sample when the app baseline
    // violates constraints.
    tunekit::Rng rng(options_.seed ^ 0x5eedbeef);
    base = space.sample_valid(rng);
  }

  if (!options_.checkpoint_dir.empty() && options_.session_scheduler) {
    std::filesystem::create_directories(options_.checkpoint_dir);
  } else if (!options_.checkpoint_dir.empty()) {
    log_warn("executor: without session_scheduler, searches write no journal");
  }

  std::size_t search_counter = 0;
  const std::size_t n_stages = plan.n_stages();
  for (std::size_t stage = 0; stage < n_stages; ++stage) {
    const auto searches = plan.stage_searches(stage);
    if (searches.empty()) continue;

    std::vector<SearchOutcome> stage_outcomes(searches.size());

    // Allocate this stage's per-search budgets up front, honoring the total
    // budget (paper step 1: a predetermined computing budget bounds the
    // whole tuning campaign).
    std::vector<std::size_t> budgets(searches.size());
    for (std::size_t si = 0; si < searches.size(); ++si) {
      std::size_t b = budget_for(searches[si]->params.size());
      if (options_.max_total_evals > 0) {
        const std::size_t used = exec.total_evaluations +
                                 std::accumulate(budgets.begin(),
                                                 budgets.begin() + static_cast<std::ptrdiff_t>(si),
                                                 std::size_t{0});
        const std::size_t remaining =
            options_.max_total_evals > used ? options_.max_total_evals - used : 0;
        b = std::min(b, remaining);
        if (b > 0 && b < 3) b = 0;  // too small to search meaningfully
        if (b == 0) {
          log_warn("executor: budget exhausted; skipping search '", searches[si]->name,
                   "'");
        }
      }
      budgets[si] = b;
    }

    // Captured before the fan-out: stage searches may run on pool threads,
    // where the ambient span would otherwise be empty.
    const obs::SpanId stage_parent = obs::Telemetry::current_span();

    auto run_one = [&](std::size_t si) {
      const graph::PlannedSearch& planned = *searches[si];
      const std::size_t search_id = search_counter + si;
      obs::CurrentSpanScope ambient(stage_parent);
      obs::ScopedSpan search_span(telemetry, "search." + planned.name);

      if (budgets[si] == 0) {
        SearchOutcome skipped;
        skipped.planned = planned;
        skipped.result.method = "skipped";
        stage_outcomes[si] = std::move(skipped);
        return;
      }

      RegionSumObjective region_obj(app, planned.objective_regions);
      search::SubspaceObjective sub_obj(region_obj, space, planned.params, base);

      const std::size_t budget = budgets[si];
      search::SearchResult result;

      const std::size_t card = discrete_cardinality(
          space, planned.params,
          static_cast<std::size_t>(options_.enumerate_threshold *
                                   static_cast<double>(budget)) +
              1);
      const bool enumerate =
          options_.enumerate_threshold > 0.0 && card > 0 &&
          static_cast<double>(card) <=
              options_.enumerate_threshold * static_cast<double>(budget);

      if (options_.session_scheduler) {
        // Session service path: ask/tell batches evaluated concurrently.
        service::SessionOptions sopts;
        sopts.telemetry = telemetry;
        sopts.bo = options_.bo;
        sopts.n_init = options_.bo.n_init;
        sopts.failure_penalty = options_.bo.failure_penalty;
        sopts.seed = options_.bo.seed + 7919 * (search_id + 1);
        if (enumerate) {
          sopts.backend = service::SessionBackend::Grid;
          sopts.max_evals = options_.max_total_evals > 0 ? std::min(card, budget) : card;
          log_info("executor: '", planned.name, "' enumerated through the scheduler (",
                   sopts.max_evals, " configs)");
        } else {
          sopts.backend = service::SessionBackend::Bo;
          sopts.max_evals = budget;
        }
        std::string journal;
        if (!options_.checkpoint_dir.empty()) {
          journal = options_.checkpoint_dir + "/search_" + std::to_string(search_id) +
                    ".journal.jsonl";
        }
        std::unique_ptr<service::TuningSession> session;
        if (!journal.empty() && options_.bo.resume && std::filesystem::exists(journal)) {
          session = service::TuningSession::resume(sub_obj.space(), sopts, journal);
        } else {
          session = std::make_unique<service::TuningSession>(sub_obj.space(), sopts,
                                                             journal);
        }
        service::SchedulerOptions sched_opts;
        sched_opts.n_threads = options_.n_threads;
        sched_opts.measure = options_.measure;
        sched_opts.telemetry = telemetry;
        service::EvalScheduler scheduler(sched_opts);
        result = scheduler.run(*session, sub_obj);
      } else if (enumerate) {
        // Blocking path (here and below): search::drive measures every
        // evaluation under `measure` (watchdog, retries, repeats).
        log_info("executor: '", planned.name, "' enumerated exhaustively (", card,
                 " configs)");
        search::GridSearchOptions grid_opts;
        if (options_.max_total_evals > 0) grid_opts.max_evals = budget;
        result = search::drive(sub_obj, search::GridSearch(grid_opts).proposer(sub_obj.space()),
                               card, options_.measure, telemetry, "enumerate");
      } else {
        bo::BoOptions bo_opts = options_.bo;
        bo_opts.telemetry = telemetry;
        bo_opts.max_evals = budget;
        bo_opts.seed = options_.bo.seed + 7919 * (search_id + 1);
        const bo::BayesOpt driver(bo_opts);
        result = search::drive(sub_obj, driver.proposer(sub_obj.space()), budget,
                               options_.measure, telemetry, "bo");
      }

      SearchOutcome outcome;
      outcome.planned = planned;
      outcome.result = std::move(result);
      if (outcome.result.found()) {
        for (std::size_t k = 0; k < planned.params.size(); ++k) {
          outcome.tuned_values[space.param(planned.params[k]).name()] =
              outcome.result.best_config[k];
        }
      }
      stage_outcomes[si] = std::move(outcome);
    };

    // With the session scheduler, n_threads parallelizes *within* each
    // search; running searches concurrently on top would nest thread pools.
    // (A sandboxed app is always thread-safe: workers are processes.)
    const bool parallel = options_.n_threads > 1 && app.thread_safe() &&
                          searches.size() > 1 && !options_.session_scheduler;
    if (parallel) {
      ThreadPool pool(std::min(options_.n_threads, searches.size()));
      pool.parallel_for(searches.size(), run_one);
    } else {
      for (std::size_t si = 0; si < searches.size(); ++si) run_one(si);
    }

    // Adopt this stage's tuned values into the base configuration.
    for (auto& outcome : stage_outcomes) {
      if (outcome.result.found()) {
        for (std::size_t k = 0; k < outcome.planned.params.size(); ++k) {
          base[outcome.planned.params[k]] = outcome.result.best_config[k];
        }
      }
      exec.total_evaluations += outcome.result.evaluations;
      exec.outcomes.push_back(std::move(outcome));
    }
    search_counter += searches.size();
  }

  exec.final_config = base;
  // The confirming measurement of the tuned configuration runs under the
  // same hardening. If even the final measurement fails, report NaN times
  // rather than aborting after the whole campaign succeeded.
  const robust::Measurement final_m =
      robust::RobustMeasurer(options_.measure).measure_regions(app, base, telemetry);
  if (final_m.outcome == robust::EvalOutcome::Ok) {
    exec.final_times = final_m.regions;
  } else {
    log_warn("executor: final measurement failed as ",
             robust::to_string(final_m.outcome), "; reporting NaN times");
    exec.final_times.total = std::numeric_limits<double>::quiet_NaN();
  }
  ++exec.total_evaluations;
  exec.seconds = watch.seconds();
  return exec;
}

}  // namespace tunekit::core
