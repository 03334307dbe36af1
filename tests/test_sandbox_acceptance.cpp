// Fault-injection acceptance tests: the full methodology pipeline must
// survive a worker that randomly segfaults (10%) and hangs uninterruptibly
// (5%) per configuration, with every failure classified into the taxonomy,
// the supervisor never dying, and the final DAG partition identical to a
// clean (fault-free, in-process) run. The faults are injected by
// tunekit_worker's --chaos-* flags: deterministic per-config draws, so the
// same configuration always fails the same way — exactly the adversary the
// crash quarantine exists for.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/app_registry.hpp"
#include "core/methodology.hpp"
#include "robust/process_sandbox.hpp"
#include "robust/worker_pool.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"

namespace tunekit {
namespace {

#define REQUIRE_SANDBOX()                                            \
  do {                                                               \
    if (!robust::process_sandbox_supported())                        \
      GTEST_SKIP() << "process sandbox unsupported on this platform"; \
  } while (0)

/// A pool running the real tunekit_worker with fault injection enabled.
std::shared_ptr<robust::WorkerPool> make_chaos_pool(const std::string& app,
                                                    std::size_t n_workers,
                                                    const char* segv_p,
                                                    const char* hang_p,
                                                    const char* chaos_seed) {
  robust::SandboxOptions sandbox;
  sandbox.argv = {TUNEKIT_WORKER_BIN, "--app",        app,
                  "--seed",           "42",           "--chaos-segv",
                  segv_p,             "--chaos-hang", hang_p,
                  "--chaos-seed",     chaos_seed};
  sandbox.restart_backoff_seconds = 0.001;
  sandbox.restart_backoff_max_seconds = 0.01;
  sandbox.max_restarts = 1000;  // chaos kills workers constantly; keep going
  return std::make_shared<robust::WorkerPool>(sandbox, n_workers,
                                              /*quarantine_after=*/2);
}

/// The partition a plan induces: each search's tuned parameters as a sorted
/// set, plus the untuned remainder. Two runs agree on the DAG exactly when
/// these compare equal.
std::set<std::vector<std::size_t>> partition_of(const graph::SearchPlan& plan) {
  std::set<std::vector<std::size_t>> out;
  for (const auto& s : plan.searches) {
    auto params = s.params;
    std::sort(params.begin(), params.end());
    out.insert(std::move(params));
  }
  return out;
}

core::MethodologyOptions base_options() {
  core::MethodologyOptions opt;
  opt.cutoff = 0.25;
  opt.sensitivity.n_variations = 20;
  opt.importance_samples = 0;  // keep the partition a pure sensitivity product
  opt.executor.evals_per_param = 2;
  opt.executor.min_evals = 4;
  opt.executor.bo.seed = 42;
  opt.seed = 42;
  return opt;
}

TEST(SandboxAcceptance, MethodologySurvivesChaosWithIdenticalPartition) {
  REQUIRE_SANDBOX();
  const auto bundle = core::make_builtin_app("synth:case3", 42);

  // Clean reference: fully in-process, no faults.
  core::Methodology clean(base_options());
  const auto clean_analysis = clean.analyze(*bundle.app);
  const auto clean_plan = clean.make_plan(*bundle.app, clean_analysis);

  // Chaos run: every evaluation goes through a worker that segfaults on 10%
  // of configurations and hangs on another 5%.
  const auto pool = make_chaos_pool("synth:case3", 2, "0.10", "0.05", "1");
  robust::SandboxedApp sandboxed(*bundle.app, pool, /*deadline_seconds=*/0.2);

  // If a worker crash or hang escaped containment this call would throw
  // (or kill the test process outright) — completing it is the acceptance
  // criterion.
  core::Methodology chaotic(base_options());
  const auto result = chaotic.run(sandboxed);

  // The run completed and produced a usable result.
  EXPECT_FALSE(result.plan.searches.empty());
  EXPECT_GT(result.execution.total_evaluations, 0u);

  // Every dispatched evaluation came back with a classified outcome — the
  // stats buckets partition the dispatch count exactly, nothing was lost.
  const auto& s = pool->stats();
  EXPECT_GT(s.dispatched.load(), 0u);
  EXPECT_GT(s.ok.load(), 0u);
  EXPECT_GT(s.crashed.load() + s.timed_out.load(), 0u)
      << "chaos injection never fired; the test is vacuous";
  EXPECT_EQ(s.ok.load() + s.crashed.load() + s.timed_out.load() +
                s.invalid.load() + s.non_finite.load(),
            s.dispatched.load());

  // The faults changed individual measurements but not the structure the
  // methodology extracted: same parameter partition as the clean run.
  EXPECT_EQ(partition_of(result.plan), partition_of(clean_plan));
  auto untuned_clean = clean_plan.untuned_params;
  auto untuned_chaos = result.plan.untuned_params;
  std::sort(untuned_clean.begin(), untuned_clean.end());
  std::sort(untuned_chaos.begin(), untuned_chaos.end());
  EXPECT_EQ(untuned_chaos, untuned_clean);
}

TEST(SandboxAcceptance, SchedulerClassifiesEveryChaosFailure) {
  REQUIRE_SANDBOX();
  const auto bundle = core::make_builtin_app("synth:case1", 42);
  const auto& space = bundle.app->space();

  service::SessionOptions sopt;
  sopt.max_evals = 40;
  sopt.backend = service::SessionBackend::Random;
  sopt.max_attempts = 3;
  sopt.quarantine_after = 2;
  sopt.seed = 9;
  service::TuningSession session(space, sopt);

  service::SchedulerOptions opt;
  opt.n_threads = 2;
  opt.measure.watchdog.timeout_seconds = 0.2;
  const auto pool = make_chaos_pool("synth:case1", 2, "0.15", "0.05", "7");
  opt.backend = pool;

  // The in-process objective is a decoy: with a backend set every
  // evaluation must go to the pool instead. Throwing proves it is never hit.
  class NeverCalled final : public search::Objective {
   public:
    double evaluate(const search::Config&) override {
      throw std::logic_error("in-process objective used despite isolation");
    }
    bool thread_safe() const override { return true; }
  } decoy;

  service::EvalScheduler scheduler(opt);
  const auto result = scheduler.run(session, decoy);

  // The session ran to exhaustion: every candidate was resolved — told,
  // retried, dropped, or quarantined — and the budget is fully consumed.
  EXPECT_EQ(session.state(), service::SessionState::Exhausted);
  EXPECT_EQ(session.completed(), sopt.max_evals);
  EXPECT_EQ(result.evaluations, sopt.max_evals);

  const auto& s = pool->stats();
  EXPECT_GT(s.ok.load(), 0u);
  EXPECT_GT(s.crashed.load() + s.timed_out.load(), 0u);
  EXPECT_EQ(s.ok.load() + s.crashed.load() + s.timed_out.load() +
                s.invalid.load() + s.non_finite.load(),
            s.dispatched.load());

  // Failed evaluations surface in the session as penalty records with their
  // classified outcome, never as unclassified Ok rows.
  std::size_t failed = 0;
  for (const auto& e : session.evaluations()) {
    if (e.outcome != robust::EvalOutcome::Ok) ++failed;
  }
  EXPECT_GT(failed, 0u);
}

TEST(SandboxAcceptance, EveryPhaseDispatchesThroughTheSharedPool) {
  REQUIRE_SANDBOX();
  const auto bundle = core::make_builtin_app("synth:case3", 42);

  // One repeat, no retries: each counted observation is exactly one
  // evaluation, so the pool's dispatch count must match the methodology's
  // own accounting. A phase that evaluated in process would leave a gap.
  auto opt = base_options();
  opt.importance_samples = 20;
  const auto pool = make_chaos_pool("synth:case3", 2, "0.10", "0.05", "1");
  robust::SandboxedApp sandboxed(*bundle.app, pool, /*deadline_seconds=*/0.2);

  core::Methodology m(opt);
  const auto result = m.run(sandboxed);

  ASSERT_GT(result.analysis.importance.size(), 0u);
  const auto& s = pool->stats();
  EXPECT_EQ(s.dispatched.load() + s.quarantine_hits.load(),
            result.analysis.observations + result.execution.total_evaluations);
}

TEST(SandboxAcceptance, DegradesToInProcessWhenWorkerMissing) {
  const auto bundle = core::make_builtin_app("synth:case3", 42);
  robust::SandboxOptions sandbox;
  sandbox.argv = {"/nonexistent/tunekit_worker"};

  // Pool creation fails, a warning is logged, and the run completes on the
  // in-process path — isolation is an upgrade, never a new failure mode.
  ASSERT_EQ(robust::WorkerPool::create(sandbox, 1), nullptr);
  core::Methodology m(base_options());
  const auto result = m.run(*bundle.app);
  EXPECT_GT(result.execution.total_evaluations, 0u);
  EXPECT_FALSE(result.plan.searches.empty());
}

}  // namespace
}  // namespace tunekit
