// Process-sandbox tests: every row of the wait-status → EvalOutcome
// classification matrix, exercised against the real crash fixture binary
// (tests/crash_fixture.cpp), plus worker restart, restart-budget exhaustion,
// and crash quarantine at the pool level.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <string>

#include "core/app_registry.hpp"
#include "robust/process_sandbox.hpp"
#include "robust/quarantine.hpp"
#include "robust/worker_pool.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TUNEKIT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TUNEKIT_ASAN 1
#endif
#endif

namespace {

using namespace tunekit;
using robust::EvalOutcome;
using robust::SandboxOptions;
using robust::SandboxResult;
using robust::WorkerPool;

SandboxOptions fixture_options() {
  SandboxOptions opts;
  opts.argv = {TUNEKIT_CRASH_FIXTURE_BIN};
  opts.restart_backoff_seconds = 0.001;
  opts.restart_backoff_max_seconds = 0.01;
  if (const char* dir = std::getenv("TUNEKIT_SANDBOX_LOG_DIR")) {
    opts.stderr_path = std::string(dir) + "/crash_fixture.stderr.log";
  }
  return opts;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

#define REQUIRE_SANDBOX()                                            \
  if (!robust::process_sandbox_supported()) {                        \
    GTEST_SKIP() << "process sandbox unsupported on this platform"; \
  }

TEST(ProcessSandbox, OkReplyCarriesValueAndRegions) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const SandboxResult r = pool.evaluate({0.0, 3.5}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Ok);
  EXPECT_FALSE(r.worker_died);
  EXPECT_DOUBLE_EQ(r.value, 3.5);
  EXPECT_DOUBLE_EQ(r.regions.total, 3.5);
  ASSERT_EQ(r.regions.regions.size(), 2u);
  EXPECT_DOUBLE_EQ(r.regions.regions.at("a"), 1.75);
  EXPECT_DOUBLE_EQ(r.regions.regions.at("b"), 1.75);
  EXPECT_EQ(pool.stats().ok.load(), 1u);
}

TEST(ProcessSandbox, SegfaultClassifiedAsCrashedWithSignal) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const SandboxResult r = pool.evaluate({1.0, 0.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_TRUE(r.worker_died);
  EXPECT_EQ(r.term_signal, SIGSEGV);
  EXPECT_NE(r.error.find("signal"), std::string::npos) << r.error;
}

TEST(ProcessSandbox, AbortClassifiedAsCrashed) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const SandboxResult r = pool.evaluate({2.0, 0.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_TRUE(r.worker_died);
  EXPECT_EQ(r.term_signal, SIGABRT);
}

TEST(ProcessSandbox, NonzeroExitClassifiedAsInvalidConfig) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const SandboxResult r = pool.evaluate({3.0, 7.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::InvalidConfig);
  EXPECT_TRUE(r.worker_died);
  EXPECT_EQ(r.exit_code, 7);
  EXPECT_NE(r.error.find("exited with code 7"), std::string::npos) << r.error;
}

TEST(ProcessSandbox, CleanExitWithoutReplyClassifiedAsCrashed) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const SandboxResult r = pool.evaluate({3.0, 0.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_TRUE(r.worker_died);
  EXPECT_NE(r.error.find("without replying"), std::string::npos) << r.error;
}

TEST(ProcessSandbox, HungWorkerIsKilledAtDeadline) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const double deadline = 0.5;
  const auto t0 = std::chrono::steady_clock::now();
  const SandboxResult r = pool.evaluate({4.0, 0.0}, deadline);
  const double elapsed = seconds_since(t0);
  EXPECT_EQ(r.outcome, EvalOutcome::TimedOut);
  EXPECT_TRUE(r.worker_died);
  // The SIGKILL must land promptly: within the deadline plus a generous
  // epsilon for scheduling noise, far below the "waits forever" failure mode.
  EXPECT_LT(elapsed, deadline + 1.5);
  EXPECT_GE(elapsed, deadline * 0.5);
}

TEST(ProcessSandbox, MemoryHogDiesUnderRlimit) {
  REQUIRE_SANDBOX();
#ifdef TUNEKIT_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan's shadow memory";
#else
  SandboxOptions opts = fixture_options();
  opts.mem_limit_mb = 256.0;
  WorkerPool pool(opts, 1);
  const SandboxResult r = pool.evaluate({5.0, 0.0}, 20.0);
  // malloc failure aborts (SIGABRT) or the touch faults (SIGSEGV); either
  // way the limit turned unbounded growth into a contained signal death.
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_TRUE(r.worker_died);
#endif
}

TEST(ProcessSandbox, GarbageReplyClassifiedAsInvalidConfig) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  const SandboxResult r = pool.evaluate({6.0, 0.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::InvalidConfig);
  EXPECT_TRUE(r.worker_died);  // the protocol is broken: worker was killed
  EXPECT_NE(r.error.find("malformed"), std::string::npos) << r.error;
}

TEST(ProcessSandbox, SilentWorkerTripsLivenessTimeout) {
  REQUIRE_SANDBOX();
  SandboxOptions opts = fixture_options();
  opts.liveness_timeout_seconds = 0.5;
  WorkerPool pool(opts, 1);
  const auto t0 = std::chrono::steady_clock::now();
  const SandboxResult r = pool.evaluate({7.0, 0.0}, 30.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_TRUE(r.worker_died);
  EXPECT_NE(r.error.find("silent"), std::string::npos) << r.error;
  EXPECT_LT(seconds_since(t0), 5.0);  // long before the 30 s deadline
}

TEST(ProcessSandbox, WorkerRestartsAfterCrash) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1);
  EXPECT_EQ(pool.evaluate({1.0, 0.0}, 10.0).outcome, EvalOutcome::Crashed);
  const SandboxResult r = pool.evaluate({0.0, 2.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(r.value, 2.0);
  EXPECT_GE(pool.stats().restarts.load(), 1u);
  EXPECT_TRUE(pool.healthy());
}

TEST(ProcessSandbox, RestartBudgetExhaustionFastFails) {
  REQUIRE_SANDBOX();
  SandboxOptions opts = fixture_options();
  opts.max_restarts = 1;
  // quarantine_after=0 disables quarantine so the same config can keep
  // crashing and exhaust the restart budget instead.
  WorkerPool pool(opts, 1, /*quarantine_after=*/0);
  SandboxResult r;
  for (int i = 0; i < 4; ++i) r = pool.evaluate({1.0, 0.0}, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_NE(r.error.find("restart budget exhausted"), std::string::npos)
      << r.error;
  EXPECT_FALSE(pool.healthy());
}

TEST(ProcessSandbox, QuarantineRefusesRepeatOffender) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1, /*quarantine_after=*/2);
  const search::Config offender = {1.0, 0.0};
  EXPECT_EQ(pool.evaluate(offender, 10.0).outcome, EvalOutcome::Crashed);
  EXPECT_FALSE(pool.quarantine().quarantined(offender));
  EXPECT_EQ(pool.evaluate(offender, 10.0).outcome, EvalOutcome::Crashed);
  EXPECT_TRUE(pool.quarantine().quarantined(offender));

  const SandboxResult r = pool.evaluate(offender, 10.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Crashed);
  EXPECT_FALSE(r.worker_died);  // refused pre-dispatch, no worker touched
  EXPECT_NE(r.error.find("quarantined"), std::string::npos) << r.error;
  EXPECT_EQ(pool.stats().dispatched.load(), 2u);
  EXPECT_EQ(pool.stats().quarantine_hits.load(), 1u);

  // A different config still runs fine.
  EXPECT_EQ(pool.evaluate({0.0, 1.0}, 10.0).outcome, EvalOutcome::Ok);
}

TEST(ProcessSandbox, TimeoutsDoNotCountTowardQuarantine) {
  REQUIRE_SANDBOX();
  WorkerPool pool(fixture_options(), 1, /*quarantine_after=*/2);
  const search::Config hanger = {4.0, 0.0};
  EXPECT_EQ(pool.evaluate(hanger, 0.3).outcome, EvalOutcome::TimedOut);
  EXPECT_EQ(pool.evaluate(hanger, 0.3).outcome, EvalOutcome::TimedOut);
  const SandboxResult r = pool.evaluate(hanger, 0.3);
  EXPECT_EQ(r.outcome, EvalOutcome::TimedOut);  // still dispatched, not refused
  EXPECT_EQ(pool.stats().quarantine_hits.load(), 0u);
}

TEST(ProcessSandbox, CreateDegradesOnMissingBinary) {
  SandboxOptions sandbox;
  sandbox.argv = {"/nonexistent/tunekit_worker_that_is_not_there"};
  EXPECT_EQ(WorkerPool::create(sandbox, 2), nullptr);
}

TEST(ProcessSandbox, RealWorkerEvaluatesSynthApp) {
  REQUIRE_SANDBOX();
  SandboxOptions sandbox;
  sandbox.argv = {TUNEKIT_WORKER_BIN, "--app", "synth:case1", "--seed", "7"};
  auto pool = WorkerPool::create(sandbox, 1);
  ASSERT_NE(pool, nullptr);
  // synth:case1's space defaults are a valid config of the right arity.
  core::AppBundle bundle = core::make_builtin_app("synth:case1", 7);
  const SandboxResult r = pool->evaluate(bundle.app->space().defaults(), 30.0);
  EXPECT_EQ(r.outcome, EvalOutcome::Ok) << r.error;
  EXPECT_TRUE(std::isfinite(r.value));
  EXPECT_FALSE(r.regions.regions.empty());
}

TEST(ProcessSandbox, RealWorkerRejectsWrongArity) {
  REQUIRE_SANDBOX();
  SandboxOptions sandbox;
  sandbox.argv = {TUNEKIT_WORKER_BIN, "--app", "synth:case1", "--seed", "7"};
  auto pool = WorkerPool::create(sandbox, 1);
  ASSERT_NE(pool, nullptr);
  const SandboxResult r = pool->evaluate({1.0}, 30.0);
  EXPECT_EQ(r.outcome, EvalOutcome::InvalidConfig);
  EXPECT_FALSE(r.worker_died);  // polite protocol-level rejection
}

TEST(CrashQuarantine, ThresholdAndRestore) {
  robust::CrashQuarantine q(2);
  const search::Config a = {1.0, 2.0};
  const search::Config b = {1.0, 2.000001};
  EXPECT_EQ(q.record_crash(a), 1u);
  EXPECT_FALSE(q.quarantined(a));
  EXPECT_EQ(q.record_crash(a), 2u);
  EXPECT_TRUE(q.quarantined(a));
  EXPECT_FALSE(q.quarantined(b));  // bit-exact keying: near-misses distinct
  EXPECT_EQ(q.size(), 1u);

  // Journal-restore path: quarantine_now is immediately effective.
  robust::CrashQuarantine restored(2);
  restored.quarantine_now(a);
  EXPECT_TRUE(restored.quarantined(a));

  robust::CrashQuarantine disabled(0);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_EQ(disabled.record_crash(a), 0u);
  EXPECT_FALSE(disabled.quarantined(a));
}

}  // namespace
