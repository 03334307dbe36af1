// The hardened-evaluation acceptance scenario: a 20-dimensional synthetic
// application with seeded faults — 15% crashes, 5% hangs, heavy-tailed
// measurement noise — driven through every layer that must survive it:
//
//  * Methodology::run (sensitivity, planning, plan execution) completes and
//    returns a valid tuned configuration;
//  * a journaled EvalScheduler session completes, classifying every failure
//    with its EvalOutcome, and the classification survives a journal resume;
//  * a session killed mid-run resumes to exactly the uninterrupted result,
//    because PerConfig faults are deterministic across restarts;
//  * with repeated measurement, influence scoring under heavy-tail noise
//    produces the same DAG partition as a noise-free run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "core/methodology.hpp"
#include "robust/fault_injection.hpp"
#include "robust/measure.hpp"
#include "robust/outcome.hpp"
#include "service/scheduler.hpp"
#include "service/session.hpp"
#include "synth/synth_app.hpp"

namespace tunekit {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The acceptance fault mix: 15% crashes, 5% hangs, heavy-tail noise. Hangs
/// "sleep forever" on the test's timescale and must be reclaimed by the
/// watchdog.
robust::FaultOptions acceptance_faults(std::uint64_t seed) {
  robust::FaultOptions f;
  f.crash_prob = 0.15;
  f.hang_prob = 0.05;
  f.noise_scale = 0.02;
  f.hang_seconds = 30.0;
  f.seed = seed;
  return f;
}

// --- Methodology::run end to end under the acceptance fault mix. ---

TEST(FaultInjection, MethodologyRunSurvivesAcceptanceFaults) {
  synth::SynthApp app(synth::SynthCase::Case3, /*noise_scale=*/0.0);
  robust::FaultyApp faulty(app, acceptance_faults(/*seed=*/42));

  // Strict measurement policy: 3 repeats, 2 of which must succeed, no
  // retries — at 20% per-call fault rate roughly one measurement in ten
  // fails as a whole, so the failure-tolerance paths genuinely run.
  robust::MeasureOptions measure;
  measure.repeats = 3;
  measure.min_ok = 2;
  measure.watchdog.timeout_seconds = 0.1;

  core::MethodologyOptions opt;
  opt.cutoff = 0.25;
  opt.importance_samples = 0;
  opt.sensitivity.n_variations = 6;
  opt.sensitivity.measure = measure;
  opt.executor.evals_per_param = 3;
  opt.executor.min_evals = 6;
  opt.executor.enumerate_threshold = 0.0;
  opt.executor.measure = measure;

  core::Methodology m(opt);
  const auto result = m.run(faulty);

  // Faults actually fired — this was not a clean run.
  EXPECT_GT(faulty.stats().crashes.load(), 0u);
  EXPECT_GT(faulty.stats().hangs.load(), 0u);

  // And yet the pipeline finished with a coherent result.
  EXPECT_FALSE(result.plan.searches.empty());
  EXPECT_FALSE(result.execution.outcomes.empty());
  EXPECT_TRUE(app.space().is_valid(result.execution.final_config));
  EXPECT_GT(result.total_observations, result.analysis.observations);

  // The sensitivity analysis recorded (rather than silently ate) the
  // variation measurements it lost to faults.
  EXPECT_GT(result.analysis.sensitivity.failed_observations, 0u);

  // The searches kept going past their failures: failed evaluations were
  // recorded at the NaN penalty next to finite successes, and every search
  // still found a best point.
  std::size_t failed_evals = 0;
  std::size_t finite_evals = 0;
  for (const auto& outcome : result.execution.outcomes) {
    for (double v : outcome.result.values) {
      if (std::isfinite(v)) {
        ++finite_evals;
      } else {
        ++failed_evals;
      }
    }
    EXPECT_TRUE(outcome.result.found()) << outcome.planned.name;
  }
  EXPECT_GT(failed_evals, 0u);
  EXPECT_GT(finite_evals, 0u);
}

// --- Importance samples: measured under the analysis' watchdog. ---

TEST(FaultInjection, ImportanceSamplesHonorTheWatchdog) {
  synth::SynthApp app(synth::SynthCase::Case1, /*noise_scale=*/0.0);
  robust::FaultOptions fopts;
  fopts.hang_prob = 0.2;
  fopts.hang_seconds = 5.0;
  fopts.seed = 1;  // the baseline (first call) does not hang
  robust::FaultyApp faulty(app, fopts);

  core::MethodologyOptions opt;
  opt.cutoff = 0.25;
  opt.sensitivity.n_variations = 2;
  opt.sensitivity.measure.watchdog.timeout_seconds = 0.1;
  opt.importance_samples = 20;

  std::size_t dropped = 0;
  LogSink previous = set_log_sink([&](LogLevel, const std::string& msg) {
    if (msg.rfind("methodology: importance sample failed", 0) == 0) ++dropped;
  });
  Stopwatch watch;
  const auto analysis = core::Methodology(opt).analyze(faulty);
  const double seconds = watch.seconds();
  set_log_sink(std::move(previous));

  // Hangs are the only fault, so every hang the sensitivity analysis did not
  // lose fell on an importance sample.
  const std::size_t sample_hangs =
      faulty.stats().hangs.load() - analysis.sensitivity.failed_observations;
  ASSERT_GT(sample_hangs, 0u) << "no importance sample hung; the test is vacuous";
  // Each hung sample was cut at the 0.1 s deadline and dropped, instead of
  // costing a full hang and entering the forest as a straggler.
  EXPECT_LT(seconds, fopts.hang_seconds);
  EXPECT_EQ(dropped, sample_hangs);
  EXPECT_FALSE(analysis.importance.empty());
}

// --- Journaled scheduler session: completion + failure classification. ---

TEST(FaultInjection, ScheduledSessionClassifiesEveryFailure) {
  synth::SynthApp app(synth::SynthCase::Case1, /*noise_scale=*/0.0);
  auto fopts = acceptance_faults(/*seed=*/7);
  fopts.nan_prob = 0.05;  // some evaluations return garbage instead of dying
  robust::FaultyObjective faulty(app, fopts);

  const std::string path = temp_path("tunekit_fault_sched.jsonl");
  service::SessionOptions sopt;
  sopt.max_evals = 60;
  sopt.backend = service::SessionBackend::Random;
  sopt.max_attempts = 1;  // drop on first failure so every fault is recorded
  sopt.seed = 9;
  service::TuningSession session(app.space(), sopt, path);

  service::SchedulerOptions scheduler_opt;
  scheduler_opt.n_threads = 4;
  scheduler_opt.measure.watchdog.timeout_seconds = 0.25;
  const auto result = service::EvalScheduler(scheduler_opt).run(session, faulty);

  EXPECT_EQ(session.completed(), 60u);
  EXPECT_EQ(session.state(), service::SessionState::Exhausted);
  EXPECT_EQ(result.evaluations, 60u);

  // Every evaluation is classified, and the classification agrees with the
  // value: failures carry a non-finite penalty, successes a finite time.
  std::map<robust::EvalOutcome, std::size_t> counts;
  for (const auto& e : session.evaluations()) {
    ++counts[e.outcome];
    EXPECT_EQ(robust::is_failure(e.outcome), !std::isfinite(e.value))
        << "outcome " << robust::to_string(e.outcome) << " vs value " << e.value;
  }
  EXPECT_GT(counts[robust::EvalOutcome::Ok], 0u);
  EXPECT_GT(counts[robust::EvalOutcome::Crashed], 0u);      // 15% of 60
  EXPECT_GT(counts[robust::EvalOutcome::TimedOut], 0u);     // 5% of 60
  EXPECT_GT(counts[robust::EvalOutcome::NonFinite], 0u);    // 5% of 60
  EXPECT_EQ(faulty.stats().hangs.load(),
            counts[robust::EvalOutcome::TimedOut]);

  // The classification is durable: resuming the finished journal restores
  // the same outcome histogram, not just the same values.
  auto resumed = service::TuningSession::resume(app.space(), sopt, path);
  std::map<robust::EvalOutcome, std::size_t> resumed_counts;
  for (const auto& e : resumed->evaluations()) ++resumed_counts[e.outcome];
  EXPECT_EQ(resumed_counts, counts);

  std::remove(path.c_str());
  std::filesystem::remove(path + ".snapshot.json");
}

// --- Mid-run kill + resume == uninterrupted, faults included. ---

// PerConfig faults are a deterministic function of the configuration, so a
// crashing point crashes identically before and after the restart — the
// resumed run must reproduce the uninterrupted run exactly, failures and all.
TEST(FaultInjection, ResumeAfterKillMatchesUninterruptedRunWithFaults) {
  synth::SynthApp app(synth::SynthCase::Case1, /*noise_scale=*/0.0);
  robust::FaultOptions fopts;
  fopts.crash_prob = 0.20;
  fopts.nan_prob = 0.05;
  fopts.noise_scale = 0.02;
  fopts.model = robust::FaultModel::PerConfig;
  fopts.seed = 13;

  service::SessionOptions sopt;
  sopt.max_evals = 24;
  sopt.backend = service::SessionBackend::Random;
  sopt.max_attempts = 2;
  sopt.seed = 31;

  const robust::RobustMeasurer measurer;  // trivial options: classify only
  const auto drive_rounds = [&](service::TuningSession& s,
                                robust::FaultyObjective& obj, int rounds) {
    for (int round = 0; rounds < 0 || round < rounds; ++round) {
      const auto batch = s.ask(4);
      if (batch.empty()) return;
      for (const auto& c : batch) {
        const robust::Measurement m = measurer.measure(obj, c.config);
        if (m.outcome == robust::EvalOutcome::Ok) {
          s.tell(c.id, m.value, m.seconds, m.dispersion);
        } else {
          s.tell_failure(c.id, m.outcome);
        }
      }
    }
  };

  const std::string path_a = temp_path("tunekit_fault_uninterrupted.jsonl");
  const std::string path_b = temp_path("tunekit_fault_interrupted.jsonl");

  robust::FaultyObjective reference_obj(app, fopts);
  service::TuningSession reference(app.space(), sopt, path_a);
  drive_rounds(reference, reference_obj, -1);
  const auto ref_result = reference.to_result();
  const auto ref_evals = reference.evaluations();
  ASSERT_EQ(ref_evals.size(), 24u);

  {
    // Two rounds in, the process "dies" with candidates still in flight and
    // failed candidates mid-retry.
    robust::FaultyObjective victim_obj(app, fopts);
    service::TuningSession victim(app.space(), sopt, path_b);
    drive_rounds(victim, victim_obj, 2);
    victim.ask(4);  // issued but never told — must be re-issued on resume
  }

  robust::FaultyObjective resumed_obj(app, fopts);
  auto resumed = service::TuningSession::resume(app.space(), sopt, path_b);
  drive_rounds(*resumed, resumed_obj, -1);

  const auto res_result = resumed->to_result();
  const auto res_evals = resumed->evaluations();
  ASSERT_EQ(res_evals.size(), ref_evals.size());
  for (std::size_t i = 0; i < ref_evals.size(); ++i) {
    EXPECT_EQ(res_evals[i].config, ref_evals[i].config) << "eval " << i;
    EXPECT_EQ(res_evals[i].outcome, ref_evals[i].outcome) << "eval " << i;
    if (std::isfinite(ref_evals[i].value)) {
      EXPECT_DOUBLE_EQ(res_evals[i].value, ref_evals[i].value) << "eval " << i;
    } else {
      EXPECT_FALSE(std::isfinite(res_evals[i].value)) << "eval " << i;
    }
  }
  EXPECT_DOUBLE_EQ(res_result.best_value, ref_result.best_value);
  EXPECT_EQ(res_result.best_config, ref_result.best_config);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::filesystem::remove(path_a + ".snapshot.json");
  std::filesystem::remove(path_b + ".snapshot.json");
}

// --- Influence scoring under noise: same DAG partition as noise-free. ---

TEST(FaultInjection, RepeatedMeasurementPreservesPartitionUnderNoise) {
  core::MethodologyOptions opt;
  opt.cutoff = 0.25;
  opt.importance_samples = 0;
  opt.sensitivity.n_variations = 30;
  opt.sensitivity.ladder_factor = 1.10;

  const auto partition_of = [](core::TunableApp& app,
                               const core::MethodologyOptions& o) {
    core::Methodology m(o);
    const auto analysis = m.analyze(app);
    const auto plan = m.make_plan(app, analysis);
    std::vector<std::string> names;
    for (const auto& s : plan.searches) names.push_back(s.name);
    return names;
  };

  // Reference: the clean app, single measurements.
  synth::SynthApp clean(synth::SynthCase::Case3, /*noise_scale=*/0.0);
  const auto clean_partition = partition_of(clean, opt);
  ASSERT_FALSE(clean_partition.empty());

  // Noisy: heavy-tail noise plus crashes, countered by repeats + MAD
  // trimming + the lower-confidence-bound influence rule.
  synth::SynthApp noisy_inner(synth::SynthCase::Case3, /*noise_scale=*/0.0);
  robust::FaultOptions fopts;
  fopts.noise_scale = 0.05;
  fopts.crash_prob = 0.10;
  fopts.seed = 99;
  robust::FaultyApp noisy(noisy_inner, fopts);

  auto noisy_opt = opt;
  noisy_opt.sensitivity.measure.repeats = 5;
  noisy_opt.sensitivity.measure.watchdog.max_retries = 2;
  const auto noisy_partition = partition_of(noisy, noisy_opt);

  EXPECT_EQ(noisy_partition, clean_partition);
}

}  // namespace
}  // namespace tunekit
