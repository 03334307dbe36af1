#include "service/session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <thread>
#include <utility>

namespace tunekit::service {
namespace {

search::SearchSpace two_dim_space() {
  search::SearchSpace s;
  s.add(search::ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(search::ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

double sphere(const search::Config& c) { return c[0] * c[0] + c[1] * c[1]; }

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SessionOptions fast_bo_options(std::size_t max_evals, std::uint64_t seed = 11) {
  SessionOptions opt;
  opt.max_evals = max_evals;
  opt.n_init = 4;
  opt.backend = SessionBackend::Bo;
  opt.bo.hyperopt_restarts = 1;
  opt.bo.hyperopt_max_iters = 20;
  opt.seed = seed;
  return opt;
}

TEST(TuningSession, AskHonorsBudgetAndExhausts) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto batch = session.ask(10);
  EXPECT_EQ(batch.size(), 6u);          // capped by budget
  EXPECT_TRUE(session.ask(4).empty());  // everything outstanding
  for (const auto& c : batch) {
    EXPECT_TRUE(space.is_valid(c.config));
    EXPECT_TRUE(session.tell(c.id, sphere(c.config)));
  }
  EXPECT_EQ(session.completed(), 6u);
  EXPECT_EQ(session.state(), SessionState::Exhausted);
  EXPECT_TRUE(session.ask(1).empty());
  ASSERT_TRUE(session.best().has_value());
}

TEST(TuningSession, TellOutOfOrderAndPartial) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto batch = session.ask(4);
  ASSERT_EQ(batch.size(), 4u);
  // Reverse order, and only half of them.
  EXPECT_TRUE(session.tell(batch[3].id, 3.0));
  EXPECT_TRUE(session.tell(batch[1].id, 1.0));
  EXPECT_EQ(session.completed(), 2u);
  EXPECT_EQ(session.outstanding(), 2u);
  // Unknown and duplicate tells are rejected, not fatal.
  EXPECT_FALSE(session.tell(9999, 1.0));
  EXPECT_FALSE(session.tell(batch[1].id, 1.0));
  EXPECT_EQ(session.completed(), 2u);
}

TEST(TuningSession, FailureRetriedThenDroppedAtPenalty) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 4;
  opt.max_attempts = 2;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto first = session.ask(1);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(session.tell_failure(first[0].id));
  EXPECT_EQ(session.completed(), 0u);  // queued for retry, not consumed

  auto retry = session.ask(1);
  ASSERT_EQ(retry.size(), 1u);
  EXPECT_EQ(retry[0].id, first[0].id);
  EXPECT_EQ(retry[0].attempt, 1u);
  EXPECT_EQ(retry[0].config, first[0].config);

  EXPECT_TRUE(session.tell_failure(retry[0].id));  // attempts exhausted
  EXPECT_EQ(session.completed(), 1u);              // dropped: budget consumed
  const auto evals = session.evaluations();
  EXPECT_TRUE(std::isnan(evals[0].value));  // default failure_penalty
}

// A non-finite tell reaches the surrogate at failure_penalty, the rule
// BayesOpt::run applies to crashing evaluations: the session told +inf asks
// exactly what its twin told the penalty value itself asks.
TEST(TuningSession, FailurePenaltyReachesTheSurrogate) {
  const auto space = two_dim_space();
  auto next_after = [&](double last_value) {
    SessionOptions opt = fast_bo_options(10, 23);
    opt.failure_penalty = 100.0;
    TuningSession session(space, opt);
    const auto init = session.ask(4);  // the initial design
    EXPECT_EQ(init.size(), 4u);
    for (std::size_t i = 0; i < init.size(); ++i) {
      const bool last = i + 1 == init.size();
      EXPECT_TRUE(session.tell(init[i].id, last ? last_value : sphere(init[i].config)));
    }
    const auto next = session.ask(1);
    EXPECT_EQ(next.size(), 1u);
    return next.empty() ? search::Config{} : next[0].config;
  };
  EXPECT_EQ(next_after(std::numeric_limits<double>::infinity()), next_after(100.0));
}

TEST(TuningSession, DeadlineExpiryRequeues) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 4;
  opt.deadline_seconds = 0.02;
  opt.max_attempts = 3;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto first = session.ask(1);
  ASSERT_EQ(first.size(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  auto second = session.ask(1);  // expiry detected here
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, first[0].id);
  EXPECT_EQ(second[0].attempt, 1u);
  // A (very) late tell for the expired issue is rejected — the candidate was
  // re-issued under the same id, so only the new issue can resolve it once.
  EXPECT_TRUE(session.tell(second[0].id, 1.0));
  EXPECT_FALSE(session.tell(second[0].id, 1.0));
}

TEST(TuningSession, ReissuesDrainBeforeNewSuggestions) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 8;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);

  auto batch = session.ask(2);
  ASSERT_EQ(batch.size(), 2u);
  session.tell_failure(batch[0].id);
  const auto next = session.ask(4);  // only the retry until it resolves
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id, batch[0].id);
}

TEST(TuningSession, RandomBackendDeterministicAcrossInterleaving) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  opt.seed = 77;
  TuningSession a(space, opt);
  TuningSession b(space, opt);

  const auto batch_a = a.ask(6);
  // b interleaves asks and tells; candidate ids must map to the same configs.
  std::vector<Candidate> batch_b = b.ask(2);
  for (const auto& c : batch_b) b.tell(c.id, sphere(c.config));
  for (const auto& c : b.ask(4)) batch_b.push_back(c);
  ASSERT_EQ(batch_a.size(), batch_b.size());
  for (std::size_t i = 0; i < batch_a.size(); ++i) {
    EXPECT_EQ(batch_a[i].id, batch_b[i].id);
    EXPECT_EQ(batch_a[i].config, batch_b[i].config);
  }
}

TEST(TuningSession, GridBackendEnumeratesDiscreteSpace) {
  search::SearchSpace space;
  space.add(search::ParamSpec::ordinal("a", {1, 2, 4}, 1));
  space.add(search::ParamSpec::integer("b", 0, 1, 0));
  SessionOptions opt;
  opt.max_evals = 10;  // more than the 6 grid points
  opt.backend = SessionBackend::Grid;
  TuningSession session(space, opt);

  auto batch = session.ask(10);
  EXPECT_EQ(batch.size(), 6u);  // supply-limited
  std::set<std::pair<double, double>> seen;
  for (const auto& c : batch) {
    session.tell(c.id, c.config[0] + c.config[1]);
    seen.insert({c.config[0], c.config[1]});
  }
  EXPECT_EQ(seen.size(), 6u);  // every grid point exactly once
  EXPECT_EQ(session.state(), SessionState::Exhausted);
}

TEST(TuningSession, BoBackendAvoidsDuplicatesAcrossPendingAsks) {
  const auto space = two_dim_space();
  auto opt = fast_bo_options(12);
  TuningSession session(space, opt);

  // Initial design, told immediately so the surrogate has data.
  for (const auto& c : session.ask(4)) session.tell(c.id, sphere(c.config));
  // Two asks with NO tell in between: constant-liar pending candidates must
  // steer the second ask elsewhere.
  auto first = session.ask(2);
  auto second = session.ask(2);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (const auto& a : first) {
    for (const auto& b : second) EXPECT_NE(a.config, b.config);
  }
}

TEST(TuningSession, ObserveConsumesBudget) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 3;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);
  session.observe({1.0, 1.0}, 2.0);
  session.observe({0.5, 0.5}, 0.5);
  EXPECT_EQ(session.completed(), 2u);
  EXPECT_EQ(session.ask(5).size(), 1u);
  EXPECT_DOUBLE_EQ(session.best()->value, 0.5);
}

TEST(TuningSession, ClosedSessionIssuesNothing) {
  const auto space = two_dim_space();
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  TuningSession session(space, opt);
  session.close();
  EXPECT_EQ(session.state(), SessionState::Closed);
  EXPECT_TRUE(session.ask(3).empty());
}

// The acceptance scenario: a journaled session killed after ask(4) + 2 tells
// resumes with the same remaining budget, re-issues the 2 untold candidates,
// and finishes with exactly the result of an uninterrupted run.
TEST(TuningSession, JournalResumeMatchesUninterruptedRun) {
  const auto space = two_dim_space();
  const std::string path_a = temp_path("tunekit_session_uninterrupted.jsonl");
  const std::string path_b = temp_path("tunekit_session_interrupted.jsonl");

  const auto drive_to_exhaustion = [&](TuningSession& s) {
    while (true) {
      const auto batch = s.ask(4);
      if (batch.empty()) break;
      for (const auto& c : batch) s.tell(c.id, sphere(c.config));
    }
  };

  // Uninterrupted reference run.
  auto opt = fast_bo_options(12, /*seed=*/21);
  TuningSession reference(space, opt, path_a);
  drive_to_exhaustion(reference);
  const auto ref_result = reference.to_result();
  ASSERT_EQ(ref_result.evaluations, 12u);

  std::vector<Candidate> untold;
  {
    // Interrupted run: ask(4), tell 2, then the process "dies" (the session
    // goes out of scope without any closing write).
    TuningSession victim(space, opt, path_b);
    auto batch = victim.ask(4);
    ASSERT_EQ(batch.size(), 4u);
    victim.tell(batch[0].id, sphere(batch[0].config));
    victim.tell(batch[1].id, sphere(batch[1].config));
    untold = {batch[2], batch[3]};
  }

  auto resumed = TuningSession::resume(space, opt, path_b);
  const auto status = resumed->status();
  EXPECT_EQ(status.completed, 2u);
  EXPECT_EQ(status.queued, 2u);
  EXPECT_EQ(status.remaining, 8u);  // identical remaining budget: 12 - 2 - 2

  // The two untold candidates come back first, unchanged.
  const auto reissued = resumed->ask(4);
  ASSERT_EQ(reissued.size(), 2u);
  EXPECT_EQ(reissued[0].id, untold[0].id);
  EXPECT_EQ(reissued[0].config, untold[0].config);
  EXPECT_EQ(reissued[1].id, untold[1].id);
  EXPECT_EQ(reissued[1].config, untold[1].config);
  for (const auto& c : reissued) resumed->tell(c.id, sphere(c.config));

  drive_to_exhaustion(*resumed);
  const auto res_result = resumed->to_result();
  EXPECT_EQ(res_result.evaluations, ref_result.evaluations);
  EXPECT_DOUBLE_EQ(res_result.best_value, ref_result.best_value);
  EXPECT_EQ(res_result.best_config, ref_result.best_config);
  EXPECT_EQ(res_result.values, ref_result.values);

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::filesystem::remove(path_a + ".snapshot.json");
  std::filesystem::remove(path_b + ".snapshot.json");
}

// Failed and dropped candidates survive a crash-resume round trip: the
// classified failure outcomes, the NaN failure_penalty records, the measured
// dispersions, and the per-candidate retry budget all come back.
TEST(TuningSession, FailureRecordsSurviveResume) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_failures.jsonl");
  SessionOptions opt;
  opt.max_evals = 6;
  opt.max_attempts = 2;
  opt.backend = SessionBackend::Random;

  std::uint64_t midretry_id = 0;
  {
    TuningSession session(space, opt, path);
    auto batch = session.ask(3);
    ASSERT_EQ(batch.size(), 3u);
    // Candidate 0 times out twice — attempts exhausted, dropped at penalty.
    session.tell_failure(batch[0].id, robust::EvalOutcome::TimedOut);
    auto retry = session.ask(1);
    ASSERT_EQ(retry.size(), 1u);
    ASSERT_EQ(retry[0].id, batch[0].id);
    session.tell_failure(retry[0].id, robust::EvalOutcome::TimedOut);
    // Candidate 1 crashes once and is awaiting its retry when the process
    // "dies".
    session.tell_failure(batch[1].id, robust::EvalOutcome::Crashed);
    // Candidate 2 succeeds, with a repeat-measurement dispersion.
    session.tell(batch[2].id, 4.0, /*cost_seconds=*/0.5, /*dispersion=*/0.25);
    midretry_id = batch[1].id;
  }

  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 2u);
  const auto evals = resumed->evaluations();
  ASSERT_EQ(evals.size(), 2u);
  // The drop kept its classified outcome, not a generic crash.
  EXPECT_EQ(evals[0].outcome, robust::EvalOutcome::TimedOut);
  EXPECT_TRUE(std::isnan(evals[0].value));  // default failure_penalty
  EXPECT_EQ(evals[1].outcome, robust::EvalOutcome::Ok);
  EXPECT_DOUBLE_EQ(evals[1].value, 4.0);
  EXPECT_DOUBLE_EQ(evals[1].dispersion, 0.25);

  // The mid-retry candidate is re-issued with its attempt count intact, so
  // one more failure exhausts the budget exactly as it would have pre-kill.
  auto reissued = resumed->ask(1);
  ASSERT_EQ(reissued.size(), 1u);
  EXPECT_EQ(reissued[0].id, midretry_id);
  EXPECT_EQ(reissued[0].attempt, 1u);
  resumed->tell_failure(reissued[0].id, robust::EvalOutcome::Crashed);
  EXPECT_EQ(resumed->completed(), 3u);
  const auto after = resumed->evaluations();
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[2].outcome, robust::EvalOutcome::Crashed);
  EXPECT_TRUE(std::isnan(after[2].value));

  std::remove(path.c_str());
  std::filesystem::remove(path + ".snapshot.json");
}

TEST(TuningSession, CompactionBoundsJournalAndPreservesState) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_compact.jsonl");
  SessionOptions opt;
  opt.max_evals = 20;
  opt.backend = SessionBackend::Random;
  opt.compact_every = 4;
  opt.seed = 5;
  std::vector<Candidate> untold;
  {
    TuningSession session(space, opt, path);
    for (int round = 0; round < 4; ++round) {
      const auto batch = session.ask(4);
      for (const auto& c : batch) session.tell(c.id, sphere(c.config));
    }
    untold = session.ask(2);  // left in flight across the "crash"
    ASSERT_EQ(untold.size(), 2u);
  }
  EXPECT_TRUE(std::filesystem::exists(path + ".snapshot.json"));
  // The compacted journal holds the header plus only in-flight asks.
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  EXPECT_LE(lines, 1u + 2u + 4u);  // header + in-flight (+ at most one round)

  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 16u);
  const auto reissued = resumed->ask(4);
  ASSERT_EQ(reissued.size(), 2u);
  EXPECT_EQ(reissued[0].config, untold[0].config);
  EXPECT_EQ(reissued[1].config, untold[1].config);

  std::remove(path.c_str());
  std::filesystem::remove(path + ".snapshot.json");
}

TEST(TuningSession, TornFinalJournalLineIsIgnored) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_torn.jsonl");
  SessionOptions opt;
  opt.max_evals = 6;
  opt.backend = SessionBackend::Random;
  {
    TuningSession session(space, opt, path);
    const auto batch = session.ask(2);
    session.tell(batch[0].id, 1.0);
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"e\":\"tel";  // torn write: the crash hit mid-line
  }
  auto resumed = TuningSession::resume(space, opt, path);
  EXPECT_EQ(resumed->completed(), 1u);
  EXPECT_EQ(resumed->status().queued, 1u);
  std::remove(path.c_str());
}

TEST(TuningSession, ResumeRejectsSpaceMismatch) {
  const auto space = two_dim_space();
  const std::string path = temp_path("tunekit_session_mismatch.jsonl");
  SessionOptions opt;
  opt.max_evals = 4;
  opt.backend = SessionBackend::Random;
  { TuningSession session(space, opt, path); }
  search::SearchSpace other;
  other.add(search::ParamSpec::real("only", 0.0, 1.0, 0.5));
  EXPECT_THROW(TuningSession::resume(other, opt, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(SessionBackendNames, RoundTrip) {
  EXPECT_EQ(backend_from_string("bo"), SessionBackend::Bo);
  EXPECT_EQ(backend_from_string("random"), SessionBackend::Random);
  EXPECT_EQ(backend_from_string("grid"), SessionBackend::Grid);
  EXPECT_THROW(backend_from_string("annealing"), std::invalid_argument);
  EXPECT_STREQ(to_string(SessionState::Exhausted), "exhausted");
}

}  // namespace
}  // namespace tunekit::service
