#include "robust/watchdog.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/stopwatch.hpp"

namespace tunekit::robust {

namespace {

/// One attempt's classified result.
struct Attempt {
  EvalOutcome outcome = EvalOutcome::Crashed;
  search::RegionTimes regions;
  std::string error;
};

EvalOutcome classify_times(const search::RegionTimes& t) {
  if (!std::isfinite(t.total)) return EvalOutcome::NonFinite;
  for (const auto& [name, value] : t.regions) {
    if (!std::isfinite(value)) return EvalOutcome::NonFinite;
  }
  return EvalOutcome::Ok;
}

Attempt run_attempt(const std::function<search::RegionTimes(const search::CancelFlag&)>& call,
                    const search::CancelFlag& cancel) {
  Attempt a;
  try {
    a.regions = call(cancel);
    a.outcome = classify_times(a.regions);
    if (a.outcome == EvalOutcome::NonFinite) a.error = "non-finite measurement";
  } catch (const EvalFailure& e) {
    a.outcome = e.outcome();
    a.error = e.what();
  } catch (const std::invalid_argument& e) {
    a.outcome = EvalOutcome::InvalidConfig;
    a.error = e.what();
  } catch (const std::exception& e) {
    a.outcome = EvalOutcome::Crashed;
    a.error = e.what();
  } catch (...) {
    // A non-std::exception throw from a user objective is still a crash, not
    // a process abort.
    a.outcome = EvalOutcome::Crashed;
    a.error = "non-standard exception";
  }
  return a;
}

/// State shared with the worker thread; kept alive by shared_ptr so an
/// abandoned (timed-out, detached) worker stays memory-safe.
struct WorkerState {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Attempt attempt;
};

Attempt attempt_with_deadline(
    const std::function<search::RegionTimes(const search::CancelFlag&)>& call,
    double timeout_seconds) {
  auto state = std::make_shared<WorkerState>();
  search::CancelFlag cancel;
  // `call` is copied into the worker: on timeout the caller returns while the
  // worker may still be running. The objective it references must either
  // honor the cancel flag promptly or outlive the abandoned attempt.
  std::thread worker([state, call, cancel]() {
    Attempt a = run_attempt(call, cancel);
    std::lock_guard<std::mutex> lock(state->mutex);
    state->attempt = std::move(a);
    state->done = true;
    state->cv.notify_all();
  });

  std::unique_lock<std::mutex> lock(state->mutex);
  const bool finished = state->cv.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [&] { return state->done; });
  if (finished) {
    Attempt a = std::move(state->attempt);
    lock.unlock();
    worker.join();
    return a;
  }
  // Give the attempt one more deadline to acknowledge the cancel. A
  // cooperative objective returns within it and is joined, so the caller may
  // destroy the objective (and anything else the attempt touched) the moment
  // this returns. Only an attempt that ignores the flag is abandoned.
  cancel.cancel();
  const bool acknowledged = state->cv.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [&] { return state->done; });
  lock.unlock();
  if (acknowledged) {
    worker.join();
  } else {
    worker.detach();
  }
  Attempt a;
  a.outcome = EvalOutcome::TimedOut;
  a.error = "deadline of " + std::to_string(timeout_seconds) + "s expired";
  return a;
}

}  // namespace

GuardedEval Watchdog::guard(
    const std::function<search::RegionTimes(const search::CancelFlag&)>& call) const {
  Stopwatch watch;
  GuardedEval out;
  double backoff = options_.backoff_seconds;
  const std::size_t max_attempts = 1 + options_.max_retries;
  for (std::size_t k = 0; k < max_attempts; ++k) {
    Attempt a = std::isfinite(options_.timeout_seconds)
                    ? attempt_with_deadline(call, options_.timeout_seconds)
                    : run_attempt(call, search::CancelFlag());
    ++out.attempts;
    out.outcome = a.outcome;
    out.error = std::move(a.error);
    if (a.outcome == EvalOutcome::Ok) {
      out.regions = std::move(a.regions);
      out.value = out.regions.total;
      break;
    }
    // Only transient crashes are worth retrying: a timeout costs a whole
    // deadline per attempt and an invalid configuration is deterministic.
    if (a.outcome != EvalOutcome::Crashed || k + 1 == max_attempts) break;
    if (backoff > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      backoff = std::min(backoff * 2.0, options_.backoff_max_seconds);
    }
  }
  out.seconds = watch.seconds();
  return out;
}

GuardedEval Watchdog::evaluate(search::Objective& objective,
                               const search::Config& config) const {
  // `config` is captured by value: an abandoned attempt must not read the
  // caller's copy after evaluate() has returned.
  return guard([&objective, config](const search::CancelFlag& cancel) {
    search::RegionTimes t;
    t.total = objective.evaluate_cancellable(config, cancel);
    return t;
  });
}

GuardedEval Watchdog::evaluate_regions(search::RegionObjective& objective,
                                       const search::Config& config) const {
  return guard([&objective, config](const search::CancelFlag& cancel) {
    return objective.evaluate_regions_cancellable(config, cancel);
  });
}

}  // namespace tunekit::robust
