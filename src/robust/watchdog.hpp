#pragma once
// Watchdog: run one evaluation with a per-call deadline and classify the
// outcome (paper context: real HPC runs hang — Case Study 2 imposes a
// 15-minute timeout per configuration — and transient MPI/IO crashes are
// routine).
//
// With a finite timeout the evaluation runs on a worker thread holding a
// CancelFlag. If the deadline passes, the flag is set and the caller gets
// EvalOutcome::TimedOut. A cooperative objective polls the flag and exits
// promptly; the watchdog waits up to one more deadline for that and joins
// the thread, so nothing outlives the call. A non-cooperative one is
// abandoned (detached; its shared state keeps it memory-safe) and keeps its
// thread until the evaluation finishes on its own, which is the best any
// in-process watchdog can do without killing threads. Such an objective
// must outlive its abandoned attempts.
//
// Transient crashes (EvalOutcome::Crashed) are re-attempted up to
// `max_retries` times with bounded exponential backoff. Timeouts and invalid
// configurations are not retried: a hang costs a full deadline per attempt,
// and an invalid configuration is deterministic.

#include <functional>
#include <limits>
#include <string>

#include "robust/outcome.hpp"
#include "search/objective.hpp"

namespace tunekit::robust {

struct WatchdogOptions {
  /// Per-call deadline in seconds; infinity disables the worker thread and
  /// runs the evaluation inline.
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// Extra attempts after a Crashed outcome (0 = no retries).
  std::size_t max_retries = 0;
  /// Sleep before the first retry; doubled per retry, capped at
  /// backoff_max_seconds. 0 retries immediately.
  double backoff_seconds = 0.0;
  double backoff_max_seconds = 1.0;
};

/// Result of one guarded evaluation (after retries).
struct GuardedEval {
  EvalOutcome outcome = EvalOutcome::Crashed;
  /// Objective value; NaN unless outcome == Ok.
  double value = std::numeric_limits<double>::quiet_NaN();
  /// Region times (evaluate_regions path); empty otherwise.
  search::RegionTimes regions;
  /// Wall-clock seconds across all attempts.
  double seconds = 0.0;
  /// Attempts consumed (1 = no retry needed).
  std::size_t attempts = 0;
  /// Exception message of the last failure (empty on success).
  std::string error;
};

class Watchdog {
 public:
  explicit Watchdog(WatchdogOptions options = {}) : options_(options) {}

  const WatchdogOptions& options() const { return options_; }

  GuardedEval evaluate(search::Objective& objective, const search::Config& config) const;
  GuardedEval evaluate_regions(search::RegionObjective& objective,
                               const search::Config& config) const;

 private:
  GuardedEval guard(
      const std::function<search::RegionTimes(const search::CancelFlag&)>& call) const;

  WatchdogOptions options_;
};

}  // namespace tunekit::robust
