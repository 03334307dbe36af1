#pragma once
// WorkerPool: a supervised pool of sandboxed worker processes, plus the
// adapters that route evaluations through it (or through any EvalBackend).
//
// The pool owns N WorkerProcess slots. evaluate() checks the crash
// quarantine, checks out a slot (blocking until one is free), lazily
// (re)spawns its worker with bounded exponential backoff, runs the round
// trip, and — when the worker died — schedules a respawn for the next
// checkout. A slot whose worker dies `max_restarts` times in a row stops
// respawning; once every slot has given up, evaluate() returns Crashed
// ("restart budget exhausted") and healthy() is false. Only a pool that
// cannot start at all degrades: create() then returns null and the caller
// keeps evaluating in process.
//
// Where evaluations run is decided once, by whoever builds the pool: a
// caller that wants isolation wraps its app in a SandboxedApp (the
// methodology, the executor and the sensitivity analysis then see an
// ordinary thread-safe TunableApp) or hands the pool to
// SchedulerOptions::backend. Sharing one pool across phases carries
// quarantine knowledge and live workers over from one phase to the next.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tunable_app.hpp"
#include "robust/eval_backend.hpp"
#include "robust/process_sandbox.hpp"
#include "robust/quarantine.hpp"
#include "search/objective.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::robust {

class WorkerPool final : public EvalBackend {
 public:
  struct Stats {
    std::atomic<std::size_t> dispatched{0};      ///< requests sent to a worker
    std::atomic<std::size_t> ok{0};
    std::atomic<std::size_t> crashed{0};
    std::atomic<std::size_t> timed_out{0};
    std::atomic<std::size_t> invalid{0};
    std::atomic<std::size_t> non_finite{0};
    std::atomic<std::size_t> restarts{0};        ///< worker respawns after death
    std::atomic<std::size_t> quarantine_hits{0}; ///< evals refused pre-dispatch
  };

  /// Build a pool of `n_workers`. Returns null — after a log_warn — when
  /// the platform has no process sandbox, no worker binary is configured,
  /// or the first worker cannot be spawned (callers degrade to the
  /// in-process path).
  static std::shared_ptr<WorkerPool> create(const SandboxOptions& sandbox,
                                            std::size_t n_workers,
                                            std::size_t quarantine_after = 2,
                                            obs::Telemetry* telemetry = nullptr);

  WorkerPool(SandboxOptions sandbox, std::size_t n_workers,
             std::size_t quarantine_after = 2,
             obs::Telemetry* telemetry = nullptr);
  ~WorkerPool() override;

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Evaluate `config` on some worker, waiting for a free slot if needed.
  /// Never throws: every failure mode comes back as a classified
  /// SandboxResult. Thread-safe.
  SandboxResult evaluate(const search::Config& config,
                         double deadline_seconds) override;

  /// At least one slot can still (re)spawn a worker.
  bool healthy() const override;

  std::size_t concurrency() const override { return slots_.size(); }
  std::size_t n_workers() const { return slots_.size(); }
  const Stats& stats() const { return stats_; }
  obs::Telemetry* telemetry() const { return telemetry_; }
  CrashQuarantine& quarantine() { return quarantine_; }
  const CrashQuarantine& quarantine() const { return quarantine_; }

 private:
  struct Slot {
    std::unique_ptr<WorkerProcess> worker;
    std::size_t consecutive_deaths = 0;
    bool in_use = false;
    bool given_up = false;
  };

  std::size_t acquire_slot();
  void release_slot(std::size_t index);

  SandboxOptions sandbox_;
  CrashQuarantine quarantine_;
  std::vector<Slot> slots_;
  Stats stats_;
  obs::Telemetry* telemetry_ = nullptr;
  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
};

/// Scalar objective whose evaluations run on an EvalBackend (a local
/// WorkerPool or a fleet dispatcher). Failures are re-thrown as EvalFailure
/// with the classified outcome, the contract the watchdog (and through it
/// RobustMeasurer, search::drive and the schedulers) already understands.
class SandboxedObjective final : public search::Objective {
 public:
  SandboxedObjective(std::shared_ptr<EvalBackend> pool, double deadline_seconds)
      : pool_(std::move(pool)), deadline_seconds_(deadline_seconds) {}

  double evaluate(const search::Config& config) override;
  /// The pool enforces its own (SIGKILL) deadline; the flag is ignored.
  double evaluate_cancellable(const search::Config& config,
                              const search::CancelFlag&) override {
    return evaluate(config);
  }
  bool thread_safe() const override { return true; }

 private:
  std::shared_ptr<EvalBackend> pool_;
  double deadline_seconds_;
};

/// TunableApp decorator: metadata (space, routines, baseline, ...) comes
/// from the in-process app object; evaluations run out of process on the
/// pool, under its SIGKILL `deadline_seconds`. Every phase of the
/// methodology evaluates through it — the full-space config crosses the
/// process boundary, so subspace embedding stays supervisor-side where the
/// base configuration lives. Callers measure it with an infinite watchdog
/// timeout: the pool's deadline replaces the in-process one.
class SandboxedApp final : public core::TunableApp {
 public:
  SandboxedApp(core::TunableApp& inner, std::shared_ptr<EvalBackend> pool,
               double deadline_seconds)
      : inner_(inner), pool_(std::move(pool)), deadline_seconds_(deadline_seconds) {}

  const search::SearchSpace& space() const override { return inner_.space(); }
  std::vector<core::RoutineSpec> routines() const override { return inner_.routines(); }
  std::vector<std::string> outer_regions() const override {
    return inner_.outer_regions();
  }
  std::vector<graph::BoundGroup> bound_groups() const override {
    return inner_.bound_groups();
  }
  search::Config baseline() const override { return inner_.baseline(); }
  std::map<std::string, std::vector<double>> expert_variations() const override {
    return inner_.expert_variations();
  }
  std::string name() const override { return inner_.name(); }

  search::RegionTimes evaluate_regions(const search::Config& config) override;
  /// The pool enforces its own (SIGKILL) deadline; the flag is ignored.
  search::RegionTimes evaluate_regions_cancellable(
      const search::Config& config, const search::CancelFlag&) override {
    return evaluate_regions(config);
  }
  /// Worker processes are independent; concurrent evaluations are safe
  /// regardless of the inner app's thread safety.
  bool thread_safe() const override { return true; }

 private:
  core::TunableApp& inner_;
  std::shared_ptr<EvalBackend> pool_;
  double deadline_seconds_;
};

}  // namespace tunekit::robust
