#pragma once
// WorkerPool: a supervised pool of sandboxed worker processes, plus the
// objective adapters that let every existing evaluation path (scheduler,
// sensitivity analysis, plan executor) route its calls through it.
//
// The pool owns N WorkerProcess slots. evaluate() checks the crash
// quarantine, checks out a slot (blocking until one is free), lazily
// (re)spawns its worker with bounded exponential backoff, runs the round
// trip, and — when the worker died — schedules a respawn for the next
// checkout. A slot whose worker dies `max_restarts` times in a row stops
// respawning; when every slot has given up the pool reports unhealthy and
// callers degrade to the in-process path.
//
// Isolation is threaded through the rest of the system as IsolationOptions:
// SchedulerOptions, stats::SensitivityOptions, and core::ExecutorOptions all
// carry one, defaulting to IsolationMode::Thread (the PR-2 in-process
// watchdog — exactly the old behavior). Methodology shares a single pool
// across the sensitivity and execution phases so quarantine knowledge and
// worker restarts carry over.

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

enum class IsolationMode {
  Thread,   ///< PR-2 in-process watchdog (cooperative cancel, detached threads).
  Process,  ///< Out-of-process workers, SIGKILL deadlines, crash quarantine.
};

const char* to_string(IsolationMode mode);
/// Parses "thread" / "process"; throws std::invalid_argument otherwise.
IsolationMode isolation_from_string(const std::string& name);

class WorkerPool;

struct IsolationOptions {
  IsolationMode mode = IsolationMode::Thread;
  /// Worker process settings (Process mode).
  SandboxOptions sandbox;
  /// Crashes of one config before it is quarantined (0 disables).
  std::size_t quarantine_after = 2;
  /// A pre-built pool to share across phases (e.g. Methodology runs
  /// sensitivity and execution against the same workers). When null, each
  /// consumer creates its own from `sandbox`.
  std::shared_ptr<WorkerPool> pool;
  /// Telemetry to trace rpc round trips and worker-side timings into
  /// (null = disabled; the hot path then costs one branch).
  obs::Telemetry* telemetry = nullptr;
};

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

  /// Build a pool of `n_workers` per `iso`, or return iso.pool when the
  /// caller was handed a shared one. Returns null — after a log_warn — when
  /// isolation is not requested, unsupported, unconfigured, or the first
  /// worker cannot be spawned (callers degrade to the in-process path).
  static std::shared_ptr<WorkerPool> create(const IsolationOptions& iso,
                                            std::size_t n_workers);

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

/// Region-reporting variant: what the sensitivity analysis consumes.
class SandboxedRegionObjective final : public search::RegionObjective {
 public:
  SandboxedRegionObjective(std::shared_ptr<EvalBackend> pool, double deadline_seconds)
      : pool_(std::move(pool)), deadline_seconds_(deadline_seconds) {}

  search::RegionTimes evaluate_regions(const search::Config& config) override;
  search::RegionTimes evaluate_regions_cancellable(
      const search::Config& config, const search::CancelFlag&) override {
    return evaluate_regions(config);
  }
  bool thread_safe() const override { return true; }

 private:
  std::shared_ptr<EvalBackend> pool_;
  double deadline_seconds_;
};

/// TunableApp decorator: metadata (space, routines, baseline, ...) comes
/// from the in-process app object; evaluations run out of process on the
/// pool. This is the wrapping point for the executor and methodology — the
/// full-space config crosses the process boundary, so subspace embedding
/// stays supervisor-side where the base configuration lives.
class SandboxedApp final : public core::TunableApp {
 public:
  SandboxedApp(core::TunableApp& inner, std::shared_ptr<EvalBackend> pool,
               double deadline_seconds)
      : inner_(inner), eval_(std::move(pool), deadline_seconds) {}

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

  search::RegionTimes evaluate_regions(const search::Config& config) override {
    return eval_.evaluate_regions(config);
  }
  search::RegionTimes evaluate_regions_cancellable(
      const search::Config& config, const search::CancelFlag&) override {
    return eval_.evaluate_regions(config);
  }
  /// Worker processes are independent; concurrent evaluations are safe
  /// regardless of the inner app's thread safety.
  bool thread_safe() const override { return true; }

 private:
  core::TunableApp& inner_;
  SandboxedRegionObjective eval_;
};

}  // namespace tunekit::robust
