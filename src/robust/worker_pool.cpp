#include "robust/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/log.hpp"
#include "obs/telemetry.hpp"

namespace tunekit::robust {

std::shared_ptr<WorkerPool> WorkerPool::create(const SandboxOptions& sandbox,
                                               std::size_t n_workers,
                                               std::size_t quarantine_after,
                                               obs::Telemetry* telemetry) {
  if (!process_sandbox_supported()) {
    log_warn("sandbox: process isolation requested but unsupported on this "
             "platform; falling back to in-process evaluation");
    return nullptr;
  }
  if (sandbox.argv.empty()) {
    log_warn("sandbox: process isolation requested but no worker binary "
             "configured; falling back to in-process evaluation");
    return nullptr;
  }
  auto pool = std::make_shared<WorkerPool>(sandbox, n_workers, quarantine_after,
                                           telemetry);
  // Spawn-check one worker up front: a missing or broken binary should
  // degrade immediately (and loudly), not fail every evaluation one by one.
  if (!pool->healthy()) {
    log_warn("sandbox: worker '", sandbox.argv[0],
             "' could not be started; falling back to in-process evaluation");
    return nullptr;
  }
  return pool;
}

WorkerPool::WorkerPool(SandboxOptions sandbox, std::size_t n_workers,
                       std::size_t quarantine_after, obs::Telemetry* telemetry)
    : sandbox_(std::move(sandbox)),
      quarantine_(quarantine_after),
      slots_(std::max<std::size_t>(1, n_workers)),
      telemetry_(telemetry) {
  // Eagerly spawn the first worker so health is known at construction; the
  // rest spawn lazily on first checkout.
  slots_[0].worker = std::make_unique<WorkerProcess>(sandbox_);
  if (!slots_[0].worker->spawn()) {
    slots_[0].worker.reset();
    slots_[0].given_up = true;
    ++slots_[0].consecutive_deaths;
    for (auto& s : slots_) s.given_up = true;  // same binary, same failure
  }
}

WorkerPool::~WorkerPool() {
  for (auto& s : slots_) {
    if (s.worker) s.worker->kill_now();
  }
}

bool WorkerPool::healthy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : slots_) {
    if (!s.given_up) return true;
  }
  return false;
}

std::size_t WorkerPool::acquire_slot() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Prefer a live worker; otherwise any free slot that has not given up;
    // otherwise any free slot (to report the permanent failure).
    std::size_t fallback = slots_.size();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].in_use) continue;
      if (slots_[i].worker && slots_[i].worker->alive()) {
        slots_[i].in_use = true;
        return i;
      }
      if (fallback == slots_.size() || (!slots_[i].given_up && slots_[fallback].given_up)) {
        fallback = i;
      }
    }
    if (fallback != slots_.size()) {
      slots_[fallback].in_use = true;
      return fallback;
    }
    slot_free_.wait(lock);
  }
}

void WorkerPool::release_slot(std::size_t index) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[index].in_use = false;
  }
  slot_free_.notify_one();
}

SandboxResult WorkerPool::evaluate(const search::Config& config,
                                   double deadline_seconds) {
  // Circuit breaker: a config that already crashed its way into quarantine
  // is refused before any worker is touched.
  if (quarantine_.quarantined(config)) {
    stats_.quarantine_hits.fetch_add(1, std::memory_order_relaxed);
    if (telemetry_ != nullptr && telemetry_->enabled()) {
      telemetry_->metrics().counter(obs::metric::kEvalsQuarantined).inc();
    }
    set_last_worker_slot(-1);
    set_last_worker_node({});
    SandboxResult r;
    r.outcome = EvalOutcome::Crashed;
    r.error = "configuration quarantined after " +
              std::to_string(quarantine_.threshold()) + " crashes";
    return r;
  }

  const std::size_t si = acquire_slot();
  set_last_worker_slot(static_cast<int>(si));
  set_last_worker_node({});
  Slot& slot = slots_[si];

  // (Re)spawn the slot's worker if needed, with bounded backoff.
  if (!slot.worker || !slot.worker->alive()) {
    if (slot.given_up) {
      release_slot(si);
      SandboxResult r;
      r.outcome = EvalOutcome::Crashed;
      r.error = "worker restart budget exhausted (" +
                std::to_string(sandbox_.max_restarts) + " consecutive deaths)";
      r.worker_slot = static_cast<int>(si);
      return r;
    }
    if (slot.consecutive_deaths > 0) {
      const double backoff = std::min(
          sandbox_.restart_backoff_seconds *
              static_cast<double>(1ull << std::min<std::size_t>(
                                      slot.consecutive_deaths - 1, 20)),
          sandbox_.restart_backoff_max_seconds);
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
      }
      stats_.restarts.fetch_add(1, std::memory_order_relaxed);
      if (telemetry_ != nullptr && telemetry_->enabled()) {
        telemetry_->metrics().counter(obs::metric::kWorkerRestarts).inc();
      }
    }
    slot.worker = std::make_unique<WorkerProcess>(sandbox_);
    if (!slot.worker->spawn()) {
      slot.worker.reset();
      bool gave_up = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (++slot.consecutive_deaths > sandbox_.max_restarts) {
          slot.given_up = true;
          gave_up = true;
        }
      }
      if (gave_up) {
        log_warn("sandbox: worker slot ", si, " gave up after ",
                 slot.consecutive_deaths, " consecutive failures");
      }
      release_slot(si);
      SandboxResult r;
      r.outcome = EvalOutcome::Crashed;
      r.error = "worker failed to spawn";
      r.worker_died = true;
      r.worker_slot = static_cast<int>(si);
      return r;
    }
  }

  const std::uint64_t request_id =
      stats_.dispatched.fetch_add(1, std::memory_order_relaxed) + 1;

  // Trace the round trip: the rpc span inherits the calling thread's current
  // span (the driver's "eval"), its id rides the request over the pipe, and
  // the worker's phase timings come back anchored at our dispatch timestamp
  // so they nest inside the rpc span on a single consistent timeline.
  obs::ScopedSpan rpc_span(telemetry_, "worker.rpc");
  const std::uint64_t dispatch_ns =
      rpc_span.id() != 0 ? telemetry_->now_ns() : 0;
  SandboxResult r =
      slot.worker->evaluate(request_id, config, deadline_seconds, rpc_span.id());
  r.worker_slot = static_cast<int>(si);
  if (rpc_span.id() != 0 && !r.worker_spans.empty()) {
    const std::uint64_t end_ns = telemetry_->now_ns();
    for (const WorkerSpan& w : r.worker_spans) {
      // Clamp into [dispatch, reply] so the trace stays monotonically
      // consistent even if the worker's clock disagrees slightly.
      std::uint64_t start = dispatch_ns + w.start_ns;
      if (start > end_ns) start = end_ns;
      std::uint64_t dur = w.dur_ns;
      if (start + dur > end_ns) dur = end_ns - start;
      telemetry_->record_span("worker." + w.name, rpc_span.id(), start, dur,
                              r.worker_pid);
    }
  }
  rpc_span.end();

  switch (r.outcome) {
    case EvalOutcome::Ok: stats_.ok.fetch_add(1, std::memory_order_relaxed); break;
    case EvalOutcome::Crashed: stats_.crashed.fetch_add(1, std::memory_order_relaxed); break;
    case EvalOutcome::TimedOut: stats_.timed_out.fetch_add(1, std::memory_order_relaxed); break;
    case EvalOutcome::InvalidConfig: stats_.invalid.fetch_add(1, std::memory_order_relaxed); break;
    case EvalOutcome::NonFinite: stats_.non_finite.fetch_add(1, std::memory_order_relaxed); break;
  }

  if (r.worker_died) {
    slot.worker.reset();
    bool gave_up = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (++slot.consecutive_deaths > sandbox_.max_restarts) {
        slot.given_up = true;
        gave_up = true;
      }
    }
    if (gave_up) {
      log_warn("sandbox: worker slot ", si, " gave up after ",
               slot.consecutive_deaths, " consecutive deaths");
    }
  } else {
    std::lock_guard<std::mutex> lock(mutex_);
    slot.consecutive_deaths = 0;
  }

  // Quarantine accounting: only genuine process deaths count — they are the
  // failures that cost a restart and threaten the supervisor's throughput.
  // (TimedOut has its own no-retry policy; a thrown exception inside a live
  // worker is contained and retried by the session layer as before.)
  if (r.outcome == EvalOutcome::Crashed && r.worker_died &&
      quarantine_.enabled()) {
    const std::size_t crashes = quarantine_.record_crash(config);
    if (crashes == quarantine_.threshold()) {
      log_warn("sandbox: configuration quarantined after ", crashes,
               " crashes (", r.error, ")");
    }
  }

  release_slot(si);
  return r;
}

namespace {

/// Shared failure-to-exception translation for the sandboxed adapters.
[[noreturn]] void throw_failure(const SandboxResult& r) {
  throw EvalFailure(r.outcome, r.error.empty()
                                   ? std::string("sandboxed evaluation failed as ") +
                                         to_string(r.outcome)
                                   : r.error);
}

}  // namespace

double SandboxedObjective::evaluate(const search::Config& config) {
  const SandboxResult r = pool_->evaluate(config, deadline_seconds_);
  if (r.outcome != EvalOutcome::Ok) throw_failure(r);
  return r.value;
}

search::RegionTimes SandboxedApp::evaluate_regions(
    const search::Config& config) {
  const SandboxResult r = pool_->evaluate(config, deadline_seconds_);
  if (r.outcome != EvalOutcome::Ok) throw_failure(r);
  return r.regions;
}

}  // namespace tunekit::robust
