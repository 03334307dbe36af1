#include "fleet/node_agent.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/backoff.hpp"
#include "common/log.hpp"
#include "net/deadline.hpp"
#include "robust/worker_pool.hpp"

namespace tunekit::fleet {

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The node's span/heartbeat clock: raw steady ns. The dispatcher maps these
/// into its own clock with the heartbeat-derived offset (fleet/clock_sync).
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string default_node_id() {
  char host[256] = "node";
  ::gethostname(host, sizeof(host) - 1);
  host[sizeof(host) - 1] = '\0';
  return std::string(host) + "-" + std::to_string(::getpid());
}

/// Reconnect backoff: base * 2^failures, capped and jittered — when the
/// dispatcher restarts, a whole fleet of agents must not redial in lockstep.
double reconnect_backoff_s(const NodeAgentOptions& options,
                           const std::string& node_id, std::size_t failures) {
  return common::jittered_backoff_s(options.reconnect_base_s, options.reconnect_max_s,
                                    std::min<std::size_t>(failures, 10), node_id,
                                    failures);
}

}  // namespace

NodeAgent::NodeAgent(NodeAgentOptions options)
    : options_(std::move(options)),
      node_id_(options_.node_id.empty() ? default_node_id() : options_.node_id),
      backend_(options_.backend) {}

NodeAgent::~NodeAgent() { stop(); }

void NodeAgent::stop() {
  stop_.store(true);
  session_done_.store(true);
  {
    std::lock_guard<std::mutex> lock(link_mutex_);
    if (active_link_) active_link_->close();
  }
  queue_cv_.notify_all();
}

bool NodeAgent::muted() const {
  const double at = mute_at_s_.load(std::memory_order_relaxed);
  return at > 0.0 && steady_now_s() >= at;
}

void NodeAgent::sleep_interruptible(double seconds) {
  const double until = steady_now_s() + seconds;
  while (!stop_ && steady_now_s() < until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

bool NodeAgent::run() {
  if (!backend_) {
    if (options_.sandbox.argv.empty()) {
      log_warn("fleet-node: no worker binary configured");
      return false;
    }
    auto pool = std::make_shared<robust::WorkerPool>(
        options_.sandbox, options_.slots, /*quarantine_after=*/0,
        options_.telemetry);
    if (!pool->healthy()) {
      log_warn("fleet-node: worker '", options_.sandbox.argv[0],
               "' could not be started");
      return false;
    }
    backend_ = pool;
  }

  std::size_t failures = 0;
  while (!stop_) {
    std::string error;
    const int fd = net::dial_tcp(options_.host, options_.port,
                                 net::Deadline::after(options_.connect_timeout_s),
                                 &error);
    if (fd < 0) {
      const double backoff = reconnect_backoff_s(options_, node_id_, failures);
      ++failures;
      log_warn("fleet-node: ", error, "; retrying in ", backoff, "s");
      sleep_interruptible(backoff);
      continue;
    }
    auto link = std::make_shared<NdjsonLink>(fd);
    {
      std::lock_guard<std::mutex> lock(link_mutex_);
      active_link_ = link;
    }

    json::Object reg;
    reg["op"] = "register";
    reg["format"] = json::Value(kFleetFormat);
    reg["node"] = json::Value(node_id_);
    reg["slots"] = json::Value(options_.slots);
    json::Value reply;
    bool registered = false;
    if (link->send(json::Value(std::move(reg)), net::Deadline::after(5.0)) &&
        link->recv(reply, net::Deadline::after(10.0)) ==
            NdjsonLink::RecvStatus::Line) {
      const std::string op =
          reply.contains("op") && reply.at("op").is_string()
              ? reply.at("op").as_string()
              : "";
      if (op == "registered") {
        registered = true;
        failures = 0;
        if (options_.chaos_mute_after_s > 0.0 &&
            mute_at_s_.load(std::memory_order_relaxed) == 0.0) {
          mute_at_s_.store(steady_now_s() + options_.chaos_mute_after_s,
                           std::memory_order_relaxed);
        }
        serve(link, std::max(0.1, reply.number_or("hb_interval_s", 1.0)));
      } else if (op == "reject") {
        const double retry = reply.number_or("retry_after_s", 0.0);
        log_warn("fleet-node: registration rejected",
                 retry > 0.0 ? "; retrying in " + std::to_string(retry) + "s"
                             : std::string());
        if (retry > 0.0) sleep_interruptible(retry + 0.05);
      }
    }
    {
      std::lock_guard<std::mutex> lock(link_mutex_);
      if (active_link_ == link) active_link_.reset();
    }
    link->close();
    if (!registered && !stop_) {
      const double backoff = reconnect_backoff_s(options_, node_id_, failures);
      ++failures;
      sleep_interruptible(backoff);
    }
  }
  return true;
}

void NodeAgent::serve(const std::shared_ptr<NdjsonLink>& link,
                      double hb_interval_s) {
  session_done_.store(false);
  {
    // Evals queued for a previous (now dead) link were re-dispatched by the
    // dispatcher already; running them here would double-issue results.
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.clear();
  }

  std::thread heartbeat([this, link, hb_interval_s] {
    while (!session_done_ && !link->closed()) {
      if (!muted()) {
        json::Object hb;
        hb["op"] = "hb";
        hb["busy"] = json::Value(busy_.load(std::memory_order_relaxed));
        hb["t_ns"] = json::Value(static_cast<double>(steady_now_ns()));
        hb["rtt_ns"] = json::Value(
            static_cast<double>(last_rtt_ns_.load(std::memory_order_relaxed)));
        if (!link->send(json::Value(std::move(hb)), net::Deadline::after(2.0))) {
          break;
        }
      }
      const auto step = std::chrono::duration<double>(hb_interval_s);
      std::this_thread::sleep_for(
          std::chrono::duration_cast<std::chrono::milliseconds>(step));
    }
  });

  std::vector<std::thread> evaluators;
  evaluators.reserve(options_.slots);
  for (std::size_t i = 0; i < options_.slots; ++i) {
    evaluators.emplace_back(&NodeAgent::eval_loop, this, link);
  }

  while (!stop_) {
    json::Value msg;
    const NdjsonLink::RecvStatus st = link->recv(msg, net::Deadline::after(0.5));
    if (st == NdjsonLink::RecvStatus::Timeout) continue;
    if (st != NdjsonLink::RecvStatus::Line) break;
    std::string op;
    try {
      op = msg.at("op").as_string();
    } catch (const std::exception&) {
      continue;
    }
    if (op == "hb_ack") {
      // The echo of our own steady stamp: now minus it is the full hb ->
      // hb_ack round trip, reported on the next heartbeat so the dispatcher
      // can bound its offset estimate.
      const double echoed = msg.number_or("t_ns", 0.0);
      if (echoed > 0.0) {
        const std::uint64_t sent = static_cast<std::uint64_t>(echoed);
        const std::uint64_t now = steady_now_ns();
        if (now > sent) {
          last_rtt_ns_.store(now - sent, std::memory_order_relaxed);
        }
      }
    } else if (op == "eval") {
      PendingEval ev;
      ev.id = static_cast<std::uint64_t>(msg.number_or("id", 0.0));
      if (msg.contains("traceparent") && msg.at("traceparent").is_string()) {
        ev.traceparent = msg.at("traceparent").as_string();
      }
      ev.enqueued_ns = steady_now_ns();
      // The dispatcher omits `deadline_s` when the eval has no deadline; a
      // missing field must mean "unbounded", not "0 seconds" (which the
      // sandbox would enforce with an instant SIGKILL).
      ev.deadline_s = msg.number_or("deadline_s",
                                    std::numeric_limits<double>::infinity());
      bool ok = true;
      try {
        for (const json::Value& v : msg.at("config").as_array()) {
          ev.config.push_back(v.as_number());
        }
      } catch (const std::exception&) {
        ok = false;
      }
      if (ok) {
        {
          std::lock_guard<std::mutex> lock(queue_mutex_);
          queue_.push_back(std::move(ev));
        }
        queue_cv_.notify_one();
      } else {
        robust::SandboxResult bad;
        bad.outcome = robust::EvalOutcome::InvalidConfig;
        bad.error = "malformed eval message";
        link->send(result_message(ev.id, bad), net::Deadline::after(5.0));
      }
    } else if (op == "exit") {
      break;
    }
  }

  session_done_.store(true);
  queue_cv_.notify_all();
  link->close();
  for (std::thread& t : evaluators) t.join();
  heartbeat.join();
}

void NodeAgent::eval_loop(const std::shared_ptr<NdjsonLink>& link) {
  while (true) {
    PendingEval ev;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return session_done_ || !queue_.empty(); });
      if (session_done_ && queue_.empty()) return;
      if (queue_.empty()) continue;
      ev = std::move(queue_.front());
      queue_.pop_front();
    }
    // Chaos hang: hold the eval without running or replying. The dispatcher's
    // heartbeat monitor must notice the silence and re-dispatch elsewhere.
    while (muted() && !stop_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (stop_) return;

    busy_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t eval_start_ns =
        ev.traceparent.empty() ? 0 : steady_now_ns();
    robust::SandboxResult result = backend_->evaluate(ev.config, ev.deadline_s);
    if (options_.spin_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(options_.spin_ms));
    }
    busy_.fetch_sub(1, std::memory_order_relaxed);
    evals_served_.fetch_add(1, std::memory_order_relaxed);
    json::Value reply = result_message(ev.id, result);
    if (!ev.traceparent.empty()) {
      // Node-clock-anchored spans for the dispatcher to stitch under its
      // fleet.rpc span: the slot queue wait and the objective run itself.
      // Raw steady ns — the dispatcher owns the clock mapping.
      const std::uint64_t eval_end_ns = steady_now_ns();
      json::Array spans;
      if (eval_start_ns > ev.enqueued_ns) {
        json::Object wait;
        wait["name"] = json::Value(std::string("node.queue"));
        wait["start_ns"] = json::Value(static_cast<double>(ev.enqueued_ns));
        wait["dur_ns"] =
            json::Value(static_cast<double>(eval_start_ns - ev.enqueued_ns));
        spans.emplace_back(std::move(wait));
      }
      json::Object run;
      run["name"] = json::Value(std::string("node.objective"));
      run["start_ns"] = json::Value(static_cast<double>(eval_start_ns));
      run["dur_ns"] = json::Value(static_cast<double>(
          eval_end_ns > eval_start_ns ? eval_end_ns - eval_start_ns : 0));
      spans.emplace_back(std::move(run));
      reply.as_object()["spans"] = json::Value(std::move(spans));
    }
    link->send(reply, net::Deadline::after(5.0));
  }
}

}  // namespace tunekit::fleet
