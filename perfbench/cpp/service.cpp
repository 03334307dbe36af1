// The two service workloads: an in-process HttpServer + RestApi +
// SessionManager configured as `tunekit_cli serve` is (telemetry on, two
// handler threads, journaled sessions on the checkout's disk), driven over
// real sockets by closed-loop net::Client threads with keyed ask/tell.
//
// Layers are timed from outside. Every request carries an Idempotency-Key
// of the form "pb-<client>-<seq>-<send_ns>"; the benchmark's handler lambda
// around RestApi::handle reads the send stamp back, so the round trip splits
// into pre-handler (transport, parse, queue wait), handler, and
// post-handler (encode, write, transport) time. Service, bo and structure
// figures come from the scraped /metrics text and /proc/self/io.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "net/client.hpp"
#include "net/rest_api.hpp"
#include "net/server.hpp"
#include "net/session_manager.hpp"
#include "obs/telemetry.hpp"
#include "service/session.hpp"
#include "service/space_codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tunekit::json::Value;
namespace net = tunekit::net;
namespace obs = tunekit::obs;

constexpr std::size_t kSetupReps = 31;
constexpr std::size_t kBoMaxEvals = 100;
/// ask_p99_ms must rest on at least this many asks.
constexpr std::size_t kBoMinAsks = 1000;
constexpr std::size_t kJournalMaxEvals = 2000;
/// Every writer drives the same fixed number of sessions, round(--seconds /
/// k*SessionSeconds), so a run's work does not depend on how fast it goes.
/// On a 4-core host one 100-eval Bo session (4 writers sharing 2 handler
/// threads) takes about 10 s; one 2000-eval Random session takes 3-4 s with
/// a fast disk and up to ~12 s when the disk is contended.
constexpr double kBoSessionSeconds = 10.0;
constexpr double kJournalSessionSeconds = 4.0;
constexpr std::size_t kReadMinSamples = 1000;

// --- Prometheus text scrape -------------------------------------------------

struct PromHistogram {
  std::vector<double> bounds;            ///< finite upper bounds, ascending
  std::vector<double> cumulative;        ///< per bound, plus +Inf last
  double sum = 0.0;
  double count = 0.0;
};

struct PromScrape {
  std::map<std::string, double> samples;  ///< unlabelled counters/gauges
  std::map<std::string, PromHistogram> histograms;
};

PromScrape parse_prometheus(const std::string& text) {
  PromScrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto exemplar = line.find(" # ");
    if (exemplar != std::string::npos) line.resize(exemplar);
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string series = line.substr(0, space);
    double value = 0.0;
    try {
      value = std::stod(line.substr(space + 1));
    } catch (const std::exception&) {
      continue;
    }
    const auto brace = series.find('{');
    const std::string name = series.substr(0, brace);
    auto ends_with = [&](const std::string& s) {
      return name.size() > s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (brace != std::string::npos && ends_with("_bucket")) {
      const auto le = series.find("le=\"", brace);
      if (le == std::string::npos) continue;
      const std::string bound = series.substr(le + 4, series.find('"', le + 4) - le - 4);
      auto& h = out.histograms[name.substr(0, name.size() - 7)];
      if (bound != "+Inf") h.bounds.push_back(std::stod(bound));
      h.cumulative.push_back(value);
    } else if (brace == std::string::npos && ends_with("_sum")) {
      out.histograms[name.substr(0, name.size() - 4)].sum = value;
      out.samples[name] = value;
    } else if (brace == std::string::npos && ends_with("_count")) {
      out.histograms[name.substr(0, name.size() - 6)].count = value;
      out.samples[name] = value;
    } else if (brace == std::string::npos) {
      out.samples[name] = value;
    }
  }
  return out;
}

/// `after - before` of one histogram (buckets, sum, count).
PromHistogram delta(const PromScrape& before, const PromScrape& after,
                    const std::string& name) {
  PromHistogram d;
  const auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return d;
  d = a->second;
  const auto b = before.histograms.find(name);
  if (b != before.histograms.end() && b->second.cumulative.size() == d.cumulative.size()) {
    for (std::size_t i = 0; i < d.cumulative.size(); ++i) {
      d.cumulative[i] -= b->second.cumulative[i];
    }
    d.sum -= b->second.sum;
    d.count -= b->second.count;
  }
  return d;
}

/// histogram_quantile(): linear interpolation inside the bucket holding the
/// target rank; 0 for an empty histogram.
double prom_quantile(const PromHistogram& h, double q) {
  if (h.cumulative.empty() || h.cumulative.back() <= 0.0) return 0.0;
  const double rank = q * h.cumulative.back();
  for (std::size_t i = 0; i < h.bounds.size(); ++i) {
    if (h.cumulative[i] >= rank) {
      const double lo_bound = i == 0 ? 0.0 : h.bounds[i - 1];
      const double lo_count = i == 0 ? 0.0 : h.cumulative[i - 1];
      const double in_bucket = h.cumulative[i] - lo_count;
      const double frac = in_bucket > 0.0 ? (rank - lo_count) / in_bucket : 1.0;
      return lo_bound + frac * (h.bounds[i] - lo_bound);
    }
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

double sample_delta(const PromScrape& before, const PromScrape& after,
                    const std::string& name) {
  auto get = [&](const PromScrape& s) {
    const auto it = s.samples.find(name);
    return it == s.samples.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

// --- The server stack -------------------------------------------------------

/// Handler-side timestamps of one keyed request.
struct Stamp {
  std::uint64_t send_ns = 0;
  std::uint64_t enter_ns = 0;
  std::uint64_t exit_ns = 0;
};

class StampTable {
 public:
  void put(const std::string& key, const Stamp& s) {
    std::lock_guard<std::mutex> lock(mutex_);
    map_[key] = s;
  }
  bool take(const std::string& key, Stamp* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    *out = it->second;
    map_.erase(it);
    return true;
  }

 private:
  std::mutex mutex_;
  std::unordered_map<std::string, Stamp> map_;
};

/// serve's wiring: telemetry on, 2 handler threads, journaled sessions.
struct Stack {
  obs::Telemetry telemetry;
  std::unique_ptr<net::SessionManager> manager;
  std::unique_ptr<net::RestApi> api;
  std::unique_ptr<net::HttpServer> server;
  StampTable stamps;

  explicit Stack(const std::string& dir) {
    telemetry.enable();
    net::SessionManagerOptions mopt;
    mopt.journal_dir = dir;
    mopt.telemetry = &telemetry;
    manager = std::make_unique<net::SessionManager>(mopt);
    api = std::make_unique<net::RestApi>(*manager, &telemetry);
    net::ServerOptions sopt;
    sopt.worker_threads = 2;
    // serve --queue-delay-target 0. The closed loop never queues more than
    // one request per client, so delay shedding has no overload to guard
    // against here; on a slow host it would 503 GP-bound asks (queue wait
    // behind a long ask exceeds the 0.25 s default) instead of letting the
    // wait show in ask latency. Cap-based 429s still apply.
    sopt.queue_delay_target_seconds = 0.0;
    sopt.priority = net::RestApi::priority;
    sopt.telemetry = &telemetry;
    server = std::make_unique<net::HttpServer>(
        sopt, [this](const net::HttpRequest& r) { return handle(r); });
    server->start();
  }

  ~Stack() {
    server->shutdown();
    manager->flush_all();
  }
  // The server's handler captures `this`.
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  net::HttpResponse handle(const net::HttpRequest& request) {
    const std::uint64_t enter = telemetry.now_ns();
    net::HttpResponse response = api->handle(request);
    const std::uint64_t exit = telemetry.now_ns();
    const std::string* key = request.header("idempotency-key");
    if (key != nullptr && key->rfind("pb-", 0) == 0) {
      Stamp s;
      s.send_ns = std::stoull(key->substr(key->rfind('-') + 1));
      s.enter_ns = enter;
      s.exit_ns = exit;
      stamps.put(*key, s);
    }
    return response;
  }

  std::uint16_t port() const { return server->port(); }
};

enum class Op { Ask, Tell, Read, Other };

/// Per-run accounting shared by every client thread.
struct Tally {
  Samples ask_ms, tell_ms, read_ms;
  Samples pre_ms, handler_ms, post_ms;
  Samples ask_handler_ms;
  Samples eval_s;
  std::atomic<std::uint64_t> attempted{0}, failed{0}, non2xx{0}, handled{0};
  std::atomic<std::uint64_t> asks{0}, tells{0};
  std::mutex mutex;
  std::vector<std::string> errors;

  void error(const std::string& e) {
    failed.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex);
    if (errors.size() < 32) errors.push_back(e);
  }
};

/// One closed-loop client: one thread, one keep-alive connection.
class BenchClient {
 public:
  BenchClient(Stack& stack, int index, bool traced)
      : stack_(stack),
        index_(index),
        client_("127.0.0.1", stack.port(), 60.0, retry_options(stack, traced)) {}

  /// Issue one request; timed into `tally` by `op` when `timed`. Returns
  /// the response (status 0 on transport failure, which is also counted).
  net::ClientResponse call(Tally& tally, Op op, const std::string& method,
                           const std::string& target, const std::string& body,
                           bool timed = true) {
    const std::uint64_t send = stack_.telemetry.now_ns();
    net::RequestOptions ro;
    ro.idempotency_key =
        "pb-" + std::to_string(index_) + "-" + std::to_string(seq_++) + "-" +
        std::to_string(send);
    tally.attempted.fetch_add(1);
    net::ClientResponse response;
    try {
      response = client_.request(method, target, body, ro);
    } catch (const std::exception& e) {
      tally.error(method + " " + target + ": " + e.what());
      return response;
    }
    const std::uint64_t recv = stack_.telemetry.now_ns();
    Stamp s;
    if (stack_.stamps.take(ro.idempotency_key, &s)) {
      tally.handled.fetch_add(1);
      if (timed) {
        tally.pre_ms.add(ms_between(s.send_ns, s.enter_ns));
        tally.handler_ms.add(ms_between(s.enter_ns, s.exit_ns));
        tally.post_ms.add(ms_between(s.exit_ns, recv));
        if (op == Op::Ask) tally.ask_handler_ms.add(ms_between(s.enter_ns, s.exit_ns));
      }
    }
    if (!response.ok()) {
      tally.non2xx.fetch_add(1);
      tally.error(method + " " + target + ": HTTP " + std::to_string(response.status) +
                  " " + response.body.substr(0, 200));
      return response;
    }
    if (timed) {
      const double ms = ms_between(send, recv);
      if (op == Op::Ask) tally.ask_ms.add(ms);
      if (op == Op::Tell) tally.tell_ms.add(ms);
      if (op == Op::Read) tally.read_ms.add(ms);
    }
    return response;
  }

 private:
  static net::ClientRetryOptions retry_options(Stack& stack, bool traced) {
    net::ClientRetryOptions r;
    r.telemetry = traced ? &stack.telemetry : nullptr;
    return r;
  }
  Stack& stack_;
  int index_;
  std::uint64_t seq_ = 0;
  net::Client client_;
};

/// What one driven session must satisfy, plus what it found.
struct SessionSpec {
  std::string id;
  Value spec;
  std::size_t max_evals = 0;
  std::uint64_t seed = 0;
  bool bo = true;
  /// Every session tunes its own seed-drawn objective, so a run averages
  /// over many problem instances rather than resting on one.
  std::shared_ptr<const SeededObjective> objective;
};

struct SessionOutcome {
  SessionSpec spec;
  std::size_t told = 0;
  double client_best = INFINITY;
  double server_best = NAN;
  double completed = -1;
  std::string state;
};

Value make_spec(const SessionSpec& s) {
  tunekit::json::Object o;
  o["id"] = Value(s.id);
  o["space"] = s.objective->space_spec();
  o["backend"] = Value(std::string(s.bo ? "bo" : "random"));
  o["max_evals"] = Value(s.max_evals);
  o["seed"] = Value(static_cast<std::size_t>(s.seed % 1000000007ull));
  if (s.bo) o["structure_online"] = Value(true);
  return Value(std::move(o));
}

/// Drive one created session to completion with ask(1) -> objective -> tell.
SessionOutcome drive_session(BenchClient& client, Tally& tally, const SessionSpec& spec,
                             RunResult& result, std::mutex& result_mutex) {
  SessionOutcome out;
  out.spec = spec;
  const std::string base = "/v1/sessions/" + spec.id;
  std::set<std::uint64_t> told_ids;
  bool broken = false;
  while (out.told < spec.max_evals && !broken) {
    const net::ClientResponse ask = client.call(tally, Op::Ask, "POST", base + "/ask", "{\"k\":1}");
    if (!ask.ok()) break;
    tally.asks.fetch_add(1);
    const Value reply = ask.json();
    const auto& candidates = reply.at("candidates").as_array();
    if (candidates.empty()) {
      tally.error(spec.id + ": ask returned no candidate before the budget was spent");
      break;
    }
    for (const auto& cand : candidates) {
      const auto cid = static_cast<std::uint64_t>(cand.at("id").as_number());
      if (!told_ids.insert(cid).second) {
        std::lock_guard<std::mutex> lock(result_mutex);
        result.check(false, spec.id + ": candidate " + std::to_string(cid) + " issued twice");
        broken = true;
        break;
      }
      std::map<std::string, double> named;
      for (const auto& [name, v] : cand.at("config").as_object()) named[name] = v.as_number();
      const std::uint64_t t0 = now_ns();
      const double value = spec.objective->evaluate(named);
      tally.eval_s.add(static_cast<double>(now_ns() - t0) / 1e9);
      out.client_best = std::min(out.client_best, value);
      tunekit::json::Object body;
      body["id"] = Value(static_cast<std::size_t>(cid));
      body["value"] = Value(value);
      const net::ClientResponse tell =
          client.call(tally, Op::Tell, "POST", base + "/tell", Value(std::move(body)).dump());
      if (!tell.ok()) {
        broken = true;
        break;
      }
      if (!tell.json().at("accepted").as_bool()) {
        std::lock_guard<std::mutex> lock(result_mutex);
        result.check(false, spec.id + ": tell of " + std::to_string(cid) + " not accepted");
      }
      tally.tells.fetch_add(1);
      ++out.told;
    }
  }
  const net::ClientResponse report = client.call(tally, Op::Other, "GET", base, "", false);
  if (report.ok()) {
    const Value r = report.json();
    out.completed = r.number_or("completed", -1.0);
    out.server_best = r.number_or("best_value", NAN);
    out.state = r.contains("state") ? r.at("state").as_string() : "";
  }
  // Close the finished session, so the server's table holds only the live
  // ones. SessionManager::evict_excess sorts that table on every ask while
  // other requests update its entries' last-use times; a short table keeps
  // that unsynchronised sort small.
  client.call(tally, Op::Other, "DELETE", base, "", false);
  return out;
}

/// A running service workload: the stack, its clients, and the sessions
/// each writer drives back to back.
struct ServiceRun {
  const Options& options;
  bool bo;
  std::size_t writers;
  bool reader;
  std::size_t max_evals;
  std::unique_ptr<Stack> stack;
  std::vector<std::unique_ptr<BenchClient>> clients;  ///< writers, then reader
  std::vector<SessionSpec> first_sessions;            ///< created during setup
  std::string journal_dir;                            ///< the kept stack's
  std::vector<SessionOutcome> outcomes;
  std::mutex mutex;
  std::vector<std::size_t> sessions_made;  ///< per writer

  ServiceRun(const Options& o, bool bo_backend, std::size_t n_writers, bool with_reader,
             std::size_t evals)
      : options(o),
        bo(bo_backend),
        writers(n_writers),
        reader(with_reader),
        max_evals(evals),
        sessions_made(n_writers, 0) {}

  /// Writer `writer`'s next session. Its id, seed and objective follow from
  /// --seed, the writer and the writer's session count alone, so the same
  /// seed gives every writer the same sequence of sessions.
  SessionSpec next_spec(std::size_t writer) {
    const std::size_t k = sessions_made[writer]++;
    SessionSpec s;
    s.id = std::string(bo ? "bo" : "rj") + "-w" + std::to_string(writer) + "-s" +
           std::to_string(k);
    s.max_evals = max_evals;
    s.seed = options.seed * 1000003ull + (k + 1) * 7919ull + writer;
    s.bo = bo;
    s.objective = std::make_shared<const SeededObjective>(s.seed);
    s.spec = make_spec(s);
    return s;
  }

  bool create(BenchClient& client, Tally& tally, const SessionSpec& s) {
    return client.call(tally, Op::Other, "POST", "/v1/sessions", s.spec.dump(), false).ok();
  }

  /// Server start, client connections, first sessions and their objectives
  /// — timed `reps` times on fresh journal directories rep<first>,
  /// rep<first+1>, ..., appended to `times`. With `keep` the last set-up
  /// stays up to be driven; otherwise every one is torn down.
  void setup(Tally& tally, std::size_t first, std::size_t reps, bool keep,
             std::vector<double>& times) {
    // Session creation fsyncs; let write-back left over from earlier work
    // on this filesystem finish first, so it does not slow those fsyncs.
    sync_filesystem(options.work_dir);
    for (std::size_t rep = first; rep < first + reps; ++rep) {
      clients.clear();
      stack.reset();
      first_sessions.clear();
      const std::string dir =
          (fs::path(options.work_dir) / "journals" / ("rep" + std::to_string(rep))).string();
      fs::remove_all(dir);
      std::fill(sessions_made.begin(), sessions_made.end(), 0);
      const std::uint64_t t0 = now_ns();
      stack = std::make_unique<Stack>(dir);
      for (std::size_t c = 0; c < writers + (reader ? 1 : 0); ++c) {
        clients.push_back(std::make_unique<BenchClient>(*stack, static_cast<int>(c), false));
      }
      for (std::size_t w = 0; w < writers; ++w) {
        first_sessions.push_back(next_spec(w));
        if (!create(*clients[w], tally, first_sessions.back())) {
          throw std::runtime_error("setup: session creation failed");
        }
      }
      times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      if (keep && rep + 1 == first + reps) {
        journal_dir = dir;
      } else {
        clients.clear();
        stack.reset();
      }
    }
  }

  /// Every writer drives `sessions` sessions, starting with its one in
  /// `firsts`; the reader polls alongside until the writers finish (and has
  /// at least kReadMinSamples reads). Returns the writers' wall seconds:
  /// from the start until the last writer finished.
  double drive(Tally& tally, RunResult& result, const std::vector<SessionSpec>& firsts,
               std::size_t sessions) {
    std::atomic<std::size_t> writers_left{writers};
    std::vector<std::string> current(writers);
    std::mutex current_mutex;
    for (std::size_t w = 0; w < writers; ++w) current[w] = firsts[w].id;
    std::vector<std::thread> threads;
    std::atomic<std::uint64_t> writers_end{0};
    const std::uint64_t t0 = now_ns();
    for (std::size_t w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        try {
          SessionSpec spec = firsts[w];
          for (std::size_t driven = 1;; ++driven) {
            SessionOutcome out =
                drive_session(*clients[w], tally, spec, result, mutex);
            {
              std::lock_guard<std::mutex> lock(mutex);
              outcomes.push_back(out);
            }
            if (out.told < spec.max_evals || driven >= sessions) break;
            spec = next_spec(w);
            if (!create(*clients[w], tally, spec)) break;
            std::lock_guard<std::mutex> lock(current_mutex);
            current[w] = spec.id;
          }
        } catch (const std::exception& e) {
          tally.error(std::string("writer: ") + e.what());
        }
        if (writers_left.fetch_sub(1) == 1) writers_end = now_ns();
      });
    }
    if (reader) {
      threads.emplace_back([&] {
        BenchClient& rc = *clients[writers];
        std::size_t i = 0;
        while (writers_left.load() > 0 ||
               (tally.read_ms.size() < kReadMinSamples && tally.failed.load() == 0)) {
          if (i % 2 == 0) {
            std::string id;
            {
              std::lock_guard<std::mutex> lock(current_mutex);
              id = current[(i / 2) % writers];
            }
            rc.call(tally, Op::Read, "GET", "/v1/sessions/" + id, "");
          } else {
            rc.call(tally, Op::Read, "GET", "/metrics", "");
          }
          ++i;
        }
      });
    }
    for (auto& t : threads) t.join();
    return static_cast<double>(writers_end.load() - t0) / 1e9;
  }

  std::string scrape(Tally& tally) {
    const net::ClientResponse r = clients[0]->call(tally, Op::Other, "GET", "/metrics", "", false);
    return r.ok() ? r.body : std::string();
  }

  /// Output checks over every session driven in the run: budget reached,
  /// best value consistent, and the journal replays to the same state.
  void check_sessions(RunResult& result) {
    namespace svc = tunekit::service;
    for (const auto& o : outcomes) {
      const std::string& id = o.spec.id;
      result.check(o.told == o.spec.max_evals,
                   id + ": told " + std::to_string(o.told) + " of " +
                       std::to_string(o.spec.max_evals));
      result.check(o.completed == static_cast<double>(o.spec.max_evals),
                   id + ": server completed " + std::to_string(o.completed));
      result.check(o.state == "exhausted", id + ": state " + o.state);
      result.check(std::abs(o.server_best - o.client_best) <= 1e-9 * std::abs(o.client_best),
                   id + ": server best differs from the best told value");
      svc::SessionOptions so;
      so.max_evals = o.spec.max_evals;
      so.seed = static_cast<std::uint64_t>(o.spec.spec.at("seed").as_number());
      so.backend = o.spec.bo ? svc::SessionBackend::Bo : svc::SessionBackend::Random;
      so.structure_online = o.spec.bo;
      const auto space = svc::space_from_json(o.spec.spec.at("space"));
      try {
        auto resumed = svc::TuningSession::resume(
            space, so, (fs::path(journal_dir) / (id + ".journal.jsonl")).string());
        const auto best = resumed->best();
        result.check(resumed->completed() == o.spec.max_evals,
                     id + ": journal replays to " + std::to_string(resumed->completed()) +
                         " completed");
        result.check(best && best->value == o.server_best,
                     id + ": journal replays to a different best value");
      } catch (const std::exception& e) {
        result.check(false, id + ": resume failed: " + e.what());
      }
    }
  }
};

void run_service(const Options& options, RunResult& result, bool bo) {
  const std::size_t writers = bo ? 4 : 3;
  ServiceRun run(options, bo, writers, /*reader=*/!bo, bo ? kBoMaxEvals : kJournalMaxEvals);
  bool memory_backed = false;
  fs::create_directories(fs::path(options.work_dir) / "journals");
  const std::string fs_name = fs_type((fs::path(options.work_dir) / "journals").string(),
                                      &memory_backed);
  if (memory_backed) {
    throw std::runtime_error("journal directory is on " + fs_name +
                             ": fsync would be free there; run from a disk-backed checkout");
  }

  // Set-up is timed kSetupReps times: half now, the last of which is kept
  // and driven, and the rest after the drive, so that the median spans the
  // run rather than one moment of the disk's state.
  Tally setup_tally;
  std::vector<double> setup_times;
  const std::size_t setups_before = kSetupReps / 2 + 1;
  run.setup(setup_tally, 0, setups_before, /*keep=*/true, setup_times);
  Stack& stack = *run.stack;

  // Run sizing: a fixed number of whole sessions per writer. Sessions always
  // run to their budget, so every archive size 0..max_evals is sampled
  // equally often.
  Tally tally;
  const std::size_t min_sessions =
      bo ? (kBoMinAsks + writers * kBoMaxEvals - 1) / (writers * kBoMaxEvals) : 1;
  const std::size_t sessions = std::max(
      min_sessions, static_cast<std::size_t>(std::round(
                        options.seconds / (bo ? kBoSessionSeconds : kJournalSessionSeconds))));

  std::vector<SessionSpec> firsts = run.first_sessions;
  double untraced_per_eval_s = 0.0;
  if (options.trace) {
    // Untraced reference round for obs.overhead_pct: one session per writer.
    Tally ref;
    const double wall = run.drive(ref, result, firsts, 1);
    untraced_per_eval_s = wall / std::max<double>(1.0, static_cast<double>(ref.tells.load()));
    tally.attempted += ref.attempted.load();
    tally.failed += ref.failed.load();
    firsts.clear();
    for (std::size_t w = 0; w < writers; ++w) {
      firsts.push_back(run.next_spec(w));
      run.create(*run.clients[w], tally, firsts.back());
    }
    // Traced clients from here on.
    run.clients.clear();
    for (std::size_t c = 0; c < writers + (bo ? 0 : 1); ++c) {
      run.clients.push_back(std::make_unique<BenchClient>(stack, static_cast<int>(c), true));
    }
  }

  const PromScrape before = parse_prometheus(run.scrape(tally));
  const std::uint64_t wbytes0 = proc_write_bytes();
  const double wall = run.drive(tally, result, firsts, sessions);
  const std::uint64_t wbytes1 = proc_write_bytes();
  const PromScrape after = parse_prometheus(run.scrape(tally));

  const double tells = std::max<double>(1.0, static_cast<double>(tally.tells.load()));
  std::vector<double> speedups;
  for (const auto& o : run.outcomes) {
    if (o.told == o.spec.max_evals && o.client_best > 0.0) {
      speedups.push_back(SeededObjective::default_value() / o.client_best);
    }
  }

  result.set("ask_p50_ms", tally.ask_ms.quantile(0.5), "ms");
  result.set("ask_p99_ms", tally.ask_ms.quantile(0.99), "ms");
  result.set("evals_per_s", static_cast<double>(tally.tells.load()) / wall, "1/s");
  result.set("tuned_speedup", geomean(speedups), "x");

  // Per-layer figures (reported by traced runs).
  result.set("net.pre_handler_p50_ms", tally.pre_ms.quantile(0.5), "ms");
  result.set("net.pre_handler_p99_ms", tally.pre_ms.quantile(0.99), "ms");
  result.set("net.handler_p50_ms", tally.handler_ms.quantile(0.5), "ms");
  result.set("net.handler_p99_ms", tally.handler_ms.quantile(0.99), "ms");
  result.set("net.post_handler_p50_ms", tally.post_ms.quantile(0.5), "ms");
  result.set("net.requests", static_cast<double>(tally.handled.load()), "count");
  result.set("net.non2xx", static_cast<double>(tally.non2xx.load()), "count");
  result.set("client.tell_p50_ms", tally.tell_ms.quantile(0.5), "ms");
  result.set("client.tell_p99_ms", tally.tell_ms.quantile(0.99), "ms");
  if (run.reader) {
    result.set("client.read_p50_ms", tally.read_ms.quantile(0.5), "ms");
    result.set("client.read_p99_ms", tally.read_ms.quantile(0.99), "ms");
  }
  result.set("client.failed_frac",
             static_cast<double>(tally.failed.load()) /
                 std::max<double>(1.0, static_cast<double>(tally.attempted.load())),
             "ratio");

  const PromHistogram fsync = delta(before, after, obs::metric::kJournalFsyncSeconds);
  result.set("service.fsync_p50_ms", 1e3 * prom_quantile(fsync, 0.5), "ms");
  result.set("service.fsync_p99_ms", 1e3 * prom_quantile(fsync, 0.99), "ms");
  result.set("service.fsyncs_per_eval", fsync.count / tells, "count");
  result.set("service.write_bytes_per_eval",
             static_cast<double>(wbytes1 - wbytes0) / tells, "B");
  result.set("structure.refits",
             sample_delta(before, after, std::string(obs::metric::kStructureRefits)), "count");
  result.set("structure.refit_p50_ms",
             1e3 * prom_quantile(delta(before, after, obs::metric::kStructureRefitSeconds), 0.5),
             "ms");
  const PromHistogram fit = delta(before, after, obs::metric::kGpFitSeconds);
  const PromHistogram acq = delta(before, after, obs::metric::kAcqArgmaxSeconds);
  result.set("bo.gp_fit_p50_ms", 1e3 * prom_quantile(fit, 0.5), "ms");
  result.set("bo.gp_fit_p99_ms", 1e3 * prom_quantile(fit, 0.99), "ms");
  result.set("bo.acq_argmax_p50_ms", 1e3 * prom_quantile(acq, 0.5), "ms");
  result.set("bo.acq_argmax_p99_ms", 1e3 * prom_quantile(acq, 0.99), "ms");
  const double ask_handler_s = tally.ask_handler_ms.sum() / 1e3;
  result.set("bo.ask_share", ask_handler_s > 0.0 ? (fit.sum + acq.sum) / ask_handler_s : 0.0,
             "ratio");
  const double eval_busy = tally.eval_s.sum();
  result.set("eval.calls", static_cast<double>(tally.eval_s.size()), "count");
  result.set("eval.busy_s", eval_busy, "s");
  result.set("eval.share", eval_busy / (wall * static_cast<double>(writers)), "ratio");
  result.set("obs.dropped_spans", static_cast<double>(stack.telemetry.dropped_spans()),
             "count");
  if (options.trace) {
    const double traced_per_eval_s = wall / tells;
    result.set("obs.overhead_pct", 100.0 * (traced_per_eval_s / untraced_per_eval_s - 1.0),
               "%");
  }

  tunekit::json::Object d;
  d["sessions"] = Value(run.outcomes.size());
  d["asks"] = Value(static_cast<std::size_t>(tally.asks.load()));
  d["tells"] = Value(static_cast<std::size_t>(tally.tells.load()));
  d["reads"] = Value(tally.read_ms.size());
  d["wall_s"] = Value(wall);
  tunekit::json::Array errors;
  for (const auto& e : tally.errors) errors.push_back(Value(e));
  d["request_errors"] = Value(std::move(errors));

  // Stop the server (drain + journal flush, as serve does on SIGTERM) before
  // the journals are reopened.
  run.clients.clear();
  if (options.trace) {
    summarize_trace(stack.telemetry, {"server."},
                    (fs::path(options.work_dir) / "trace.json").string(), result);
  }
  run.stack.reset();
  run.setup(setup_tally, setups_before, kSetupReps - setups_before, /*keep=*/false,
            setup_times);
  result.set("setup_s", median(setup_times), "s");
  tunekit::json::Array setups;
  for (double t : setup_times) setups.push_back(Value(t));
  d["setup_reps_s"] = Value(std::move(setups));
  result.details["service"] = Value(std::move(d));
  run.check_sessions(result);

  result.attempted += setup_tally.attempted.load() + tally.attempted.load();
  result.failed += setup_tally.failed.load() + tally.failed.load();
  for (const auto& e : setup_tally.errors) result.check(false, "setup: " + e);
}

}  // namespace

void run_service_bo(const Options& options, RunResult& result) {
  run_service(options, result, /*bo=*/true);
}

void run_service_journal(const Options& options, RunResult& result) {
  run_service(options, result, /*bo=*/false);
}

}  // namespace perfbench
