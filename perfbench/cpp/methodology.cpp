// The paper's pipeline, in-process: core::Methodology::run on the Table III
// synthetic cases and RT-TDDFT case study 1, each at its default cut-off and
// variations. Evaluations take microseconds, so the run time is the tuner's
// own cost. Every application is wrapped in a forwarding TunableApp
// decorator that timestamps each evaluation; the gap between one
// evaluation's end and the next one's start during the search phase is the
// tuner's time per suggestion (the in-process ask).

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <mutex>
#include <utility>

#include "core/app_registry.hpp"
#include "core/methodology.hpp"
#include "obs/telemetry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace core = tunekit::core;
namespace search = tunekit::search;
using tunekit::json::Value;

const char* const kCases[] = {"synth:case1", "synth:case2", "synth:case3",
                              "synth:case4", "synth:case5", "tddft:cs1"};
/// Set-up is timed in batches of kSetupBatch: one before the reference run
/// and one after each pass, so that the median spans the whole run.
constexpr std::size_t kSetupBatch = 25;
const char* const kSpeedupCase = "tddft:cs1";
/// A run makes a fixed number of passes over the six cases, each with its
/// own tuner seed: round(--seconds / kPassSeconds) less one for the
/// reference run, at least kMinPasses (ask_p99_ms then rests on ~3500
/// gaps). One pass takes 6-8 s on a 4-core host. The work does not depend
/// on how fast the run goes.
constexpr std::size_t kMinPasses = 3;
constexpr double kPassSeconds = 6.0;
/// The applications are the paper's fixed Table III / case-study inputs,
/// built with the registry's default baseline seed; --seed drives the
/// tuner's own randomness (analysis sampling and every search).
constexpr std::uint64_t kAppSeed = 42;

/// Forwarding decorator: every TunableApp call goes to the wrapped app;
/// evaluations are timestamped on the way through.
class TimedApp final : public core::TunableApp {
 public:
  explicit TimedApp(core::TunableApp& inner) : inner_(inner) {}

  const search::SearchSpace& space() const override { return inner_.space(); }
  std::vector<core::RoutineSpec> routines() const override { return inner_.routines(); }
  std::vector<std::string> outer_regions() const override { return inner_.outer_regions(); }
  std::vector<tunekit::graph::BoundGroup> bound_groups() const override {
    return inner_.bound_groups();
  }
  search::Config baseline() const override { return inner_.baseline(); }
  std::map<std::string, std::vector<double>> expert_variations() const override {
    return inner_.expert_variations();
  }
  std::string name() const override { return inner_.name(); }
  bool thread_safe() const override { return inner_.thread_safe(); }

  search::RegionTimes evaluate_regions(const search::Config& config) override {
    const std::uint64_t t0 = now_ns();
    search::RegionTimes r = inner_.evaluate_regions(config);
    stamp(t0);
    return r;
  }
  search::RegionTimes evaluate_regions_cancellable(const search::Config& config,
                                                   const search::CancelFlag& cancel) override {
    const std::uint64_t t0 = now_ns();
    search::RegionTimes r = inner_.evaluate_regions_cancellable(config, cancel);
    stamp(t0);
    return r;
  }
  double evaluate(const search::Config& config) override {
    const std::uint64_t t0 = now_ns();
    const double v = inner_.evaluate(config);
    stamp(t0);
    return v;
  }
  double evaluate_cancellable(const search::Config& config,
                              const search::CancelFlag& cancel) override {
    const std::uint64_t t0 = now_ns();
    const double v = inner_.evaluate_cancellable(config, cancel);
    stamp(t0);
    return v;
  }

  /// (start, end) of every evaluation since the last reset, in call order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(stamps_, {});
  }

 private:
  void stamp(std::uint64_t t0) {
    const std::uint64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    stamps_.emplace_back(t0, t1);
  }
  core::TunableApp& inner_;
  std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> stamps_;
};

struct Case {
  std::string name;
  core::AppBundle bundle;
  std::unique_ptr<TimedApp> timed;
  core::MethodologyOptions options;
};

Case make_case(const std::string& name) {
  Case c;
  c.name = name;
  c.bundle = core::make_builtin_app(name, kAppSeed);
  c.timed = std::make_unique<TimedApp>(*c.bundle.app);
  c.options.cutoff = c.bundle.default_cutoff;
  c.options.sensitivity.n_variations = c.bundle.default_variations;
  return c;
}

std::vector<std::vector<std::size_t>> partition_of(const tunekit::graph::SearchPlan& plan) {
  std::vector<std::vector<std::size_t>> blocks;
  for (const auto& s : plan.searches) {
    std::vector<std::size_t> p = s.params;
    std::sort(p.begin(), p.end());
    blocks.push_back(p);
  }
  std::sort(blocks.begin(), blocks.end());
  return blocks;
}

std::vector<std::size_t> iota(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> v;
  for (std::size_t i = lo; i < hi; ++i) v.push_back(i);
  return v;
}

/// Outputs of a decorated run must equal the undecorated reference exactly.
void check_same(const std::string& name, const core::MethodologyResult& got,
                const core::MethodologyResult& ref, RunResult& result) {
  result.check(got.execution.final_config == ref.execution.final_config,
               name + ": final configuration differs through the decorator");
  result.check(got.execution.final_times.total == ref.execution.final_times.total,
               name + ": final objective differs through the decorator");
  result.check(got.total_observations == ref.total_observations,
               name + ": observation count differs through the decorator");
  result.check(partition_of(got.plan) == partition_of(ref.plan),
               name + ": plan differs through the decorator");
}

struct PassStats {
  Samples ask_ms;
  double wall_s = 0.0;
  double eval_busy_s = 0.0;
  std::size_t evals = 0;
  std::size_t observations = 0;
  std::vector<double> speedups;
  tunekit::json::Array per_case;
};

/// Seed of pass `p`: every pass tunes with fresh tuner randomness, so
/// tuned_speedup averages over several searches.
std::uint64_t pass_seed(std::uint64_t seed, std::size_t p) { return seed + 7919 * p; }

/// One pass over every case through the decorator. `reference` (bare runs
/// with the same seed) is compared when non-null.
void run_pass(std::vector<Case>& cases, std::uint64_t seed,
              const std::vector<core::MethodologyResult>* reference,
              tunekit::obs::Telemetry* telemetry, PassStats& stats, RunResult& result) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Case& c = cases[i];
    core::MethodologyOptions opt = c.options;
    opt.seed = seed;
    opt.executor.bo.seed = seed;
    opt.telemetry = telemetry;
    opt.executor.telemetry = telemetry;
    c.timed->take();
    const std::uint64_t t0 = now_ns();
    const core::MethodologyResult r = core::Methodology(opt).run(*c.timed);
    const double wall = static_cast<double>(now_ns() - t0) / 1e9;
    stats.wall_s += wall;
    const auto stamps = c.timed->take();
    ++result.attempted;

    stats.evals += stamps.size();
    stats.observations += r.total_observations;
    for (const auto& [a, b] : stamps) stats.eval_busy_s += static_cast<double>(b - a) / 1e9;
    // Search-phase suggestion gaps: every evaluation after the analysis.
    for (std::size_t k = std::max<std::size_t>(1, r.analysis.observations); k < stamps.size();
         ++k) {
      stats.ask_ms.add(ms_between(stamps[k - 1].second, stamps[k].first));
    }

    result.check(stamps.size() == r.total_observations,
                 c.name + ": decorator saw " + std::to_string(stamps.size()) +
                     " evaluations, run reports " + std::to_string(r.total_observations));
    if (reference != nullptr) check_same(c.name, r, (*reference)[i], result);
    const core::PlanExecutor executor(opt.executor);
    tunekit::json::Array plan;
    for (const auto& o : r.execution.outcomes) {
      plan.push_back(Value(o.planned.name + ":" + o.result.method + ":" +
                           std::to_string(o.planned.params.size()) + "d:" +
                           std::to_string(o.result.evaluations)));
      if (o.result.method != "bo") continue;
      result.check(o.result.evaluations == executor.budget_for(o.planned.params.size()),
                   c.name + ": search " + o.planned.name + " used " +
                       std::to_string(o.result.evaluations) + " evaluations, budget " +
                       std::to_string(executor.budget_for(o.planned.params.size())));
    }
    if (c.name == "synth:case3") {
      // The paper's Fig. 2 partition at the 25% cut-off.
      const std::vector<std::vector<std::size_t>> fig2 = {iota(0, 5), iota(5, 10),
                                                          iota(10, 20)};
      result.check(partition_of(r.plan) == fig2, "synth:case3: plan is not the Fig. 2 partition");
    }
    const double base = c.bundle.app->evaluate_regions(c.bundle.app->baseline()).total;
    const double speedup = base / r.execution.final_times.total;
    // Only the RT-TDDFT objective is a runtime; the synthetic functions can
    // reach zero or go negative, where a ratio means nothing.
    if (c.name == kSpeedupCase) stats.speedups.push_back(speedup);

    tunekit::json::Object o;
    o["case"] = Value(c.name);
    o["seed"] = Value(static_cast<std::size_t>(seed));
    o["seconds"] = Value(wall);
    o["observations"] = Value(r.total_observations);
    o["objective_ratio"] = Value(speedup);
    o["plan"] = Value(std::move(plan));
    stats.per_case.push_back(Value(std::move(o)));
  }
}

}  // namespace

void run_methodology(const Options& options, RunResult& result) {
  // Set-up: build every application and its decorator, kSetupBatch times
  // now (the last build is used) and again after every pass.
  std::vector<double> setup_times;
  auto setup_batch = [&setup_times] {
    std::vector<Case> built;
    for (std::size_t rep = 0; rep < kSetupBatch; ++rep) {
      const std::uint64_t t0 = now_ns();
      built.clear();
      for (const char* name : kCases) built.push_back(make_case(name));
      setup_times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    return built;
  };
  std::vector<Case> cases = setup_batch();

  // Reference: the first pass's seed on the bare applications, untraced.
  // Pass 0 must reproduce it exactly through the decorator.
  std::vector<core::MethodologyResult> reference;
  for (const char* name : kCases) {
    Case c = make_case(name);
    c.options.seed = pass_seed(options.seed, 0);
    c.options.executor.bo.seed = c.options.seed;
    reference.push_back(core::Methodology(c.options).run(*c.bundle.app));
  }

  // Untraced baseline for obs.overhead_pct: pass 0 through the decorator,
  // warmed up by the reference run, without telemetry.
  double untraced_wall = 0.0;
  if (options.trace) {
    PassStats untraced;
    run_pass(cases, pass_seed(options.seed, 0), &reference, nullptr, untraced, result);
    untraced_wall = untraced.wall_s;
  }

  tunekit::obs::Telemetry telemetry;
  if (options.trace) telemetry.enable();
  PassStats stats;
  const std::size_t passes = std::max(
      kMinPasses,
      static_cast<std::size_t>(std::max(0.0, std::round(options.seconds / kPassSeconds) - 1.0)));
  double first_pass_wall = 0.0;
  for (std::size_t p = 0; p < passes; ++p) {
    run_pass(cases, pass_seed(options.seed, p), p == 0 ? &reference : nullptr,
             options.trace ? &telemetry : nullptr, stats, result);
    if (p == 0) first_pass_wall = stats.wall_s;
    setup_batch();
  }

  result.set("setup_s", median(setup_times), "s");
  result.set("ask_p50_ms", stats.ask_ms.quantile(0.5), "ms");
  result.set("ask_p99_ms", stats.ask_ms.quantile(0.99), "ms");
  result.set("evals_per_s", static_cast<double>(stats.evals) / stats.wall_s, "1/s");
  result.set("tuned_speedup", geomean(stats.speedups), "x");

  const double per_pass = 1.0 / static_cast<double>(passes);
  result.set("core.observations", static_cast<double>(stats.observations) * per_pass, "count");
  result.set("eval.calls", static_cast<double>(stats.evals) * per_pass, "count");
  result.set("eval.busy_s", stats.eval_busy_s * per_pass, "s");
  result.set("eval.share", stats.eval_busy_s / stats.wall_s, "ratio");
  if (options.trace) {
    result.set("obs.overhead_pct", 100.0 * (first_pass_wall / untraced_wall - 1.0), "%");
    result.set("obs.dropped_spans", static_cast<double>(telemetry.dropped_spans()), "count");
    // Phase spans -> per-pass stats/graph/core figures.
    double sens = 0.0, imp = 0.0, part = 0.0, exec = 0.0;
    for (const auto& s : telemetry.spans()) {
      const double sec = static_cast<double>(s.dur_ns) / 1e9;
      if (s.name == "phase.sensitivity") sens += sec;
      else if (s.name == "phase.importance") imp += sec;
      else if (s.name == "phase.partition") part += sec;
      else if (s.name == "phase.execution") exec += sec;
    }
    result.set("stats.sensitivity_s", sens * per_pass, "s");
    result.set("stats.importance_s", imp * per_pass, "s");
    result.set("graph.partition_ms", 1e3 * part * per_pass, "ms");
    result.set("core.execution_s", exec * per_pass, "s");
    // BayesOpt::run's own GP-fit / acquisition-argmax histograms.
    auto& metrics = telemetry.metrics();
    const auto& fit = metrics.histogram(tunekit::obs::metric::kGpFitSeconds);
    const auto& acq = metrics.histogram(tunekit::obs::metric::kAcqArgmaxSeconds);
    result.set("bo.gp_fit_p50_ms", 1e3 * fit.quantile(0.5), "ms");
    result.set("bo.gp_fit_p99_ms", 1e3 * fit.quantile(0.99), "ms");
    result.set("bo.acq_argmax_p50_ms", 1e3 * acq.quantile(0.5), "ms");
    result.set("bo.acq_argmax_p99_ms", 1e3 * acq.quantile(0.99), "ms");
    summarize_trace(telemetry, {"methodology.run"},
                    (std::filesystem::path(options.work_dir) / "trace.json").string(), result);
  }

  tunekit::json::Object d;
  d["passes"] = Value(passes);
  d["wall_s"] = Value(stats.wall_s);
  d["ask_samples"] = Value(stats.ask_ms.size());
  d["cases"] = Value(std::move(stats.per_case));
  result.details["methodology"] = Value(std::move(d));
}

}  // namespace perfbench
