#include "core/methodology.hpp"

#include <algorithm>
#include <set>

#include "common/log.hpp"
#include "common/stopwatch.hpp"
#include "obs/telemetry.hpp"
#include "search/samplers.hpp"
#include "stats/correlation.hpp"
#include "stats/descriptive.hpp"

namespace tunekit::core {

namespace {

/// Per-phase wall time as a gauge: tunekit_phase_<name>_seconds. The gauge is
/// set from a Stopwatch started/stopped at the same points as the phase span,
/// so `tunekit_cli report` reproduces the span totals from the metrics
/// snapshot alone.
void add_phase_seconds(obs::Telemetry* telemetry, const char* phase, double seconds) {
  if (telemetry == nullptr || !telemetry->enabled()) return;
  telemetry->metrics()
      .gauge(std::string("tunekit_phase_") + phase + "_seconds")
      .add(seconds);
}

}  // namespace

Methodology::Methodology(MethodologyOptions options) : options_(std::move(options)) {}

InfluenceAnalysis Methodology::analyze(TunableApp& app) const {
  const search::SearchSpace& space = app.space();
  const auto routines = app.routines();
  const auto outer = app.outer_regions();
  obs::Telemetry* telemetry = options_.telemetry;

  // --- Phase 1/2: sensitivity analysis around the app's baseline. ---
  stats::SensitivityOptions sens_opts = options_.sensitivity;
  if (sens_opts.telemetry == nullptr) sens_opts.telemetry = telemetry;
  if (options_.use_app_expert_variations) {
    const auto expert = app.expert_variations();
    if (!expert.empty() && sens_opts.expert_values.empty()) {
      sens_opts.mode = stats::VariationMode::ExpertValues;
      sens_opts.expert_values = expert;
    }
  }
  stats::SensitivityAnalyzer analyzer(sens_opts);
  obs::ScopedSpan sens_span(telemetry, "phase.sensitivity");
  Stopwatch sens_watch;
  stats::SensitivityReport report = analyzer.analyze(app, space, app.baseline());
  add_phase_seconds(telemetry, "sensitivity", sens_watch.seconds());
  sens_span.end();

  // --- Build the influence graph: routines + outer regions as vertices. ---
  std::vector<std::string> vertex_names;
  vertex_names.reserve(routines.size() + outer.size());
  for (const auto& r : routines) vertex_names.push_back(r.name);
  for (const auto& o : outer) vertex_names.push_back(o);

  std::vector<std::string> param_names;
  param_names.reserve(space.size());
  for (const auto& p : space.params()) param_names.push_back(p.name());

  graph::InfluenceGraph g(vertex_names, param_names);
  for (std::size_t ri = 0; ri < routines.size(); ++ri) {
    for (std::size_t p : routines[ri].params) g.add_owner(p, ri);
  }
  // Influence scores from the per-region sensitivity. With repeated
  // measurement the graph gets the lower confidence bound instead of the raw
  // score, so a cross edge (and the merged search it forces) appears only
  // when the influence clears the cutoff after measurement noise is
  // discounted — a noisy spike on a single run cannot inflate the DAG.
  const bool use_lcb = sens_opts.measure.repeats > 1;
  const auto& report_regions = report.regions();
  for (std::size_t v = 0; v < vertex_names.size(); ++v) {
    const bool have_region = std::find(report_regions.begin(), report_regions.end(),
                                       vertex_names[v]) != report_regions.end();
    if (!have_region) {
      log_warn("methodology: app does not report region '", vertex_names[v],
               "'; its influences stay zero");
      continue;
    }
    for (std::size_t p = 0; p < space.size(); ++p) {
      const double influence =
          use_lcb ? report.lower_bound(vertex_names[v], p, options_.confidence_z)
                  : report.score(vertex_names[v], p);
      g.set_influence(p, v, influence);
    }
  }

  InfluenceAnalysis analysis{std::move(report), std::move(g), {}, {}, 0};
  analysis.observations = analysis.sensitivity.observations;

  // --- Feature importance + correlations over a sampled dataset. ---
  if (options_.importance_samples > 0) {
    obs::ScopedSpan imp_span(telemetry, "phase.importance");
    Stopwatch imp_watch;
    const std::size_t n = options_.importance_samples;
    if (!stats::one_in_ten_ok(n, space.size())) {
      log_warn("methodology: ", n, " samples for ", space.size(),
               " parameters violates the one-in-ten rule (need ",
               stats::one_in_ten_required(space.size()),
               "); importance estimates may be unstable");
    }
    tunekit::Rng rng(options_.seed ^ 0xfeedface);
    const auto configs = search::sample_valid_configs(space, n, rng);
    // A flaky app must not abort the whole analysis: failed, hung or
    // non-finite samples are dropped and the forest fits whatever survived.
    // One measurement each, under the analysis' deadline and retry policy.
    std::vector<std::vector<double>> units;
    std::vector<double> y;
    units.reserve(n);
    y.reserve(n);
    robust::MeasureOptions sample_measure;
    sample_measure.watchdog = options_.sensitivity.measure.watchdog;
    const robust::RobustMeasurer measurer(sample_measure);
    for (std::size_t i = 0; i < n; ++i) {
      const robust::Measurement m = measurer.measure(app, configs[i], telemetry);
      if (robust::is_failure(m.outcome)) {
        log_warn("methodology: importance sample failed as ", robust::to_string(m.outcome),
                 " (", m.error, "); dropped");
        continue;
      }
      units.push_back(space.encode_unit(configs[i]));
      y.push_back(m.value);
    }
    analysis.observations += n;
    if (units.size() < n) {
      log_warn("methodology: ", n - units.size(), " of ", n,
               " importance samples failed");
    }

    if (units.size() >= 2) {
      linalg::Matrix x(units.size(), space.size());
      for (std::size_t i = 0; i < units.size(); ++i) {
        for (std::size_t k = 0; k < space.size(); ++k) x(i, k) = units[i][k];
      }
      stats::RandomForest forest(options_.forest);
      forest.fit(x, y);
      analysis.importance = forest.impurity_importance();
      analysis.correlated = stats::correlated_pairs(x, options_.correlation_threshold);
    } else {
      log_warn("methodology: too few successful importance samples (", units.size(),
               "); skipping the random-forest step");
    }
    add_phase_seconds(telemetry, "importance", imp_watch.seconds());
  }

  return analysis;
}

graph::SearchPlan Methodology::make_plan(TunableApp& app,
                                         const InfluenceAnalysis& analysis) const {
  graph::PlanOptions plan_opts;
  plan_opts.cutoff = options_.cutoff;
  plan_opts.max_dims = options_.max_dims;
  plan_opts.importance = analysis.importance;
  plan_opts.bound_groups = app.bound_groups();

  const auto outer = app.outer_regions();
  for (const auto& o : outer) {
    plan_opts.outer_routines.push_back(analysis.graph.routine_index(o));
  }
  return graph::build_plan(analysis.graph, plan_opts);
}

MethodologyResult Methodology::run(TunableApp& app) const {
  Stopwatch watch;
  obs::Telemetry* telemetry = options_.telemetry;
  obs::ScopedSpan run_span(telemetry, "methodology.run");
  MethodologyResult result{analyze(app), {}, {}, 0, 0.0};
  {
    obs::ScopedSpan part_span(telemetry, "phase.partition");
    Stopwatch part_watch;
    result.plan = make_plan(app, result.analysis);
    add_phase_seconds(telemetry, "partition", part_watch.seconds());
  }

  ExecutorOptions exec_opts = options_.executor;
  if (exec_opts.telemetry == nullptr) exec_opts.telemetry = telemetry;
  PlanExecutor executor(exec_opts);
  {
    obs::ScopedSpan exec_span(telemetry, "phase.execution");
    Stopwatch exec_watch;
    result.execution = executor.execute(app, result.plan);
    add_phase_seconds(telemetry, "execution", exec_watch.seconds());
  }

  result.total_observations = result.analysis.observations +
                              result.execution.total_evaluations;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace tunekit::core
