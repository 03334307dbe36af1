#pragma once
// The paper's methodology, end to end (§IV):
//
//   1. constrain the search (the app's SearchSpace constraints + budget),
//   2. statistical insights (sensitivity on the total runtime, feature
//      importance via random forest, Pearson correlation),
//   3. per-routine sensitivity analysis to infer interdependence,
//   4. DAG construction + cut-off pruning + partition into an optimized set
//      of merged/independent searches, capped at 10 dimensions,
//   5. shared kernels tuned only in their highest-impact region.
//
// analyze() performs phases 1-3, make_plan() phase 4-5, and run() executes
// the plan with the chosen search backend (BO by default) through
// PlanExecutor. Every evaluation of every phase goes through the app it is
// given: pass a robust::SandboxedApp to run them all in one shared pool of
// worker processes.

#include <cstdint>
#include <optional>

#include "bo/bayes_opt.hpp"
#include "core/executor.hpp"
#include "core/tunable_app.hpp"
#include "graph/influence_graph.hpp"
#include "graph/search_plan.hpp"
#include "linalg/matrix.hpp"
#include "stats/correlation.hpp"
#include "stats/random_forest.hpp"
#include "stats/sensitivity.hpp"

namespace tunekit::obs {
class Telemetry;
}

namespace tunekit::core {

struct MethodologyOptions {
  /// Influence cut-off (fraction) for edge pruning.
  double cutoff = 0.10;
  /// Per-search dimension cap.
  std::size_t max_dims = 10;

  /// Sensitivity analysis settings (V variations, ladder factor, repeated
  /// measurement via sensitivity.measure, ...).
  stats::SensitivityOptions sensitivity;

  /// With repeated measurement (sensitivity.measure.repeats > 1) the graph
  /// influence becomes the score's lower confidence bound
  /// max(0, score - z * stderr): a DAG cross edge is created only when the
  /// influence is distinguishable from measurement noise at this z. Ignored
  /// for single measurements (stderr is 0, the bound is the score).
  double confidence_z = 1.96;

  /// Adopt the app's expert_variations() automatically (the paper's
  /// protocol). Set false to force the configured variation mode, e.g. for
  /// ladder-based ablations of V.
  bool use_app_expert_variations = true;

  /// Feature-importance dataset size (0 disables the random-forest step and
  /// ranks by influence instead). The one-in-ten rule is checked and a
  /// warning logged when violated. Each sample is measured once under
  /// sensitivity.measure.watchdog; failed samples are dropped.
  std::size_t importance_samples = 100;
  stats::ForestOptions forest;

  /// Pearson threshold for reporting correlated parameter pairs.
  double correlation_threshold = 0.5;

  /// Search execution settings (budget rule, backend, parallelism).
  ExecutorOptions executor;

  /// Root of the span tree ("methodology.run" → "phase.*") plus
  /// tunekit_phase_<name>_seconds gauges; propagated into every phase (null =
  /// disabled, the default).
  obs::Telemetry* telemetry = nullptr;

  std::uint64_t seed = 42;
};

/// Phase 1-3 output: scores, graph, insight data.
struct InfluenceAnalysis {
  stats::SensitivityReport sensitivity;
  graph::InfluenceGraph graph;
  /// Normalized feature importance per parameter (empty if disabled).
  std::vector<double> importance;
  /// Correlated parameter pairs above the threshold.
  std::vector<stats::CorrelatedPair> correlated;
  /// Total application evaluations consumed by the analysis.
  std::size_t observations = 0;
};

struct MethodologyResult {
  InfluenceAnalysis analysis;
  graph::SearchPlan plan;
  ExecutionResult execution;
  /// Analysis + search evaluations.
  std::size_t total_observations = 0;
  double seconds = 0.0;
};

class Methodology {
 public:
  explicit Methodology(MethodologyOptions options = {});

  const MethodologyOptions& options() const { return options_; }

  /// Phases 1-3: sensitivity per routine/outer region, influence graph,
  /// feature importance, correlations.
  InfluenceAnalysis analyze(TunableApp& app) const;

  /// Phases 4-5: partition the (pruned) graph into the final search set.
  graph::SearchPlan make_plan(TunableApp& app, const InfluenceAnalysis& analysis) const;

  /// Full pipeline: analyze, plan, execute.
  MethodologyResult run(TunableApp& app) const;

 private:
  MethodologyOptions options_;
};

}  // namespace tunekit::core
