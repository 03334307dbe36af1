// Table III shape pins (bench/table3_synth_strategies, one fixed seed per
// case): minima of Random Search, fully joint 20-dim BO, the methodology's
// merged split G1,G2,G3+G4 and the fully independent split G1..G4 on the
// five synthetic cases, at the paper's budgets. Only shapes with wide
// margins in EXPERIMENTS.md are pinned; case 4's merged-vs-joint gap
// (38.8 vs 39.5) is too close to pin, and so is case 5's independent-vs-
// Random gap.

#include <gtest/gtest.h>

#include "bo/bayes_opt.hpp"
#include "search/random_search.hpp"
#include "synth/synth_app.hpp"

namespace tunekit {
namespace {

bo::BoOptions table3_bo_options(std::size_t evals, std::uint64_t seed) {
  bo::BoOptions opt;
  opt.max_evals = evals;
  opt.n_init = 5;
  opt.seed = seed;
  opt.hyperopt_every = 10;
  opt.hyperopt_restarts = 1;
  opt.hyperopt_max_iters = 60;
  opt.maximizer.n_candidates = 256;
  opt.maximizer.refine_iters = 20;
  return opt;
}

/// Full objective F at the composition of each group search's winner; each
/// search tunes its groups' variables against the sum of their outputs with
/// everything else at the baseline.
double compose(const synth::SynthApp& app, const std::vector<std::vector<int>>& partition,
               const std::vector<std::size_t>& budgets, std::uint64_t seed) {
  search::Config combined = app.baseline();
  for (std::size_t s = 0; s < partition.size(); ++s) {
    const std::vector<int>& groups = partition[s];
    std::vector<std::size_t> indices;
    for (int g : groups) {
      for (std::size_t i = 0; i < 5; ++i) indices.push_back(5 * (g - 1) + i);
    }
    search::FunctionObjective objective([&app, &groups](const search::Config& c) {
      const auto values = app.function().evaluate_groups(c);
      double acc = 0.0;
      for (int g : groups) acc += values.groups[g - 1];
      return acc;
    });
    search::SubspaceObjective sub(objective, app.space(), indices, app.baseline());
    const auto result =
        bo::BayesOpt(table3_bo_options(budgets[s], seed + 31 * s)).run(sub, sub.space());
    for (std::size_t k = 0; k < indices.size(); ++k) {
      combined[indices[k]] = result.best_config[k];
    }
  }
  return app.function().evaluate(combined);
}

// One test per case, so a parallel test run spreads the ~3 s joint searches.
class TableIII : public ::testing::TestWithParam<int> {};

TEST_P(TableIII, StrategyOrdering) {
  const int c = GetParam();
  const std::uint64_t seed = 1000 * static_cast<std::uint64_t>(c);
  const synth::SynthApp app(static_cast<synth::SynthCase>(c), 0.01, 12345);
  search::FunctionObjective full(
      [&app](const search::Config& x) { return app.function().evaluate(x); });

  search::RandomSearchOptions ropt;
  ropt.max_evals = 200;
  ropt.seed = seed;
  const double random = search::RandomSearch(ropt).run(full, app.space()).best_value;
  const double joint =
      bo::BayesOpt(table3_bo_options(200, seed)).run(full, app.space()).best_value;
  const double merged = compose(app, {{1}, {2}, {3, 4}}, {50, 50, 100}, seed);
  const double independent = compose(app, {{1}, {2}, {3}, {4}}, {50, 50, 50, 50}, seed);

  EXPECT_LT(joint, random);
  EXPECT_LT(merged, random);
  if (c < 5) {
    EXPECT_LT(independent, random);
  } else {
    // Case 5 is where the fully independent split collapses to Random's
    // level (EXPERIMENTS.md: 72.8 vs 72.3); the merged split beats both it
    // and the joint 20-dim search.
    EXPECT_LT(merged, independent);
    EXPECT_LT(merged, joint);
  }
}

INSTANTIATE_TEST_SUITE_P(PaperShapes, TableIII, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace tunekit
