#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "search/drive.hpp"
#include "search/grid_search.hpp"
#include "search/random_search.hpp"
#include "service/session.hpp"

namespace tunekit::search {
namespace {

SearchSpace bowl_space() {
  SearchSpace s;
  s.add(ParamSpec::real("x", -5.0, 5.0, 0.0));
  s.add(ParamSpec::real("y", -5.0, 5.0, 0.0));
  return s;
}

FunctionObjective bowl() {
  return FunctionObjective([](const Config& c) {
    return (c[0] - 1.0) * (c[0] - 1.0) + (c[1] + 2.0) * (c[1] + 2.0);
  });
}

TEST(RandomSearch, FindsReasonableMinimum) {
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 300;
  opt.seed = 5;
  const auto result = RandomSearch(opt).run(obj, bowl_space());
  EXPECT_EQ(result.evaluations, 300u);
  EXPECT_EQ(result.method, "random");
  EXPECT_LT(result.best_value, 0.5);
  EXPECT_NEAR(result.best_config[0], 1.0, 1.5);
  EXPECT_NEAR(result.best_config[1], -2.0, 1.5);
}

TEST(RandomSearch, DeterministicPerSeed) {
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 50;
  opt.seed = 11;
  const auto r1 = RandomSearch(opt).run(obj, bowl_space());
  const auto r2 = RandomSearch(opt).run(obj, bowl_space());
  EXPECT_EQ(r1.best_value, r2.best_value);
  EXPECT_EQ(r1.values, r2.values);
}

TEST(RandomSearch, TrajectoryMonotone) {
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 100;
  const auto result = RandomSearch(opt).run(obj, bowl_space());
  ASSERT_EQ(result.trajectory.size(), 100u);
  for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
    EXPECT_LE(result.trajectory[i], result.trajectory[i - 1]);
  }
  EXPECT_DOUBLE_EQ(result.trajectory.back(), result.best_value);
}

TEST(RandomSearch, RespectsConstraints) {
  SearchSpace space = bowl_space();
  space.add_constraint("x_positive", [](const Config& c) { return c[0] >= 0.0; });
  auto obj = bowl();
  RandomSearchOptions opt;
  opt.max_evals = 50;
  const auto result = RandomSearch(opt).run(obj, space);
  EXPECT_GE(result.best_config[0], 0.0);
}

TEST(GridSearch, ExhaustiveOnDiscreteSpace) {
  SearchSpace space;
  space.add(ParamSpec::integer("a", 0, 9, 0));
  space.add(ParamSpec::integer("b", 0, 9, 0));
  FunctionObjective obj(
      [](const Config& c) { return std::abs(c[0] - 7.0) + std::abs(c[1] - 3.0); });
  const auto result = GridSearch().run(obj, space);
  EXPECT_EQ(result.evaluations, 100u);
  EXPECT_DOUBLE_EQ(result.best_value, 0.0);
  EXPECT_EQ(result.best_config, (Config{7.0, 3.0}));
  EXPECT_EQ(result.method, "grid");
}

TEST(GridSearch, BudgetSubsamples) {
  SearchSpace space;
  space.add(ParamSpec::integer("a", 0, 99, 0));
  FunctionObjective obj([](const Config& c) { return c[0]; });
  GridSearchOptions opt;
  opt.max_evals = 10;
  const auto result = GridSearch(opt).run(obj, space);
  EXPECT_LE(result.evaluations, 10u);
  EXPECT_GE(result.evaluations, 5u);
}

TEST(GridSearch, BudgetKeepsExactlyMaxEvalsCellsLikeTheSessionBackend) {
  SearchSpace space;
  space.add(ParamSpec::integer("a", 0, 99, 0));
  std::vector<Config> evaluated;
  FunctionObjective obj([&evaluated](const Config& c) {
    evaluated.push_back(c);
    return c[0];
  });
  GridSearchOptions opt;
  opt.max_evals = 60;
  const auto result = GridSearch(opt).run(obj, space);
  EXPECT_EQ(result.evaluations, 60u);

  service::SessionOptions sopt;
  sopt.backend = service::SessionBackend::Grid;
  sopt.max_evals = 60;
  service::TuningSession session(space, sopt);
  std::vector<Config> asked;
  for (const auto& candidate : session.ask(100)) asked.push_back(candidate.config);
  EXPECT_EQ(evaluated, asked);
}

TEST(GridSearch, RealLevelsControlResolution) {
  SearchSpace space;
  space.add(ParamSpec::real("x", 0.0, 1.0, 0.0));
  FunctionObjective obj([](const Config& c) { return (c[0] - 0.5) * (c[0] - 0.5); });
  GridSearchOptions opt;
  opt.real_levels = 11;
  const auto result = GridSearch(opt).run(obj, space);
  EXPECT_EQ(result.evaluations, 11u);
  EXPECT_NEAR(result.best_config[0], 0.5, 1e-12);
}

TEST(Drive, StopsWhenTheProposerRunsOut) {
  auto obj = bowl();
  std::size_t calls = 0;
  const Proposer three = [&calls](const std::vector<Evaluation>& evals) -> std::optional<Config> {
    EXPECT_EQ(evals.size(), calls++);
    if (evals.size() == 3) return std::nullopt;
    return Config{static_cast<double>(evals.size()), 0.0};
  };
  const auto result = drive(obj, three, 10, {}, nullptr, "three");
  EXPECT_EQ(result.method, "three");
  EXPECT_EQ(result.evaluations, 3u);
  EXPECT_EQ(calls, 4u);
}

TEST(Drive, RecordsEveryFailureWithItsOutcome) {
  FunctionObjective obj([](const Config& c) -> double {
    switch (static_cast<int>(c[0])) {
      case 0: throw std::invalid_argument("rejected");
      case 1: throw std::runtime_error("crash");
      case 2: return std::numeric_limits<double>::quiet_NaN();
      default: return c[0];
    }
  });
  const Proposer counter = [](const std::vector<Evaluation>& evals) -> std::optional<Config> {
    return Config{static_cast<double>(evals.size())};
  };
  EvalDb db;
  const auto result = drive(obj, counter, 4, {}, nullptr, "counter", &db);
  ASSERT_EQ(result.evaluations, 4u);
  const auto evals = db.all();
  ASSERT_EQ(evals.size(), 4u);
  EXPECT_EQ(evals[0].outcome, robust::EvalOutcome::InvalidConfig);
  EXPECT_EQ(evals[1].outcome, robust::EvalOutcome::Crashed);
  EXPECT_EQ(evals[2].outcome, robust::EvalOutcome::NonFinite);
  EXPECT_EQ(evals[3].outcome, robust::EvalOutcome::Ok);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isnan(result.values[i]));
  EXPECT_EQ(result.best_value, 3.0);
}

TEST(Drive, MeasureOptionsApplyToEveryEvaluation) {
  // One transient crash per configuration; a retry recovers it, and three
  // repeats are averaged.
  std::size_t calls = 0;
  FunctionObjective obj([&calls](const Config& c) -> double {
    if (calls++ % 4 == 0) throw std::runtime_error("transient");
    return c[0];
  });
  const Proposer one_two = [](const std::vector<Evaluation>& evals) -> std::optional<Config> {
    return Config{static_cast<double>(evals.size() + 1)};
  };
  robust::MeasureOptions measure;
  measure.repeats = 3;
  measure.watchdog.max_retries = 1;
  const auto result = drive(obj, one_two, 2, measure, nullptr, "flaky");
  EXPECT_EQ(calls, 8u);
  EXPECT_EQ(result.values, (std::vector<double>{1.0, 2.0}));
}

}  // namespace
}  // namespace tunekit::search
