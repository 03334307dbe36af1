// Equivalence pins for the BO engine: exact proposals and values of
// BayesOpt::run, BayesOpt::suggest_batch and a Bo-backed TuningSession on
// fixed seeds. They were recorded from the engine before its blocking loop
// and its batch path shared one proposal step, and must keep passing
// unchanged: any refactor of that step that moves a single proposal by one
// bit fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "bo/bayes_opt.hpp"
#include "bo/transfer.hpp"
#include "search/samplers.hpp"
#include "service/session.hpp"

namespace tunekit::bo {
namespace {

using search::Config;
using search::FunctionObjective;
using search::ParamSpec;
using search::SearchSpace;

SearchSpace real_space() {
  SearchSpace s;
  s.add(ParamSpec::real("x0", -5.0, 5.0, 0.0));
  s.add(ParamSpec::real("x1", -5.0, 5.0, 0.0));
  return s;
}

double shifted_bowl(const Config& c) {
  const double a = c[0] - 1.0;
  const double b = c[1] + 0.5;
  return a * a + 2.0 * b * b;
}

/// NaN (a failed evaluation) equals NaN; everything else compares exactly.
bool same(double a, double b) { return (std::isnan(a) && std::isnan(b)) || a == b; }

void expect_values(const std::vector<double>& actual, const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(same(actual[i], expected[i]))
        << "value " << i << ": " << actual[i] << " != " << expected[i];
  }
}

void expect_configs(const std::vector<Config>& actual, const std::vector<Config>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "config " << i;
  }
}

std::vector<Config> configs_of(const search::EvalDb& db) {
  std::vector<Config> out;
  for (const auto& e : db.all()) out.push_back(e.config);
  return out;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Recorded pins (printed with %.17g, which round-trips doubles exactly).
// clang-format off
const std::vector<double> kDiscreteValues = {
    7, 2, 4, 8,
    10, 1, 3, 0,
    8, 8, 9, 8,
    2, 1, 1, 9,
    6, 7, 0, 11,
    9, 8, 6, 7,
};
const std::vector<Config> kDiscreteConfigs = {
    {2, 2},
    {8, 5},
    {4, 3},
    {16, 3},
    {1, 0},
    {8, 2},
    {8, 0},
    {8, 3},
    {2, 5},
    {16, 3},
    {2, 0},
    {2, 5},
    {8, 1},
    {8, 2},
    {8, 2},
    {1, 1},
    {4, 1},
    {2, 2},
    {8, 3},
    {16, 0},
    {16, 4},
    {1, 4},
    {4, 1},
    {2, 2},
};
const std::vector<double> kCrashValues = {
    14.339736989227017, 42.570046948784338, kNaN, 27.362284076318296,
    4.840456938064805, 4.7367107564557287, 5.0266383383190236, 4.4228091834027685,
    4.2542094927244287, 4.0014857383152682, kNaN, kNaN,
    2.1207505532740245, 9.5042401295808681, 40.530310350691998, 2.0023834445730446,
    36.005605608156749, 1.5286760911132791,
};
const std::vector<Config> kCrashConfigs = {
    {1.8188604002337687, -3.114307234637506},
    {-3.131831769588409, 3.0705751061001543},
    {2.2346051056394796, -1.5950008731684902},
    {-1.9108855778894061, -3.5731929022397662},
    {-1.0758406958877109, -1.0154329943655278},
    {-1.0754315878356779, -0.96330037808618574},
    {-1.1332423404535747, -0.98780910980381353},
    {-0.98640742793315273, -0.98836191172877363},
    {-0.98078855506093365, -0.90662402343199489},
    {-0.90086524613402119, -0.94056614393023619},
    {5, 5},
    {5, -5},
    {-0.43828412947586859, -0.66138357439942208},
    {0.17299985727350808, 1.6000370108061466},
    {1.1740986809025156, -5},
    {-0.089316295409505919, 0.13866010253042838},
    {-5, -0.55294151564109129},
    {-0.18558088431089015, -0.25193341834309191},
};
const std::vector<double> kTransferValues = {
    2.25, 13.219886706001484, 27.647572867363117, 1.6837297866823007,
    65.245953777130126, 0.01769978167325946, 0.2694547061971847, 5.0238695588528364,
    0.095889866313198166, 3.6847986478518759, 0.0047988951424347429, 0.17483387212970444,
    0.007133554129322088, 0.60227591893791854, 76.5, 56.5,
};
const std::vector<Config> kTransferConfigs = {
    {0.5, 0.5},
    {2.2067268914543092, -2.9252522462047637},
    {-2.7932731085456908, 2.0747477537952363},
    {-0.29327310854569077, -0.42525224620476365},
    {4.7067268914543092, 4.5747477537952363},
    {1.1119133071061267, -0.55086842520576607},
    {0.48117500153947823, -0.51173301260598247},
    {-1.2411793439656571, -0.47781095952386821},
    {0.87097979462204211, -0.30094767909237063},
    {2.8164849825581051, -0.93885131650295683},
    {0.93503102622550216, -0.51699893510081374},
    {1.0917821845327911, -0.78845268479604513},
    {1.049880917276262, -0.45180535184794479},
    {1.5041463010585154, -0.082799552932325327},
    {-5, -5},
    {5, -5},
};
const std::vector<Config> kBatchConfigs = {
    {4.3421194334114137, -1.8953341615871362},
    {2.2608730920855962, -1.1767428212604258},
    {4.9999999999999982, -5},
    {5, -3.5445865457637424},
};
const std::vector<Config> kSessionConfigs = {
    {1.8288558110864983, -1.1929717962377158},
    {-2.3223096103436021, 2.0072498014384808},
    {-3.7073062063631843, 3.7243299318923402},
    {3.4145189167360108, -4.3597822400724677},
    {2.3476492378335578, -1.1136578584484091},
    {5, -1.9482193581913005},
    {-5, 0.31941954894148328},
    {5, -1.3577215181684292},
    {1.0914530917022134, 0.3957873795136857},
    {1.0276503649538231, -0.49661839173011391},
    {0.60483763360585208, -0.54504536510915624},
    {0.94030768246439678, -0.42219176623338939},
    {0.98376478840144532, -0.52376216273476928},
    {1.011982008731124, -0.50325727109519303},
};
// clang-format on

TEST(BoEquivalence, RunDiscreteSpaceWithDuplicateRetries) {
  // 30 cells and a 24-eval budget: the argmax keeps landing on evaluated
  // cells, so both duplicate retries and the random fallback fire.
  SearchSpace space;
  space.add(ParamSpec::ordinal("a", {1, 2, 4, 8, 16}, 1));
  space.add(ParamSpec::integer("b", 0, 5, 0));
  FunctionObjective obj(
      [](const Config& c) { return std::abs(c[0] - 8.0) + std::abs(c[1] - 3.0); });
  BoOptions opt;
  opt.max_evals = 24;
  opt.seed = 11;
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, space, db);
  expect_values(result.values, kDiscreteValues);
  expect_configs(configs_of(db), kDiscreteConfigs);
}

TEST(BoEquivalence, RunCrashingObjectiveWithPenaltyAndTimeout) {
  // Crashes on x0 > 2 are fed to the surrogate at the finite penalty; the
  // timeout clamps the large corner values; uniform-random initial design.
  FunctionObjective obj([](const Config& c) {
    if (c[0] > 2.0) throw std::runtime_error("crash");
    return shifted_bowl(c);
  });
  BoOptions opt;
  opt.max_evals = 18;
  opt.seed = 12;
  opt.failure_penalty = 60.0;
  opt.timeout_value = 30.0;
  opt.init_design = InitialDesign::UniformRandom;
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, real_space(), db);
  expect_values(result.values, kCrashValues);
  expect_configs(configs_of(db), kCrashConfigs);
}

TEST(BoEquivalence, RunWithTransferPriorWarmStartAndSobol) {
  const SearchSpace space = real_space();
  std::vector<search::Evaluation> source;
  tunekit::Rng source_rng(5);
  for (std::size_t i = 0; i < 10; ++i) {
    Config c = space.sample_valid(source_rng);
    source.push_back({c, 1.5 * shifted_bowl(c) + 0.3, 0.0});
  }
  tunekit::Rng fit_rng(6);
  BoOptions opt;
  opt.max_evals = 16;
  opt.seed = 13;
  opt.init_design = InitialDesign::Sobol;
  opt.hyperopt_every = 3;
  opt.transfer = TransferPrior::fit(space, source, fit_rng);
  opt.warm_start = {{0.5, 0.5}};
  FunctionObjective obj(shifted_bowl);
  search::EvalDb db;
  const auto result = BayesOpt(opt).run(obj, space, db);
  expect_values(result.values, kTransferValues);
  expect_configs(configs_of(db), kTransferConfigs);
}

TEST(BoEquivalence, SuggestBatchOfFour) {
  const SearchSpace space = real_space();
  search::EvalDb db;
  tunekit::Rng rng(21);
  for (const auto& c : search::sample_valid_configs(space, 8, rng, true)) {
    db.record(c, shifted_bowl(c), 0.0);
  }
  db.record({4.0, 4.0}, std::numeric_limits<double>::quiet_NaN(), 0.0);
  BoOptions opt;
  opt.seed = 14;
  const auto batch = BayesOpt(opt).suggest_batch(db, space, 4);
  expect_configs(batch, kBatchConfigs);
}

TEST(BoEquivalence, SessionAskTellSequence) {
  const SearchSpace space = real_space();
  service::SessionOptions opt;
  opt.max_evals = 14;
  opt.n_init = 4;
  opt.seed = 15;
  service::TuningSession session(space, opt);
  std::vector<Config> asked;
  for (;;) {
    const auto batch = session.ask(1);
    if (batch.empty()) break;
    ASSERT_EQ(batch.size(), 1u);
    asked.push_back(batch[0].config);
    ASSERT_TRUE(session.tell(batch[0].id, shifted_bowl(batch[0].config)));
  }
  expect_configs(asked, kSessionConfigs);
}

}  // namespace
}  // namespace tunekit::bo
