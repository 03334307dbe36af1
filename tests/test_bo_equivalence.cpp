// Equivalence pins for the search engines: exact proposals and values of
// BayesOpt::run, BayesOpt::suggest_batch and a Bo-backed TuningSession on
// fixed seeds, recorded from the engine before its blocking loop and its
// batch path shared one proposal step; and exact values and incumbents of
// every other blocking driver (AdditiveBo, DropoutBo, Rembo, RandomSearch,
// GridSearch) and of PlanExecutor's blocking path under repeated
// measurement, recorded before those drivers shared one evaluation loop.
// They must keep passing unchanged: any refactor that moves a single
// proposal by one bit fails here.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "bo/additive_bo.hpp"
#include "bo/bayes_opt.hpp"
#include "bo/dropout_bo.hpp"
#include "bo/rembo.hpp"
#include "bo/transfer.hpp"
#include "core/executor.hpp"
#include "core/tunable_app.hpp"
#include "search/grid_search.hpp"
#include "search/random_search.hpp"
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

// --- The other blocking drivers -------------------------------------------

SearchSpace unit_cube(std::size_t dims) {
  SearchSpace s;
  for (std::size_t i = 0; i < dims; ++i) {
    s.add(ParamSpec::real("x" + std::to_string(i), 0.0, 1.0, 0.5));
  }
  return s;
}

/// Additive bowl with per-coordinate optima 0.2, 0.3, 0.4, ... plus one
/// cross term, so an additive model over the wrong cut is mis-specified.
double cube_bowl(const Config& c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const double t = 0.2 + 0.1 * static_cast<double>(i % 4);
    acc += (c[i] - t) * (c[i] - t);
  }
  return acc + 0.5 * (c[0] - 0.2) * (c[c.size() - 1] - 0.5);
}

void expect_result(const search::SearchResult& actual, const std::vector<double>& values,
                   const Config& best) {
  expect_values(actual.values, values);
  EXPECT_EQ(actual.best_config, best);
}

// clang-format off
const std::vector<double> kAdditiveValues = {
    0.53298105526870287, 0.60907833296149594, 0.72442205587797692,
    0.3059240109863185, 0.23848879427380004, 0.1152887320830765,
    0.11615712110424266, 0.1115083879532677, 0.13098831968967142,
    0.26373931764540948, 0.048331782081723049, 0.044677340736161253,
    0.035774249246512825, 0.038409401062843192, 0.011081133875998366,
    0.00075556944632362844,
};
const Config kAdditiveBest = {
    0.18570960390278077, 0.30800200614472323, 0.38101293381881529,
    0.49175834047847145,
};
const std::vector<double> kAdditiveRegroupValues = {
    0.41446790759355756, 0.30927648274617392, 1.3319181639021156,
    0.3191262790310252, 0.39600737499657002, 0.21624710385561449,
    0.52937262451196387, 0.18509772052579396, 0.19409834093030276,
    0.12918719030992559, 0.135236134195025, 0.11324194414087707,
    0.013721446486568723, 0.0097951645520314816, 0.017163986725918807,
    0.003225645527245905, 0.00083248633122771009, 0.00090372092606856667,
};
const Config kAdditiveRegroupBest = {
    0.18241343008877176, 0.31146040080202009, 0.38152454397106167,
    0.512754039981975,
};
const std::vector<double> kDropoutCopyValues = {
    0.2536063533966495, 1.4482980702408836, 0.62411138391899257,
    0.86233717543789001, 0.56565911406050284, 0.74601424288296569,
    0.35200857467683822, 0.24016299604525038, 0.64753575595480106,
    0.46741006033244775, 0.23547213518766538, 0.24389611793088603,
    0.20470782185029576, 0.34550749258964297,
};
const Config kDropoutCopyBest = {
    0.028079905990372106, 0, 0.65467843325820874,
    0.46583678148716712, 0.22852147243970655, 0.39743066068123856,
};
const std::vector<double> kDropoutRandomValues = {
    0.2536063533966495, 1.4482980702408836, 0.62411138391899257,
    0.86233717543789001, 0.56565911406050284, 1.2660760161157845,
    0.46706290498106484, 0.42795644924106213, 0.67488572733733543,
    0.77508898319415753, 0.18880217852595577, 0.3442697047947797,
    0.8566235976750004, 0.077446660998953698,
};
const Config kDropoutRandomBest = {
    0.38714478877557795, 0.39649805839459284, 0.24558514595254299,
    0.65751542952778175, 0.18492602269777017, 0.32485707466793756,
};
const std::vector<double> kRemboValues = {
    1.2086342331484683, 0.11166798619141843, 0.51940082091947948,
    0.16615019252024693, 0.61693530210982994, 1.1828986361778633,
    0.11318723282900454, 0.25454506331976307, 1.0859010198801025,
    0.24373001782335268, 1.1318202497586021, 0.1070406009400986,
    0.15781554030684009, 0.0792937811256514,
};
const Config kRemboBest = {
    0.35601631301447145, 0.33994017045914754, 0.31299070740244012,
    0.50158328851277711, 0.30359257536498468, 0.48941631911269684,
};
const std::vector<double> kRandomValues = {
    37.8954750471948, 51.225324127453092, 22.374612146278523,
    31.985710672294672, 10.587003696806935, 8.3131468649912037,
    30.062045183109344, 30.689817355081605, 40.685858666435436,
    26.725269318400549, 26.438269249986199, 9.2489654246489525,
};
const Config kRandomBest = {-1.8675332935074533, -0.71260253481261859};
const std::vector<double> kGridValues = {
    5.96, 4.96, 3.96,
    2.96, 3.96, 4.96,
    3.96, 2.96, 1.9599999999999997,
    2.96, 6.96, 5.96,
    4.96, 4.1600000000000001, 3.1600000000000001,
    2.1600000000000001, 1.1600000000000001, 2.1600000000000001,
    3.1600000000000001, 2.1600000000000001, 1.1600000000000001,
    0.16000000000000003, 1.1600000000000001, 5.1600000000000001,
    4.1600000000000001, 3.1600000000000001, 4.3600000000000003,
    3.3599999999999999, 2.3599999999999999, 1.3599999999999999,
    2.3599999999999999, 3.3599999999999999, 2.3599999999999999,
    1.3599999999999999, 0.35999999999999999, 1.3599999999999999,
    5.3600000000000003, 4.3600000000000003, 3.3599999999999999,
};
const Config kGridBest = {3, 2, 0};
const std::vector<std::vector<double>> kExecutorValues = {
    {
        22.898989821948277, 11.40342130635001, 9.2400897959504587,
        10.289430515323483, 8.1486480525092198, 8.4534231346935211,
    },
    {
        1.8538373054932038, 2.3586297377899808, 4.2734777898357885,
        kNaN, 1.6458657173468147, kNaN,
        kNaN, 6.9540527732576392,
    },
    {
        3.0459836956420756, 1.5304918478210379, 3.0449836956420757,
        4.5724755434631144,
    },
};
const std::vector<Config> kExecutorBest = {
    {7.6703020703263096},
    {1.4527132776785976, 0.35829079805253716},
    {2},
};
const Config kExecutorFinal = {
    7.6703020703263096, 1.4527132776785976, 0.35829079805253716,
    2,
};
// clang-format on

TEST(BoEquivalence, AdditiveBoStaticGroups) {
  FunctionObjective obj(cube_bowl);
  AdditiveBoOptions opt;
  opt.max_evals = 16;
  opt.seed = 31;
  const auto result = AdditiveBo({{0, 1}, {2, 3}}, opt).run(obj, unit_cube(4));
  expect_result(result, kAdditiveValues, kAdditiveBest);
}

TEST(BoEquivalence, AdditiveBoScriptedRegroup) {
  // The hook re-cuts the decomposition once, after the 12th observation.
  FunctionObjective obj(cube_bowl);
  AdditiveBoOptions opt;
  opt.max_evals = 18;
  opt.seed = 32;
  std::size_t regroups = 0;
  opt.regroup_hook = [&regroups](const std::vector<std::vector<double>>& units,
                                 const std::vector<double>& values)
      -> std::optional<std::vector<std::vector<std::size_t>>> {
    EXPECT_EQ(units.size(), values.size());
    if (values.size() != 12) return std::nullopt;
    ++regroups;
    return std::vector<std::vector<std::size_t>>{{0, 3}, {1}, {2}};
  };
  const auto result = AdditiveBo({{0, 1}, {2, 3}}, opt).run(obj, unit_cube(4));
  EXPECT_EQ(regroups, 1u);
  expect_result(result, kAdditiveRegroupValues, kAdditiveRegroupBest);
}

TEST(BoEquivalence, DropoutBoFillFromBestAndRandom) {
  FunctionObjective obj(cube_bowl);
  DropoutBoOptions opt;
  opt.max_evals = 14;
  opt.active_dims = 3;
  opt.seed = 41;
  opt.fill_from_best = true;
  const auto copy = DropoutBo(opt).run(obj, unit_cube(6));
  expect_result(copy, kDropoutCopyValues, kDropoutCopyBest);
  opt.fill_from_best = false;
  const auto random = DropoutBo(opt).run(obj, unit_cube(6));
  expect_result(random, kDropoutRandomValues, kDropoutRandomBest);
}

TEST(BoEquivalence, RemboWithInfeasibleProjections) {
  // The constraint rejects part of the projected box, so both the initial
  // design and the BO loop hit infeasible projections.
  SearchSpace space = unit_cube(6);
  space.add_constraint("x0_plus_x1", [](const Config& c) { return c[0] + c[1] <= 1.1; });
  FunctionObjective obj(cube_bowl);
  RemboOptions opt;
  opt.max_evals = 14;
  opt.embedding_dims = 2;
  opt.seed = 51;
  const auto result = Rembo(opt).run(obj, space);
  expect_result(result, kRemboValues, kRemboBest);
}

TEST(BoEquivalence, RandomSearchSequence) {
  SearchSpace space = real_space();
  space.add_constraint("x0_below_x1_plus_2", [](const Config& c) { return c[0] <= c[1] + 2.0; });
  FunctionObjective obj(shifted_bowl);
  search::RandomSearchOptions opt;
  opt.max_evals = 12;
  opt.seed = 61;
  const auto result = search::RandomSearch(opt).run(obj, space);
  expect_result(result, kRandomValues, kRandomBest);
}

TEST(BoEquivalence, GridSearchWholeGrid) {
  SearchSpace space;
  space.add(ParamSpec::integer("a", 0, 4, 0));
  space.add(ParamSpec::ordinal("b", {1, 2, 4}, 1));
  space.add(ParamSpec::real("c", -1.0, 1.0, 0.0));
  space.add_constraint("ab", [](const Config& c) { return c[0] * c[1] <= 8.0; });
  FunctionObjective obj([](const Config& c) {
    return std::abs(c[0] - 3.0) + std::abs(c[1] - 2.0) + (c[2] - 0.4) * (c[2] - 0.4);
  });
  search::GridSearchOptions opt;
  opt.real_levels = 3;
  const auto result = search::GridSearch(opt).run(obj, space);
  expect_result(result, kGridValues, kGridBest);
}

/// Two routines under an outer region; every call adds a small
/// call-counter-driven jitter so repeated measurements differ, and `a`
/// crashes above 3.5.
class JitteryApp final : public core::TunableApp {
 public:
  JitteryApp() {
    space_.add(ParamSpec::real("g", 1.0, 8.0, 1.0));
    space_.add(ParamSpec::real("a", 0.0, 4.0, 0.0));
    space_.add(ParamSpec::real("a2", 0.0, 1.0, 0.0));
    space_.add(ParamSpec::ordinal("b", {1, 2, 4, 8}, 1));
  }
  const SearchSpace& space() const override { return space_; }
  std::vector<core::RoutineSpec> routines() const override {
    return {{"A", {1, 2}}, {"B", {3}}};
  }
  std::vector<std::string> outer_regions() const override { return {"Outer"}; }
  search::RegionTimes evaluate_regions(const Config& c) override {
    if (c[1] > 3.5) throw std::runtime_error("crash");
    const double jitter = 1e-3 * static_cast<double>((calls_++ * 7919) % 13);
    const double g = 1.0 + 4.0 / c[0];
    search::RegionTimes t;
    t.regions["A"] = g * (1.0 + (c[1] - 1.3) * (c[1] - 1.3) + (c[2] - 0.6) * (c[2] - 0.6));
    t.regions["B"] = g * (1.0 + std::abs(std::log2(c[3] / 2.0))) + jitter;
    t.regions["Outer"] = t.regions["A"] + t.regions["B"] + 0.3 * g + jitter;
    t.total = t.regions["Outer"];
    return t;
  }

 private:
  SearchSpace space_;
  std::size_t calls_ = 0;
};

TEST(BoEquivalence, PlanExecutorBlockingPathWithRepeats) {
  JitteryApp app;
  graph::SearchPlan plan;
  plan.searches.push_back({"global", graph::SearchStageKind::SharedGlobal, 0, {}, {0}, {},
                           {"Outer"}});
  plan.searches.push_back({"A", graph::SearchStageKind::RoutineGroup, 1, {0}, {1, 2}, {},
                           {"A"}});
  plan.searches.push_back({"B", graph::SearchStageKind::RoutineGroup, 1, {1}, {3}, {},
                           {"B"}});
  core::ExecutorOptions opt;
  opt.evals_per_param = 4;
  opt.min_evals = 6;
  opt.bo.seed = 17;
  opt.measure.repeats = 3;
  const auto exec = core::PlanExecutor(opt).execute(app, plan);
  ASSERT_EQ(exec.outcomes.size(), 3u);
  EXPECT_EQ(exec.outcomes[0].result.method, "bo");
  EXPECT_EQ(exec.outcomes[1].result.method, "bo");
  EXPECT_EQ(exec.outcomes[2].result.method, "enumerate");
  ASSERT_EQ(kExecutorValues.size(), 3u);
  for (std::size_t i = 0; i < exec.outcomes.size(); ++i) {
    SCOPED_TRACE(exec.outcomes[i].planned.name);
    expect_result(exec.outcomes[i].result, kExecutorValues[i], kExecutorBest[i]);
  }
  EXPECT_EQ(exec.final_config, kExecutorFinal);
}

}  // namespace
}  // namespace tunekit::bo
