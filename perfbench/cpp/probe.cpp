// Fixed-archive probe of the surrogate's building blocks, called directly:
// GaussianProcess::fit_with_hyperopt / fit / predict, maximize_acquisition
// and BayesOpt::suggest_batch on 8-dimensional archives of N in {50, 100,
// 200} seed-drawn points, plus the Cholesky factorization underneath.
// Every prediction must be finite with a non-negative variance.

#include <cmath>
#include <string>

#include "bo/acquisition.hpp"
#include "bo/bayes_opt.hpp"
#include "bo/gp.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "search/eval_db.hpp"
#include "search/space.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace bo = tunekit::bo;
constexpr std::size_t kDim = 8;

/// Median wall milliseconds of `reps` calls of `fn`.
template <typename Fn>
double time_ms(std::size_t reps, Fn fn) {
  std::vector<double> v;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint64_t t0 = now_ns();
    fn();
    v.push_back(ms_between(t0, now_ns()));
  }
  return median(v);
}

struct Archive {
  tunekit::linalg::Matrix x;
  std::vector<double> y;
  std::vector<std::vector<double>> points;
};

Archive make_archive(std::size_t n, InputRng& rng) {
  Archive a;
  a.x = tunekit::linalg::Matrix(n, kDim);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p(kDim);
    double f = 1.0;
    for (std::size_t d = 0; d < kDim; ++d) {
      p[d] = rng.uniform();
      a.x(i, d) = p[d];
      const double c = 0.2 + 0.075 * static_cast<double>(d);
      f += (1.0 + 0.25 * static_cast<double>(d)) * (p[d] - c) * (p[d] - c);
    }
    f += 4.0 * std::abs((p[0] - 0.3) * (p[1] - 0.6));
    a.points.push_back(p);
    a.y.push_back(f);
  }
  return a;
}

}  // namespace

void run_gp_probe(std::uint64_t seed, RunResult& result) {
  InputRng rng(seed ^ 0x9b0be);
  tunekit::search::SearchSpace space;
  for (std::size_t d = 0; d < kDim; ++d) {
    std::string name = "u";
    name += std::to_string(d);
    space.add(tunekit::search::ParamSpec::real(name, 0.0, 1.0, 0.5));
  }
  const bo::BoOptions defaults;

  for (std::size_t n : {50u, 100u, 200u}) {
    const std::string tag = ".n" + std::to_string(n);
    const Archive a = make_archive(n, rng);
    const std::size_t heavy_reps = n >= 200 ? 2 : 3;

    bo::GaussianProcess gp;
    tunekit::Rng hyper_rng(seed + n);
    result.set("bo.hyperopt_ms" + tag, time_ms(heavy_reps, [&] {
                 gp = bo::GaussianProcess();
                 gp.fit_with_hyperopt(a.x, a.y, hyper_rng, defaults.hyperopt_restarts,
                                      defaults.hyperopt_max_iters);
               }),
               "ms");
    result.set("bo.fit_ms" + tag, time_ms(10, [&] { gp.fit(a.x, a.y); }), "ms");

    double best = a.y[0];
    std::vector<double> incumbent = a.points[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (a.y[i] < best) {
        best = a.y[i];
        incumbent = a.points[i];
      }
    }
    tunekit::Rng acq_rng(seed * 31 + n);
    result.set("bo.argmax_ms" + tag, time_ms(5, [&] {
                 bo::maximize_acquisition(gp, defaults.acquisition, defaults.acq_params, best,
                                          incumbent, acq_rng, defaults.maximizer,
                                          [](const std::vector<double>&) { return true; });
               }),
               "ms");

    // Predictions on fresh points: finite mean, non-negative variance.
    std::vector<std::vector<double>> queries;
    for (std::size_t q = 0; q < 1000; ++q) {
      std::vector<double> p(kDim);
      for (double& v : p) v = rng.uniform();
      queries.push_back(p);
    }
    std::size_t bad = 0;
    const std::uint64_t t0 = now_ns();
    for (const auto& q : queries) {
      const auto pred = gp.predict(q);
      if (!std::isfinite(pred.mean) || !std::isfinite(pred.variance) || pred.variance < 0.0) {
        ++bad;
      }
    }
    if (n == 200) {
      result.set("bo.predict_us.n200",
                 static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(queries.size()),
                 "us");
    }
    result.check(bad == 0, "probe" + tag + ": " + std::to_string(bad) +
                               " predictions not finite or with negative variance");

    tunekit::search::EvalDb db;
    for (std::size_t i = 0; i < n; ++i) db.record(a.points[i], a.y[i]);
    bo::BoOptions bopt;
    bopt.seed = seed + 7 * n;
    const bo::BayesOpt optimizer(bopt);
    std::size_t suggested = 0;
    result.set("bo.suggest1_ms" + tag, time_ms(heavy_reps, [&] {
                 suggested = optimizer.suggest_batch(db, space, 1).size();
               }),
               "ms");
    result.check(suggested == 1, "probe" + tag + ": suggest_batch(1) returned " +
                                     std::to_string(suggested));
    if (n == 100) {
      result.set("bo.suggest4_ms.n100", time_ms(heavy_reps, [&] {
                   suggested = optimizer.suggest_batch(db, space, 4).size();
                 }),
                 "ms");
      result.check(suggested == 4, "probe.n100: suggest_batch(4) returned " +
                                       std::to_string(suggested));
    }
  }

  // Cholesky of a 200x200 squared-exponential Gram matrix.
  const std::size_t n = 200;
  const Archive a = make_archive(n, rng);
  tunekit::linalg::Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < kDim; ++d) {
        const double diff = a.points[i][d] - a.points[j][d];
        d2 += diff * diff;
      }
      k(i, j) = std::exp(-0.5 * d2 / 0.09) + (i == j ? 1e-6 : 0.0);
    }
  }
  tunekit::linalg::Matrix l;
  const double chol_ms = time_ms(21, [&] { l = tunekit::linalg::cholesky(k); });
  result.set("linalg.cholesky_ms.n200", chol_ms, "ms");
  // Computed, not counted: a Cholesky factorization costs n^3/3 flops.
  const double flops = std::pow(static_cast<double>(n), 3) / 3.0;
  result.set("linalg.cholesky_gflops.n200", flops / (chol_ms * 1e-3) / 1e9, "GFLOP/s");
}

}  // namespace perfbench
