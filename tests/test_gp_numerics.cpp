// Bit-identity of the GP numerics against the textbook loops they replace:
// the Gram matrix from cached pair differences, the blocked Cholesky and
// forward solve, the batched prediction and the batched acquisition scan. Each reference below
// is the straightforward per-pair / per-point / dot-product formulation,
// and every comparison is memcmp, so a reassociated sum or a reciprocal
// multiply in place of a division fails here even when it is within
// rounding.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "bo/acquisition.hpp"
#include "bo/gp.hpp"
#include "bo/kernels.hpp"
#include "bo/nelder_mead.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/vecops.hpp"

namespace tunekit::bo {
namespace {

using linalg::Matrix;

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.rows() * a.cols() * sizeof(double)) == 0;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// ---- References: the per-pair kernel, the unblocked Cholesky, the GP ----

double ref_kernel(KernelKind kind, const std::vector<double>& a, const std::vector<double>& b,
                  const GpHyperparams& hp) {
  double r2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = (a[i] - b[i]) / hp.lengthscales[i];
    r2 += d * d;
  }
  switch (kind) {
    case KernelKind::RBF:
      return hp.signal_variance * std::exp(-0.5 * r2);
    case KernelKind::Matern32: {
      const double r = std::sqrt(3.0 * r2);
      return hp.signal_variance * (1.0 + r) * std::exp(-r);
    }
    case KernelKind::Matern52: {
      const double r = std::sqrt(5.0 * r2);
      return hp.signal_variance * (1.0 + r + r * r / 3.0) * std::exp(-r);
    }
  }
  return 0.0;
}

Matrix ref_gram(KernelKind kind, const Matrix& x, const GpHyperparams& hp) {
  const std::size_t n = x.rows();
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = hp.signal_variance + hp.noise_variance;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = ref_kernel(kind, x.row(i), x.row(j), hp);
      k(i, j) = v;
      k(j, i) = v;
    }
  }
  return k;
}

bool ref_try_cholesky(const Matrix& a, Matrix& l) {
  const std::size_t n = a.rows();
  l = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a(i, j);
      const double* li = l.row_ptr(i);
      const double* lj = l.row_ptr(j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      l(i, j) = s / ljj;
    }
  }
  return true;
}

Matrix ref_cholesky(const Matrix& a, double initial_jitter, double max_jitter,
                    double* jitter_used) {
  Matrix l;
  if (ref_try_cholesky(a, l)) {
    *jitter_used = 0.0;
    return l;
  }
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += a(i, i);
  mean_diag = std::abs(mean_diag) / static_cast<double>(a.rows());
  if (mean_diag == 0.0) mean_diag = 1.0;
  for (double jitter = initial_jitter; jitter <= max_jitter; jitter *= 10.0) {
    Matrix aj = a;
    const double eps = jitter * mean_diag;
    for (std::size_t i = 0; i < aj.rows(); ++i) aj(i, i) += eps;
    if (ref_try_cholesky(aj, l)) {
      *jitter_used = eps;
      return l;
    }
  }
  throw std::runtime_error("ref_cholesky: not positive definite");
}

/// The GaussianProcess pipeline with per-point prediction.
struct RefGp {
  KernelKind kind = KernelKind::Matern52;
  GpHyperparams hp;
  std::function<double(const std::vector<double>&)> prior;
  Matrix x;
  Matrix chol;
  std::vector<double> alpha;
  double shift = 0.0;
  double scale = 1.0;
  double lml = 0.0;

  void fit(const Matrix& xs, const std::vector<double>& y) {
    x = xs;
    const std::size_t n = x.rows();
    std::vector<double> resid(n);
    for (std::size_t i = 0; i < n; ++i) resid[i] = y[i] - (prior ? prior(x.row(i)) : 0.0);
    double mean = 0.0;
    for (double v : resid) mean += v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (double v : resid) var += (v - mean) * (v - mean);
    var = n > 1 ? var / static_cast<double>(n - 1) : 1.0;
    shift = mean;
    scale = var > 1e-300 ? std::sqrt(var) : 1.0;
    std::vector<double> y_std(n);
    for (std::size_t i = 0; i < n; ++i) y_std[i] = (resid[i] - shift) / scale;
    const Matrix gram = ref_gram(kind, x, hp);
    double jitter = 0.0;
    try {
      chol = ref_cholesky(gram, 1e-10, 1e-6, &jitter);
    } catch (const std::exception&) {
      chol = ref_cholesky(gram, 1e-5, 1e-2, &jitter);
    }
    alpha = linalg::solve_with_cholesky(chol, y_std);
    lml = -0.5 * linalg::dot(y_std, alpha) - 0.5 * linalg::log_det_from_cholesky(chol) -
          0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  }

  GaussianProcess::Prediction predict(const std::vector<double>& point) const {
    std::vector<double> k(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) k[i] = ref_kernel(kind, x.row(i), point, hp);
    double mean_std = 0.0;
    for (std::size_t i = 0; i < k.size(); ++i) mean_std += k[i] * alpha[i];
    const std::vector<double> v = linalg::solve_lower(chol, k);
    double vv = 0.0;
    for (double e : v) vv += e * e;
    const double var_std = std::max(0.0, hp.signal_variance + hp.noise_variance - vv);
    GaussianProcess::Prediction p;
    p.mean = (prior ? prior(point) : 0.0) + shift + scale * mean_std;
    p.variance = scale * scale * var_std;
    return p;
  }
};

Matrix random_points(std::size_t n, std::size_t d, Rng& rng) {
  Matrix x(n, d);
  for (std::size_t i = 0; i < n * d; ++i) x.data()[i] = rng.uniform();
  return x;
}

GpHyperparams random_ard(std::size_t d, Rng& rng) {
  GpHyperparams hp;
  hp.signal_variance = rng.uniform(0.3, 3.0);
  hp.noise_variance = rng.uniform(1e-6, 1e-3);
  for (std::size_t k = 0; k < d; ++k) hp.lengthscales.push_back(rng.uniform(0.05, 2.0));
  return hp;
}

std::vector<double> bowl(const Matrix& x) {
  std::vector<double> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double f = 1.0;
    for (std::size_t k = 0; k < x.cols(); ++k) {
      const double c = 0.2 + 0.05 * static_cast<double>(k);
      f += (1.0 + 0.25 * static_cast<double>(k)) * (x(i, k) - c) * (x(i, k) - c);
    }
    y[i] = f;
  }
  return y;
}

constexpr KernelKind kKinds[] = {KernelKind::RBF, KernelKind::Matern32, KernelKind::Matern52};

// ---- Gram matrix ----

TEST(GpNumerics, GramFromPairDifferencesMatchesPairwiseFormula) {
  Rng rng(101);
  for (std::size_t n : {1u, 2u, 7u, 33u, 64u, 65u, 200u}) {
    for (std::size_t d : {1u, 3u, 8u, 13u}) {
      const Matrix x = random_points(n, d, rng);
      const GpHyperparams hp = random_ard(d, rng);
      const PairDifferences diffs(x);
      ASSERT_EQ(diffs.n_pairs(), n * (n - 1) / 2);
      for (KernelKind kind : kKinds) {
        const Matrix expected = ref_gram(kind, x, hp);
        EXPECT_TRUE(same_bits(kernel_gram(kind, diffs, hp), expected))
            << to_string(kind) << " n=" << n << " d=" << d;
        EXPECT_TRUE(same_bits(kernel_gram(kind, x, hp), expected))
            << to_string(kind) << " n=" << n << " d=" << d;
      }
    }
  }
}

TEST(GpNumerics, CrossCovarianceMatchesPairwiseFormula) {
  Rng rng(102);
  for (std::size_t d : {1u, 3u, 8u, 13u}) {
    const Matrix x = random_points(65, d, rng);
    const Matrix points = random_points(9, d, rng);
    const GpHyperparams hp = random_ard(d, rng);
    for (KernelKind kind : kKinds) {
      const Matrix k = kernel_cross(kind, x, points, hp);
      ASSERT_EQ(k.rows(), points.rows());
      ASSERT_EQ(k.cols(), x.rows());
      for (std::size_t b = 0; b < points.rows(); ++b) {
        std::vector<double> expected(x.rows());
        for (std::size_t i = 0; i < x.rows(); ++i) {
          expected[i] = ref_kernel(kind, x.row(i), points.row(b), hp);
        }
        EXPECT_TRUE(same_bits(k.row(b), expected)) << to_string(kind) << " d=" << d;
        EXPECT_TRUE(same_bits(kernel_cross(kind, x, points.row(b), hp), expected));
      }
    }
  }
}

// ---- Cholesky ----

TEST(GpNumerics, BlockedCholeskyMatchesUnblockedLoopAroundBlockEdges) {
  Rng rng(103);
  for (std::size_t n : {1u, 2u, 5u, 31u, 32u, 33u, 63u, 64u, 65u, 200u}) {
    const Matrix x = random_points(n, 6, rng);
    const Matrix a = ref_gram(KernelKind::Matern52, x, random_ard(6, rng));
    double ref_jitter = -1.0;
    double jitter = -1.0;
    const Matrix expected = ref_cholesky(a, 1e-10, 1e-2, &ref_jitter);
    EXPECT_TRUE(same_bits(linalg::cholesky(a, 1e-10, 1e-2, &jitter), expected)) << "n=" << n;
    EXPECT_TRUE(same_bits(jitter, ref_jitter)) << "n=" << n;
  }
}

TEST(GpNumerics, BlockedCholeskyTakesTheSameJitterStep) {
  // Duplicated rows with zero noise: exactly singular, so both factor only
  // after the jitter ladder, and must stop on the same rung.
  Rng rng(104);
  for (std::size_t n : {6u, 40u, 70u}) {
    Matrix x = random_points(n, 3, rng);
    for (std::size_t i = n / 2; i < n; ++i) {
      for (std::size_t k = 0; k < 3; ++k) x(i, k) = x(i - n / 2, k);
    }
    GpHyperparams hp = GpHyperparams::isotropic(3, 0.4, 1.0, 0.0);
    const Matrix a = ref_gram(KernelKind::RBF, x, hp);
    double ref_jitter = -1.0;
    double jitter = -1.0;
    const Matrix expected = ref_cholesky(a, 1e-10, 1e-2, &ref_jitter);
    ASSERT_GT(ref_jitter, 0.0) << "n=" << n << ": duplicated rows factored without jitter";
    EXPECT_TRUE(same_bits(linalg::cholesky(a, 1e-10, 1e-2, &jitter), expected)) << "n=" << n;
    EXPECT_TRUE(same_bits(jitter, ref_jitter)) << "n=" << n;
  }
}

TEST(GpNumerics, BlockedCholeskyStillThrowsOnIndefiniteMatrix) {
  // A pivot beyond the first panel goes strongly negative.
  Rng rng(105);
  const Matrix x = random_points(70, 4, rng);
  Matrix a = ref_gram(KernelKind::Matern32, x, GpHyperparams::isotropic(4, 0.3, 1.0, 1e-3));
  a(50, 50) = -100.0;
  double unused = 0.0;
  EXPECT_THROW(ref_cholesky(a, 1e-10, 1e-2, &unused), std::runtime_error);
  EXPECT_THROW(linalg::cholesky(a, 1e-10, 1e-2), std::runtime_error);
}

TEST(GpNumerics, BlockedForwardSolveMatchesSolveLowerPerRow) {
  Rng rng(109);
  for (std::size_t n : {1u, 5u, 31u, 32u, 33u, 65u, 200u}) {
    const Matrix x = random_points(n, 4, rng);
    const Matrix l = linalg::cholesky(ref_gram(KernelKind::RBF, x, random_ard(4, rng)));
    const Matrix lt = l.transposed();
    for (std::size_t m : {1u, 3u, 4u, 5u, 9u}) {
      Matrix rhs(m, n);
      for (std::size_t i = 0; i < m * n; ++i) rhs.data()[i] = rng.uniform(-1.0, 1.0);
      Matrix expected(m, n);
      for (std::size_t b = 0; b < m; ++b) {
        const std::vector<double> v = linalg::solve_lower(l, rhs.row(b));
        std::copy(v.begin(), v.end(), expected.row_ptr(b));
      }
      linalg::solve_lower_rows(lt, rhs);
      EXPECT_TRUE(same_bits(rhs, expected)) << "n=" << n << " m=" << m;
    }
  }
  Matrix wrong(2, 3);
  EXPECT_THROW(linalg::solve_lower_rows(Matrix::identity(4), wrong), std::invalid_argument);
}

// ---- Prediction ----

using PriorMean = std::function<double(const std::vector<double>&)>;

void expect_batch_matches_reference(const PriorMean& prior) {
  Rng rng(106);
  for (std::size_t n : {1u, 7u, 33u, 65u, 200u}) {
    for (KernelKind kind : kKinds) {
      const std::size_t d = 5;
      const Matrix x = random_points(n, d, rng);
      const std::vector<double> y = bowl(x);
      RefGp ref;
      ref.kind = kind;
      ref.hp = random_ard(d, rng);
      ref.prior = prior;
      ref.fit(x, y);

      GaussianProcess gp(kind);
      gp.set_hyperparams(ref.hp);
      if (prior) gp.set_prior_mean(prior);
      gp.fit(x, y);
      EXPECT_TRUE(same_bits(gp.log_marginal_likelihood(), ref.lml)) << "n=" << n;

      // 77 points: more than one tile of right-hand sides, and a ragged end.
      const Matrix points = random_points(77, d, rng);
      const auto batch = gp.predict_batch(points);
      ASSERT_EQ(batch.size(), points.rows());
      for (std::size_t b = 0; b < points.rows(); ++b) {
        const auto expected = ref.predict(points.row(b));
        const auto single = gp.predict(points.row(b));
        EXPECT_TRUE(same_bits(batch[b].mean, expected.mean)) << "n=" << n << " b=" << b;
        EXPECT_TRUE(same_bits(batch[b].variance, expected.variance)) << "n=" << n << " b=" << b;
        EXPECT_TRUE(same_bits(single.mean, expected.mean)) << "n=" << n << " b=" << b;
        EXPECT_TRUE(same_bits(single.variance, expected.variance)) << "n=" << n << " b=" << b;
      }
    }
  }
}

TEST(GpNumerics, PredictBatchMatchesSinglePointReference) {
  expect_batch_matches_reference(nullptr);
}

TEST(GpNumerics, PredictBatchMatchesSinglePointReferenceWithPriorMean) {
  expect_batch_matches_reference(
      [](const std::vector<double>& u) { return 0.5 + 2.0 * u[0] - u[1] * u[2]; });
}

TEST(GpNumerics, PredictBatchOfNoPointsIsEmpty) {
  Rng rng(107);
  const Matrix x = random_points(10, 2, rng);
  GaussianProcess gp;
  gp.fit(x, bowl(x));
  EXPECT_TRUE(gp.predict_batch(Matrix(0, 2)).empty());
  EXPECT_THROW(gp.predict_batch(Matrix(3, 4)), std::invalid_argument);
}

// ---- Hyperparameter search ----

TEST(GpNumerics, HyperoptMatchesPerTrialGramReference) {
  // fit_with_hyperopt builds every trial's Gram from one PairDifferences;
  // the reference rebuilds it pair by pair for every trial.
  Rng data_rng(108);
  const Matrix x = random_points(40, 4, data_rng);
  const std::vector<double> y = bowl(x);
  const std::size_t d = x.cols();

  GaussianProcess gp;
  Rng rng(9);
  gp.fit_with_hyperopt(x, y, rng, 2, 60);

  RefGp ref;
  ref.hp = GpHyperparams::isotropic(d);
  auto unpack = [d](const std::vector<double>& theta) {
    GpHyperparams hp;
    hp.signal_variance = std::exp(theta[0]);
    for (std::size_t i = 0; i < d; ++i) hp.lengthscales.push_back(std::exp(theta[1 + i]));
    hp.noise_variance = std::exp(theta[1 + d]);
    return hp;
  };
  auto neg_lml = [&](const std::vector<double>& theta) {
    RefGp trial = ref;
    trial.hp = unpack(theta);
    try {
      trial.fit(x, y);
      return -trial.lml;
    } catch (const std::exception&) {
      return 1e12;
    }
  };
  NelderMeadOptions nm;
  nm.max_iters = 60;
  nm.initial_step = 0.5;
  nm.lower.assign(d + 2, std::log(1e-2));
  nm.upper.assign(d + 2, std::log(1e2));
  nm.lower[0] = std::log(1e-4);
  nm.upper[0] = std::log(1e4);
  nm.lower[d + 1] = std::log(1e-8);
  nm.upper[d + 1] = std::log(1.0);
  Rng ref_rng(9);
  std::vector<double> best_theta;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t restart = 0; restart < 2; ++restart) {
    std::vector<double> theta0(d + 2);
    if (restart == 0) {
      theta0[0] = std::log(ref.hp.signal_variance);
      for (std::size_t i = 0; i < d; ++i) theta0[1 + i] = std::log(ref.hp.lengthscales[i]);
      theta0[1 + d] = std::log(std::max(ref.hp.noise_variance, 1e-8));
    } else {
      theta0[0] = ref_rng.uniform(std::log(0.1), std::log(10.0));
      for (std::size_t i = 0; i < d; ++i) {
        theta0[1 + i] = ref_rng.uniform(std::log(0.05), std::log(2.0));
      }
      theta0[1 + d] = ref_rng.uniform(std::log(1e-6), std::log(1e-2));
    }
    const auto res = nelder_mead(neg_lml, std::move(theta0), nm);
    if (res.value < best_value) {
      best_value = res.value;
      best_theta = res.x;
    }
  }
  ASSERT_LT(best_value, 1e12);
  ref.hp = unpack(best_theta);
  ref.fit(x, y);

  EXPECT_TRUE(same_bits(gp.hyperparams().lengthscales, ref.hp.lengthscales));
  EXPECT_TRUE(same_bits(gp.hyperparams().signal_variance, ref.hp.signal_variance));
  EXPECT_TRUE(same_bits(gp.hyperparams().noise_variance, ref.hp.noise_variance));
  EXPECT_TRUE(same_bits(gp.log_marginal_likelihood(), ref.lml));
}

// ---- Acquisition maximization ----

/// maximize_acquisition as one predict() per candidate, interleaved with
/// the draws.
std::vector<double> ref_maximize(const GaussianProcess& gp, AcquisitionKind kind,
                                 const AcquisitionParams& params, double best_value,
                                 const std::vector<double>& incumbent, Rng& rng,
                                 const AcquisitionMaximizerOptions& options,
                                 const std::function<bool(const std::vector<double>&)>& accept) {
  const std::size_t d = gp.dim();
  auto score_at = [&](const std::vector<double>& u) {
    const auto pred = gp.predict(u);
    return acquisition_score(kind, pred.mean, pred.stddev(), best_value, params);
  };
  std::vector<double> best_point;
  double best_score = -std::numeric_limits<double>::infinity();
  const std::size_t n_local =
      incumbent.empty() ? 0
                        : static_cast<std::size_t>(options.local_fraction *
                                                   static_cast<double>(options.n_candidates));
  std::vector<double> candidate(d);
  for (std::size_t c = 0; c < options.n_candidates; ++c) {
    if (c < n_local) {
      for (std::size_t k = 0; k < d; ++k) {
        candidate[k] =
            std::clamp(incumbent[k] + rng.normal(0.0, options.local_sigma), 0.0, 1.0);
      }
    } else {
      for (std::size_t k = 0; k < d; ++k) candidate[k] = rng.uniform();
    }
    if (accept && !accept(candidate)) continue;
    const double s = score_at(candidate);
    if (s > best_score) {
      best_score = s;
      best_point = candidate;
    }
  }
  if (best_point.empty()) return {};
  if (options.refine_iters > 0) {
    NelderMeadOptions nm;
    nm.max_iters = options.refine_iters;
    nm.initial_step = 0.05;
    nm.lower.assign(d, 0.0);
    nm.upper.assign(d, 1.0);
    const auto res = nelder_mead([&](const std::vector<double>& u) { return -score_at(u); },
                                 best_point, nm);
    if (-res.value > best_score && (!accept || accept(res.x))) best_point = res.x;
  }
  return best_point;
}

TEST(GpNumerics, MaximizeAcquisitionMatchesScalarLoop) {
  Rng data_rng(110);
  const Matrix x = random_points(60, 4, data_rng);
  GaussianProcess gp;
  gp.set_hyperparams(random_ard(4, data_rng));
  gp.fit(x, bowl(x));
  const std::vector<double> incumbent = x.row(3);
  // Rejects about half of the unit cube; the accept calls must come in the
  // same order as the draws.
  std::vector<std::vector<double>> seen;
  std::vector<std::vector<double>> ref_seen;
  auto accept_into = [](std::vector<std::vector<double>>& log) {
    return [&log](const std::vector<double>& u) {
      log.push_back(u);
      return u[0] + u[1] < 1.0;
    };
  };
  // An incumbent of -1e6 puts every EI and PI score at exactly 0, so only
  // the strict-> tie rule decides which candidate wins.
  for (double best : {1.05, -1e6}) {
    for (AcquisitionKind kind : {AcquisitionKind::ExpectedImprovement,
                                 AcquisitionKind::ProbabilityOfImprovement,
                                 AcquisitionKind::LowerConfidenceBound}) {
      for (std::size_t refine : {0u, 40u}) {
        AcquisitionMaximizerOptions opt;
        opt.refine_iters = refine;
        seen.clear();
        ref_seen.clear();
        Rng rng(77);
        Rng ref_rng(77);
        const auto got =
            maximize_acquisition(gp, kind, {}, best, incumbent, rng, opt, accept_into(seen));
        const auto expected =
            ref_maximize(gp, kind, {}, best, incumbent, ref_rng, opt, accept_into(ref_seen));
        ASSERT_FALSE(expected.empty());
        EXPECT_TRUE(same_bits(got, expected))
            << to_string(kind) << " best=" << best << " refine=" << refine;
        EXPECT_EQ(seen, ref_seen) << to_string(kind) << " refine=" << refine;
        EXPECT_TRUE(same_bits(rng.uniform(), ref_rng.uniform())) << "rng streams diverged";
      }
    }
  }
}

}  // namespace
}  // namespace tunekit::bo
