#include "bo/gp.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "bo/nelder_mead.hpp"
#include "common/log.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/vecops.hpp"

namespace tunekit::bo {

double GaussianProcess::Prediction::stddev() const {
  return std::sqrt(std::max(0.0, variance));
}

void GaussianProcess::set_prior_mean(
    std::function<double(const std::vector<double>&)> prior) {
  prior_mean_ = std::move(prior);
  fitted_ = false;
}

void GaussianProcess::fit(linalg::Matrix x, std::vector<double> y) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit: bad training data");
  }
  fitted_ = false;
  x_ = std::move(x);
  y_raw_ = std::move(y);
  if (hp_.lengthscales.size() != x_.cols()) {
    hp_ = GpHyperparams::isotropic(x_.cols());
  }
  refit(kernel_gram(kind_, x_, hp_));
  finish_fit();
}

void GaussianProcess::refit(const linalg::Matrix& gram) {
  const std::size_t n = x_.rows();

  // Residuals against the prior mean, then standardization.
  std::vector<double> resid(n);
  for (std::size_t i = 0; i < n; ++i) {
    resid[i] = y_raw_[i] - (prior_mean_ ? prior_mean_(x_.row(i)) : 0.0);
  }
  double mean = 0.0;
  for (double v : resid) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : resid) var += (v - mean) * (v - mean);
  var = n > 1 ? var / static_cast<double>(n - 1) : 1.0;
  y_shift_ = mean;
  y_scale_ = var > 1e-300 ? std::sqrt(var) : 1.0;

  y_std_.resize(n);
  for (std::size_t i = 0; i < n; ++i) y_std_[i] = (resid[i] - y_shift_) / y_scale_;

  // Jitter escalation before the model is rejected: the quiet ladder
  // (1e-10 → 1e-6) handles ordinary round-off; if the Gram is genuinely
  // rank-deficient — duplicate configs with near-zero noise, exactly what a
  // tuning session that retries crashed candidates produces — a second,
  // wider ladder up to 1e-2 is tried, loudly, before the failure propagates
  // (hyperopt then scores the region at 1e12 and moves on).
  last_jitter_ = 0.0;
  try {
    chol_ = linalg::cholesky(gram, 1e-10, 1e-6, &last_jitter_);
  } catch (const std::exception&) {
    chol_ = linalg::cholesky(gram, 1e-5, 1e-2, &last_jitter_);
    log_warn("GP: Gram matrix rank-deficient; factored with escalated jitter ",
             last_jitter_, " (duplicate training points with near-zero noise?)");
  }
  alpha_ = linalg::solve_with_cholesky(chol_, y_std_);

  // LML = -1/2 y^T alpha - 1/2 log|K| - n/2 log 2π   (standardized y).
  const double quad = linalg::dot(y_std_, alpha_);
  const double logdet = linalg::log_det_from_cholesky(chol_);
  lml_ = -0.5 * quad - 0.5 * logdet -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
}

void GaussianProcess::finish_fit() {
  chol_t_ = chol_.transposed();
  fitted_ = true;
}

void GaussianProcess::fit_with_hyperopt(linalg::Matrix x, std::vector<double> y,
                                        tunekit::Rng& rng, std::size_t n_restarts,
                                        std::size_t max_iters) {
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("GaussianProcess::fit_with_hyperopt: bad data");
  }
  fitted_ = false;
  x_ = std::move(x);
  y_raw_ = std::move(y);
  const std::size_t d = x_.cols();
  if (hp_.lengthscales.size() != d) hp_ = GpHyperparams::isotropic(d);
  // Every trial's Gram matrix comes from these; they are freed on return.
  const PairDifferences diffs(x_);

  // theta = [log sv, log ls_0..d-1, log nv]
  auto unpack = [d](const std::vector<double>& theta) {
    GpHyperparams hp;
    hp.signal_variance = std::exp(theta[0]);
    hp.lengthscales.resize(d);
    for (std::size_t i = 0; i < d; ++i) hp.lengthscales[i] = std::exp(theta[1 + i]);
    hp.noise_variance = std::exp(theta[1 + d]);
    return hp;
  };

  auto neg_lml = [&](const std::vector<double>& theta) {
    GpHyperparams saved = hp_;
    hp_ = unpack(theta);
    double value;
    try {
      refit(kernel_gram(kind_, diffs, hp_));
      value = -lml_;
    } catch (const std::exception&) {
      value = 1e12;  // non-PD Gram even with jitter: reject this region
    }
    hp_ = std::move(saved);
    return value;
  };

  NelderMeadOptions nm;
  nm.max_iters = max_iters;
  nm.initial_step = 0.5;
  const double kLogLsLo = std::log(1e-2), kLogLsHi = std::log(1e2);
  const double kLogSvLo = std::log(1e-4), kLogSvHi = std::log(1e4);
  const double kLogNvLo = std::log(1e-8), kLogNvHi = std::log(1.0);
  nm.lower.assign(d + 2, kLogLsLo);
  nm.upper.assign(d + 2, kLogLsHi);
  nm.lower[0] = kLogSvLo;
  nm.upper[0] = kLogSvHi;
  nm.lower[d + 1] = kLogNvLo;
  nm.upper[d + 1] = kLogNvHi;

  std::vector<double> best_theta;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t restart = 0; restart < std::max<std::size_t>(1, n_restarts);
       ++restart) {
    std::vector<double> theta0(d + 2);
    if (restart == 0) {
      // Warm start from the current hyperparameters.
      theta0[0] = std::log(hp_.signal_variance);
      for (std::size_t i = 0; i < d; ++i) theta0[1 + i] = std::log(hp_.lengthscales[i]);
      theta0[1 + d] = std::log(std::max(hp_.noise_variance, 1e-8));
    } else {
      theta0[0] = rng.uniform(std::log(0.1), std::log(10.0));
      for (std::size_t i = 0; i < d; ++i) {
        theta0[1 + i] = rng.uniform(std::log(0.05), std::log(2.0));
      }
      theta0[1 + d] = rng.uniform(std::log(1e-6), std::log(1e-2));
    }
    const auto res = nelder_mead(neg_lml, std::move(theta0), nm);
    if (res.value < best_value) {
      best_value = res.value;
      best_theta = res.x;
    }
  }

  if (!best_theta.empty() && best_value < 1e12) {
    hp_ = unpack(best_theta);
  } else {
    log_warn("GP hyperopt failed to find a PD model; keeping previous hyperparameters");
  }
  refit(kernel_gram(kind_, diffs, hp_));
  finish_fit();
}

GaussianProcess::LooDiagnostics GaussianProcess::leave_one_out() const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::leave_one_out before fit");
  const std::size_t n = x_.rows();

  // Diagonal of K^{-1} via column solves against the Cholesky factor.
  std::vector<double> kinv_diag(n);
  std::vector<double> e(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    e[i] = 1.0;
    const auto col = linalg::solve_with_cholesky(chol_, e);
    kinv_diag[i] = col[i];
    e[i] = 0.0;
  }

  LooDiagnostics out;
  out.mean.resize(n);
  out.variance.resize(n);
  out.standardized_residuals.resize(n);
  double sse = 0.0;
  std::size_t covered = 0;
  double log_density = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Standardized-unit LOO prediction (R&W eq. 5.12).
    const double var_std = 1.0 / kinv_diag[i];
    const double mean_std = y_std_[i] - alpha_[i] * var_std;
    const double prior = prior_mean_ ? prior_mean_(x_.row(i)) : 0.0;
    out.mean[i] = prior + y_shift_ + y_scale_ * mean_std;
    out.variance[i] = y_scale_ * y_scale_ * var_std;
    const double sd = std::sqrt(std::max(out.variance[i], 1e-300));
    const double resid = y_raw_[i] - out.mean[i];
    out.standardized_residuals[i] = resid / sd;
    sse += resid * resid;
    if (std::abs(resid) <= 1.96 * sd) ++covered;
    log_density += -0.5 * std::log(2.0 * std::numbers::pi * out.variance[i]) -
                   0.5 * resid * resid / out.variance[i];
  }
  out.rmse = std::sqrt(sse / static_cast<double>(n));
  out.coverage95 = static_cast<double>(covered) / static_cast<double>(n);
  out.mean_log_density = log_density / static_cast<double>(n);
  return out;
}

GaussianProcess::Prediction GaussianProcess::predict(const std::vector<double>& point) const {
  linalg::Matrix one(1, point.size());
  std::copy(point.begin(), point.end(), one.row_ptr(0));
  return predict_batch(one).front();
}

std::vector<GaussianProcess::Prediction> GaussianProcess::predict_batch(
    const linalg::Matrix& points) const {
  if (!fitted_) throw std::runtime_error("GaussianProcess::predict before fit");
  if (points.cols() != x_.cols()) {
    throw std::invalid_argument("GaussianProcess::predict: dimension mismatch");
  }
  const std::size_t n = x_.rows();
  const std::size_t m = points.rows();
  // Row b holds k(X, p_b); the forward solve overwrites it with v_b.
  linalg::Matrix kv = kernel_cross(kind_, x_, points, hp_);
  std::vector<double> mean_std(m);
  for (std::size_t b = 0; b < m; ++b) {
    const double* k = kv.row_ptr(b);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += k[i] * alpha_[i];
    mean_std[b] = acc;
  }
  linalg::solve_lower_rows(chol_t_, kv);
  const double k_self = hp_.signal_variance + hp_.noise_variance;
  std::vector<Prediction> out(m);
  for (std::size_t b = 0; b < m; ++b) {
    const double* v = kv.row_ptr(b);
    double vv = 0.0;
    for (std::size_t i = 0; i < n; ++i) vv += v[i] * v[i];
    const double var_std = std::max(0.0, k_self - vv);
    const double prior = prior_mean_ ? prior_mean_(points.row(b)) : 0.0;
    out[b].mean = prior + y_shift_ + y_scale_ * mean_std[b];
    out[b].variance = y_scale_ * y_scale_ * var_std;
  }
  return out;
}

}  // namespace tunekit::bo
