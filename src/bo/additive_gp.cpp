#include "bo/additive_gp.hpp"

#include <cmath>
#include <numbers>
#include <set>
#include <stdexcept>

#include "bo/nelder_mead.hpp"
#include "common/log.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/vecops.hpp"

namespace tunekit::bo {

double AdditiveGp::Prediction::stddev() const { return std::sqrt(std::max(0.0, variance)); }

AdditiveGp::AdditiveGp(std::vector<std::vector<std::size_t>> groups, KernelKind kind)
    : groups_(std::move(groups)), kind_(kind) {
  if (groups_.empty()) throw std::invalid_argument("AdditiveGp: no groups");
  std::set<std::size_t> seen;
  for (const auto& g : groups_) {
    if (g.empty()) throw std::invalid_argument("AdditiveGp: empty group");
    for (std::size_t idx : g) {
      if (!seen.insert(idx).second) {
        throw std::invalid_argument("AdditiveGp: groups must be disjoint");
      }
      dim_ = std::max(dim_, idx + 1);
    }
  }
  signal_.assign(groups_.size(), 1.0 / static_cast<double>(groups_.size()));
  lengthscale_.assign(groups_.size(), 0.3);
}

double AdditiveGp::group_kernel(std::size_t g, const double* a, const double* b) const {
  double r2 = 0.0;
  for (std::size_t idx : groups_[g]) {
    const double d = (a[idx] - b[idx]) / lengthscale_[g];
    r2 += d * d;
  }
  switch (kind_) {
    case KernelKind::RBF: return signal_[g] * std::exp(-0.5 * r2);
    case KernelKind::Matern32: {
      const double r = std::sqrt(3.0 * r2);
      return signal_[g] * (1.0 + r) * std::exp(-r);
    }
    case KernelKind::Matern52: {
      const double r = std::sqrt(5.0 * r2);
      return signal_[g] * (1.0 + r + r * r / 3.0) * std::exp(-r);
    }
  }
  return 0.0;
}

void AdditiveGp::refit() {
  const std::size_t n = x_.rows();
  double mean = 0.0;
  for (double v : y_raw_) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : y_raw_) var += (v - mean) * (v - mean);
  var = n > 1 ? var / static_cast<double>(n - 1) : 1.0;
  y_shift_ = mean;
  y_scale_ = var > 1e-300 ? std::sqrt(var) : 1.0;

  std::vector<double> y_std(n);
  for (std::size_t i = 0; i < n; ++i) y_std[i] = (y_raw_[i] - y_shift_) / y_scale_;

  linalg::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x_.row_ptr(i);
    for (std::size_t j = i; j < n; ++j) {
      const double* xj = x_.row_ptr(j);
      double k = 0.0;
      for (std::size_t g = 0; g < groups_.size(); ++g) k += group_kernel(g, xi, xj);
      if (i == j) k += noise_;
      gram(i, j) = k;
      gram(j, i) = k;
    }
  }
  chol_ = linalg::cholesky(gram);
  alpha_ = linalg::solve_with_cholesky(chol_, y_std);
  const double quad = linalg::dot(y_std, alpha_);
  lml_ = -0.5 * quad - 0.5 * linalg::log_det_from_cholesky(chol_) -
         0.5 * static_cast<double>(n) * std::log(2.0 * std::numbers::pi);
  fitted_ = true;
}

void AdditiveGp::fit(linalg::Matrix x, std::vector<double> y) {
  if (x.rows() != y.size() || x.rows() == 0 || x.cols() < dim_) {
    throw std::invalid_argument("AdditiveGp::fit: bad training data");
  }
  x_ = std::move(x);
  y_raw_ = std::move(y);
  refit();
}

void AdditiveGp::fit_with_hyperopt(linalg::Matrix x, std::vector<double> y,
                                   tunekit::Rng& rng, std::size_t n_restarts,
                                   std::size_t max_iters) {
  if (x.rows() != y.size() || x.rows() == 0 || x.cols() < dim_) {
    throw std::invalid_argument("AdditiveGp::fit_with_hyperopt: bad data");
  }
  x_ = std::move(x);
  y_raw_ = std::move(y);
  const std::size_t g_count = groups_.size();

  // theta = [log sv_0.., log ls_0.., log noise]
  auto apply = [&](const std::vector<double>& theta) {
    for (std::size_t g = 0; g < g_count; ++g) {
      signal_[g] = std::exp(theta[g]);
      lengthscale_[g] = std::exp(theta[g_count + g]);
    }
    noise_ = std::exp(theta[2 * g_count]);
  };
  auto neg_lml = [&](const std::vector<double>& theta) {
    const auto sv = signal_;
    const auto ls = lengthscale_;
    const double nv = noise_;
    apply(theta);
    double value;
    try {
      refit();
      value = -lml_;
    } catch (const std::exception&) {
      value = 1e12;
    }
    signal_ = sv;
    lengthscale_ = ls;
    noise_ = nv;
    return value;
  };

  NelderMeadOptions nm;
  nm.max_iters = max_iters;
  nm.initial_step = 0.5;
  nm.lower.assign(2 * g_count + 1, std::log(1e-4));
  nm.upper.assign(2 * g_count + 1, std::log(1e2));
  nm.lower[2 * g_count] = std::log(1e-8);
  nm.upper[2 * g_count] = std::log(1.0);

  std::vector<double> best_theta;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t restart = 0; restart < std::max<std::size_t>(1, n_restarts);
       ++restart) {
    std::vector<double> theta0(2 * g_count + 1);
    for (std::size_t g = 0; g < g_count; ++g) {
      theta0[g] = restart == 0 ? std::log(signal_[g]) : rng.uniform(-2.0, 1.0);
      theta0[g_count + g] =
          restart == 0 ? std::log(lengthscale_[g]) : rng.uniform(-2.5, 0.5);
    }
    theta0[2 * g_count] = restart == 0 ? std::log(std::max(noise_, 1e-8))
                                       : rng.uniform(std::log(1e-6), std::log(1e-2));
    const auto res = nelder_mead(neg_lml, std::move(theta0), nm);
    if (res.value < best) {
      best = res.value;
      best_theta = res.x;
    }
  }
  if (!best_theta.empty() && best < 1e12) {
    apply(best_theta);
  } else {
    log_warn("AdditiveGp: hyperopt failed; keeping previous hyperparameters");
  }
  refit();
}

AdditiveGp::Prediction AdditiveGp::predict(const std::vector<double>& point) const {
  if (!fitted_) throw std::runtime_error("AdditiveGp::predict before fit");
  if (point.size() < dim_) {
    throw std::invalid_argument("AdditiveGp::predict: dimension mismatch");
  }
  const std::size_t n = x_.rows();
  std::vector<double> k(n);
  double k_self = noise_;
  for (std::size_t g = 0; g < groups_.size(); ++g) k_self += signal_[g];
  for (std::size_t i = 0; i < n; ++i) {
    const double* xi = x_.row_ptr(i);
    double acc = 0.0;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      acc += group_kernel(g, xi, point.data());
    }
    k[i] = acc;
  }
  const double mean_std = linalg::dot(k, alpha_);
  const auto v = linalg::solve_lower(chol_, k);
  const double var_std = std::max(0.0, k_self - linalg::dot(v, v));

  Prediction p;
  p.mean = y_shift_ + y_scale_ * mean_std;
  p.variance = y_scale_ * y_scale_ * var_std;
  return p;
}

AdditiveGp::Prediction AdditiveGp::predict_group(std::size_t g,
                                                 const std::vector<double>& point) const {
  if (!fitted_) throw std::runtime_error("AdditiveGp::predict_group before fit");
  if (g >= groups_.size()) throw std::out_of_range("AdditiveGp::predict_group");
  const std::size_t n = x_.rows();
  std::vector<double> kg(n);
  for (std::size_t i = 0; i < n; ++i) kg[i] = group_kernel(g, x_.row_ptr(i), point.data());
  const double mean_std = linalg::dot(kg, alpha_);
  const auto v = linalg::solve_lower(chol_, kg);
  const double var_std = std::max(0.0, signal_[g] - linalg::dot(v, v));

  Prediction p;
  p.mean = y_scale_ * mean_std;  // contribution: no shift (it is shared)
  p.variance = y_scale_ * y_scale_ * var_std;
  return p;
}

}  // namespace tunekit::bo
