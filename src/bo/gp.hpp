#pragma once
// Gaussian-process surrogate over unit-cube inputs.
//
// Targets are standardized internally; an optional prior-mean function (the
// transfer-learning hook) is subtracted before standardization so the GP
// models the *residual* between the target task and the source task's
// prediction — the mechanism behind the CS1 -> CS2 transfer in the paper.
//
// Training is the classic O(N^3) Cholesky pipeline, which is exactly the
// cost the paper cites as the reason joint high-dimensional searches need
// disproportionally many evaluations (perfbench's fixed-archive probe
// measures it).
// A hyperparameter search computes the training set's pair differences once
// and builds every trial's Gram matrix from them; the factor is the blocked
// linalg::cholesky. Prediction scores a block of points at once:
// predict_batch, of which predict() is the one-point case. Every output is
// bit-identical to the textbook per-pair, per-point loops: the kernels
// vectorise across independent elements only and never reassociate a sum.

#include <exception>
#include <functional>
#include <optional>
#include <vector>

#include "bo/kernels.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace tunekit::bo {

class GaussianProcess {
 public:
  explicit GaussianProcess(KernelKind kind = KernelKind::Matern52) : kind_(kind) {}

  KernelKind kernel_kind() const { return kind_; }

  /// Prior mean subtracted from targets before fitting (transfer learning);
  /// call before fit(). Empty function = zero prior mean.
  void set_prior_mean(std::function<double(const std::vector<double>&)> prior);
  bool has_prior_mean() const { return static_cast<bool>(prior_mean_); }

  void set_hyperparams(GpHyperparams hp) { hp_ = std::move(hp); }
  const GpHyperparams& hyperparams() const { return hp_; }

  /// Fit on x (rows = points, unit cube) and y using current hyperparameters
  /// (defaults to isotropic if none were set for this dimension).
  void fit(linalg::Matrix x, std::vector<double> y);

  /// Fit with hyperparameter optimization: multistart Nelder-Mead on the
  /// negative log marginal likelihood over log-hyperparameters.
  void fit_with_hyperopt(linalg::Matrix x, std::vector<double> y, tunekit::Rng& rng,
                         std::size_t n_restarts = 3, std::size_t max_iters = 120);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
    double stddev() const;
  };

  Prediction predict(const std::vector<double>& point) const;

  /// Posterior at every row of `points`: an N×B cross-covariance, means
  /// Σ_i k_i α_i, one forward solve per point against the factor, variances
  /// k(x, x) − Σ_i v_i². Each result equals predict() on that row.
  std::vector<Prediction> predict_batch(const linalg::Matrix& points) const;

  /// Log marginal likelihood of the current fit (standardized targets).
  double log_marginal_likelihood() const { return lml_; }

  /// Leave-one-out cross-validation diagnostics (Rasmussen & Williams
  /// §5.4.2), computed from the existing Cholesky factor without refitting.
  /// Use to judge whether the surrogate is trustworthy before relying on
  /// its suggestions.
  struct LooDiagnostics {
    /// LOO predictive mean/variance per training point (raw target units).
    std::vector<double> mean;
    std::vector<double> variance;
    /// (y_i − μ_i) / σ_i — should look standard normal when well specified.
    std::vector<double> standardized_residuals;
    double rmse = 0.0;
    /// Fraction of targets inside their 95% predictive interval.
    double coverage95 = 0.0;
    /// Mean log predictive density (higher is better).
    double mean_log_density = 0.0;
  };
  LooDiagnostics leave_one_out() const;

  bool fitted() const { return fitted_; }
  std::size_t n_points() const { return x_.rows(); }
  std::size_t dim() const { return x_.cols(); }

  /// Diagonal jitter the last (re)fit needed to factor the Gram matrix
  /// (0 = it was numerically PD as-is). A persistently non-zero value means
  /// the model is rank-deficient — duplicate training rows with near-zero
  /// noise — and its uncertainty estimates should be treated with suspicion.
  double last_jitter() const { return last_jitter_; }

 private:
  /// Standardize the targets, factor `gram` (the Gram matrix of x_ under
  /// hp_) and score the fit.
  void refit(const linalg::Matrix& gram);
  /// Make the last refit the model that predicts.
  void finish_fit();

  KernelKind kind_;
  GpHyperparams hp_;
  std::function<double(const std::vector<double>&)> prior_mean_;

  linalg::Matrix x_;
  std::vector<double> y_raw_;
  std::vector<double> y_std_;  // standardized residuals
  double y_shift_ = 0.0;
  double y_scale_ = 1.0;

  linalg::Matrix chol_;
  /// chol_ transposed (column k of the factor contiguous), the form
  /// linalg::solve_lower_rows takes in predict_batch.
  linalg::Matrix chol_t_;
  std::vector<double> alpha_;
  double lml_ = 0.0;
  double last_jitter_ = 0.0;
  bool fitted_ = false;
};

/// True on every `every`-th call (the first included), counting calls in
/// `step`; never when `every` is 0. The hyperparameter-search cadence.
inline bool on_cadence(std::size_t& step, std::size_t every) {
  return every > 0 && step++ % every == 0;
}

/// Fit `gp` (a GaussianProcess or an AdditiveGp) to (x, y): a
/// hyperparameter search when `hyperopt`, else a refit with the current
/// hyperparameters. False, with a warning from `who`, when the surrogate
/// breaks down (e.g. all-identical targets); the caller picks a fallback.
template <class Gp>
bool try_fit(Gp& gp, linalg::Matrix x, const std::vector<double>& y, bool hyperopt,
             tunekit::Rng& rng, std::size_t restarts, std::size_t max_iters, const char* who) {
  try {
    if (hyperopt) {
      gp.fit_with_hyperopt(std::move(x), y, rng, restarts, max_iters);
    } else {
      gp.fit(std::move(x), y);
    }
    return true;
  } catch (const std::exception& e) {
    log_warn(who, ": surrogate fit failed (", e.what(), "); random fallback");
    return false;
  }
}

}  // namespace tunekit::bo
