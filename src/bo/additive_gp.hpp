#pragma once
// Additive Gaussian process (Kandasamy et al., ICML'15): the covariance is a
// sum of independent kernels over disjoint coordinate groups,
//
//   k(x, x') = Σ_g  k_g(x_g, x'_g).
//
// This models objectives that decompose as f(x) = Σ_g f_g(x_g) and is the
// "decomposition" strategy of the paper's related work — effective when the
// decomposition is known, but *finding* it needs the expensive
// orthogonality analysis (stats/orthogonality.hpp) the paper replaces.
//
// predict_group() exposes each group's posterior contribution so the
// acquisition can be maximized group-by-group — the key efficiency of
// additive BO.

#include <vector>

#include "bo/kernels.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace tunekit::bo {

class AdditiveGp {
 public:
  /// `groups`: disjoint coordinate index sets covering a subset of [0, D).
  AdditiveGp(std::vector<std::vector<std::size_t>> groups,
             KernelKind kind = KernelKind::Matern52);

  std::size_t n_groups() const { return groups_.size(); }
  const std::vector<std::vector<std::size_t>>& groups() const { return groups_; }

  /// Fit on full-dimensional unit-cube inputs.
  void fit(linalg::Matrix x, std::vector<double> y);

  /// Fit with hyperparameter optimization (one signal variance and one
  /// isotropic lengthscale per group + shared noise).
  void fit_with_hyperopt(linalg::Matrix x, std::vector<double> y, tunekit::Rng& rng,
                         std::size_t n_restarts = 2, std::size_t max_iters = 80);

  struct Prediction {
    double mean = 0.0;
    double variance = 0.0;
    double stddev() const;
  };

  /// Full posterior at a point.
  Prediction predict(const std::vector<double>& point) const;

  /// Posterior of group g's additive component at a point (only the group's
  /// coordinates matter). Mean contributions sum to the full mean minus the
  /// shared offset.
  Prediction predict_group(std::size_t g, const std::vector<double>& point) const;

  double log_marginal_likelihood() const { return lml_; }
  bool fitted() const { return fitted_; }
  std::size_t dim() const { return dim_; }

 private:
  /// Group g's kernel between two full-dimensional points.
  double group_kernel(std::size_t g, const double* a, const double* b) const;
  void refit();

  std::vector<std::vector<std::size_t>> groups_;
  KernelKind kind_;
  std::size_t dim_ = 0;

  /// Per-group (signal variance, lengthscale); shared noise.
  std::vector<double> signal_;
  std::vector<double> lengthscale_;
  double noise_ = 1e-6;

  linalg::Matrix x_;
  std::vector<double> y_raw_;
  double y_shift_ = 0.0;
  double y_scale_ = 1.0;
  linalg::Matrix chol_;
  std::vector<double> alpha_;
  double lml_ = 0.0;
  bool fitted_ = false;
};

}  // namespace tunekit::bo
