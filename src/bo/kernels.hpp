#pragma once
// Covariance kernels with ARD (per-dimension) lengthscales. All kernels
// operate on unit-cube coordinates produced by SearchSpace::encode_unit.
//
// Every covariance goes through one formula of the scaled squared distance
// r² = Σ_k ((a_k − b_k) / ℓ_k)², accumulated in ascending k and dividing by
// ℓ_k. The Gram matrix is assembled from a PairDifferences cache, so a
// hyperparameter search computes each x_ik − x_jk once instead of once per
// likelihood evaluation; the cross-covariance of a candidate block is
// computed against the transposed training set. Both vectorise across
// independent pairs only, so every element is bit-identical to kernel_value
// on the same pair.

#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace tunekit::bo {

enum class KernelKind { RBF, Matern32, Matern52 };

const char* to_string(KernelKind kind);

struct GpHyperparams {
  double signal_variance = 1.0;
  /// One lengthscale per input dimension (ARD).
  std::vector<double> lengthscales;
  double noise_variance = 1e-6;

  static GpHyperparams isotropic(std::size_t dim, double lengthscale = 0.3,
                                 double signal_variance = 1.0,
                                 double noise_variance = 1e-6);
};

/// k(a, b) for the given kind and hyperparameters.
double kernel_value(KernelKind kind, const std::vector<double>& a,
                    const std::vector<double>& b, const GpHyperparams& hp);

/// The coordinate differences x_ik − x_jk of a point set (rows of x) over
/// the upper-triangle pairs i < j, in row order, stored dimension by
/// dimension: d·N(N−1)/2 doubles. They do not depend on the
/// hyperparameters, so a hyperparameter search builds them once.
class PairDifferences {
 public:
  explicit PairDifferences(const linalg::Matrix& x);

  std::size_t n_points() const { return n_; }
  std::size_t dim() const { return dim_; }
  std::size_t n_pairs() const { return n_pairs_; }

  /// Differences along dimension k, one per pair.
  const double* along(std::size_t k) const { return diffs_.data() + k * n_pairs_; }

 private:
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::size_t n_pairs_ = 0;
  std::vector<double> diffs_;
};

/// Gram matrix K(X, X) + noise_variance * I of the point set behind `diffs`.
linalg::Matrix kernel_gram(KernelKind kind, const PairDifferences& diffs,
                           const GpHyperparams& hp);

/// Gram matrix K(X, X) + noise_variance * I, X given row-per-point.
linalg::Matrix kernel_gram(KernelKind kind, const linalg::Matrix& x,
                           const GpHyperparams& hp);

/// Cross-covariance of a block of points against X, one row per point:
/// out(b, i) = k(x_i, p_b).
linalg::Matrix kernel_cross(KernelKind kind, const linalg::Matrix& x,
                            const linalg::Matrix& points, const GpHyperparams& hp);

/// Cross-covariance vector k(X, x*).
std::vector<double> kernel_cross(KernelKind kind, const linalg::Matrix& x,
                                 const std::vector<double>& point,
                                 const GpHyperparams& hp);

}  // namespace tunekit::bo
