#include "bo/kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "linalg/vecops.hpp"

namespace tunekit::bo {

namespace {

/// Pairs whose r² accumulate together while the Gram is assembled; the
/// block stays in L1 across the dimension sweep.
constexpr std::size_t kPairBlock = 256;

/// The kernel as a function of the scaled squared distance r².
double covariance(KernelKind kind, double signal_variance, double r2) {
  switch (kind) {
    case KernelKind::RBF:
      return signal_variance * std::exp(-0.5 * r2);
    case KernelKind::Matern32: {
      const double r = std::sqrt(3.0 * r2);
      return signal_variance * (1.0 + r) * std::exp(-r);
    }
    case KernelKind::Matern52: {
      const double r = std::sqrt(5.0 * r2);
      return signal_variance * (1.0 + r + r * r / 3.0) * std::exp(-r);
    }
  }
  return 0.0;
}

void check_arity(const GpHyperparams& hp, std::size_t dim, const char* who) {
  if (hp.lengthscales.size() != dim) {
    throw std::invalid_argument(std::string(who) + ": lengthscale arity mismatch");
  }
}

}  // namespace

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::RBF: return "rbf";
    case KernelKind::Matern32: return "matern32";
    case KernelKind::Matern52: return "matern52";
  }
  return "?";
}

GpHyperparams GpHyperparams::isotropic(std::size_t dim, double lengthscale,
                                       double signal_variance, double noise_variance) {
  GpHyperparams hp;
  hp.signal_variance = signal_variance;
  hp.lengthscales.assign(dim, lengthscale);
  hp.noise_variance = noise_variance;
  return hp;
}

double kernel_value(KernelKind kind, const std::vector<double>& a,
                    const std::vector<double>& b, const GpHyperparams& hp) {
  check_arity(hp, a.size(), "kernel_value");
  return covariance(kind, hp.signal_variance,
                    linalg::scaled_squared_distance(a, b, hp.lengthscales));
}

PairDifferences::PairDifferences(const linalg::Matrix& x)
    : n_(x.rows()),
      dim_(x.cols()),
      n_pairs_(n_ > 1 ? n_ * (n_ - 1) / 2 : 0),
      diffs_(dim_ * n_pairs_) {
  const linalg::Matrix xt = x.transposed();
  for (std::size_t k = 0; k < dim_; ++k) {
    const double* xk = xt.row_ptr(k);
    double* out = diffs_.data() + k * n_pairs_;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j) *out++ = xk[i] - xk[j];
    }
  }
}

linalg::Matrix kernel_gram(KernelKind kind, const PairDifferences& diffs,
                           const GpHyperparams& hp) {
  const std::size_t n = diffs.n_points();
  const std::size_t d = diffs.dim();
  check_arity(hp, d, "kernel_gram");
  linalg::Matrix k(n, n);
  std::array<double, kPairBlock> r2;
  std::size_t pair = 0;  // index of the pair (i, j0)
  for (std::size_t i = 0; i < n; ++i) {
    k(i, i) = hp.signal_variance + hp.noise_variance;
    for (std::size_t j0 = i + 1; j0 < n; j0 += kPairBlock) {
      const std::size_t len = std::min(kPairBlock, n - j0);
      std::fill_n(r2.begin(), len, 0.0);
      for (std::size_t c = 0; c < d; ++c) {
        const double* diff = diffs.along(c) + pair;
        const double ls = hp.lengthscales[c];
        for (std::size_t t = 0; t < len; ++t) {
          const double q = diff[t] / ls;
          r2[t] += q * q;
        }
      }
      double* row = k.row_ptr(i) + j0;
      for (std::size_t t = 0; t < len; ++t) {
        const double v = covariance(kind, hp.signal_variance, r2[t]);
        row[t] = v;
        k(j0 + t, i) = v;
      }
      pair += len;
    }
  }
  return k;
}

linalg::Matrix kernel_gram(KernelKind kind, const linalg::Matrix& x,
                           const GpHyperparams& hp) {
  return kernel_gram(kind, PairDifferences(x), hp);
}

linalg::Matrix kernel_cross(KernelKind kind, const linalg::Matrix& x,
                            const linalg::Matrix& points, const GpHyperparams& hp) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  check_arity(hp, d, "kernel_cross");
  if (points.cols() != d) throw std::invalid_argument("kernel_cross: dimension mismatch");
  const linalg::Matrix xt = x.transposed();  // one contiguous row per dimension
  linalg::Matrix out(points.rows(), n);
  for (std::size_t b = 0; b < points.rows(); ++b) {
    double* r2 = out.row_ptr(b);  // accumulates r², then holds k
    for (std::size_t c = 0; c < d; ++c) {
      const double* xc = xt.row_ptr(c);
      const double pc = points(b, c);
      const double ls = hp.lengthscales[c];
      for (std::size_t i = 0; i < n; ++i) {
        const double q = (xc[i] - pc) / ls;
        r2[i] += q * q;
      }
    }
    for (std::size_t i = 0; i < n; ++i) r2[i] = covariance(kind, hp.signal_variance, r2[i]);
  }
  return out;
}

std::vector<double> kernel_cross(KernelKind kind, const linalg::Matrix& x,
                                 const std::vector<double>& point,
                                 const GpHyperparams& hp) {
  linalg::Matrix p(1, point.size());
  std::copy(point.begin(), point.end(), p.row_ptr(0));
  const linalg::Matrix k = kernel_cross(kind, x, p, hp);
  return std::vector<double>(k.row_ptr(0), k.row_ptr(0) + k.cols());
}

}  // namespace tunekit::bo
