#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace tunekit::linalg {

namespace {

/// Columns per panel: the trailing update applies this many columns of the
/// factor to the rest of the matrix in one sweep.
constexpr std::size_t kPanel = 32;
/// Rows of the register tile of every update (a multiple of 2).
constexpr std::size_t kTileRows = 4;
/// Widest register tile, in columns.
constexpr std::size_t kTileCols = 4;

/// Two doubles in one SSE2 register (GCC/Clang vector extension); its
/// arithmetic is elementwise IEEE, exactly as on two scalars.
typedef double Pair __attribute__((vector_size(16)));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// The operands of C(i, c) −= Σ_k A(i, k)·B(c, k), the update both the
/// factorization and the blocked forward solve are made of. A and C are
/// column-major n-row arrays: A(i, k) = a[k * n + i], C(i, c) = c[c * n + i].
/// B(c, k) = b[c * b_col + k * b_k].
struct Update {
  const double* a;
  const double* b;
  std::size_t b_col;
  std::size_t b_k;
  double* c;
  std::size_t n;
};

/// Subtracts A(i,k)·B(c,k) for k in [p, pe), one term at a time in
/// ascending k, from the kTileRows × Cols tile of C at rows i0.., columns
/// c0...
template <std::size_t Cols>
void update_tile(const Update& u, std::size_t p, std::size_t pe, std::size_t i0,
                 std::size_t c0) {
  constexpr std::size_t kPairs = kTileRows / 2;
  Pair acc[Cols][kPairs];
  for (std::size_t c = 0; c < Cols; ++c) {
    for (std::size_t r = 0; r < kPairs; ++r) {
      acc[c][r] = load_pair(u.c + (c0 + c) * u.n + i0 + 2 * r);
    }
  }
  for (std::size_t k = p; k < pe; ++k) {
    const double* ak = u.a + k * u.n;
    Pair a[kPairs];
    for (std::size_t r = 0; r < kPairs; ++r) a[r] = load_pair(ak + i0 + 2 * r);
    for (std::size_t c = 0; c < Cols; ++c) {
      const double bk = u.b[(c0 + c) * u.b_col + k * u.b_k];
      const Pair b = {bk, bk};
      for (std::size_t r = 0; r < kPairs; ++r) acc[c][r] -= a[r] * b;
    }
  }
  for (std::size_t c = 0; c < Cols; ++c) {
    for (std::size_t r = 0; r < kPairs; ++r) {
      store_pair(u.c + (c0 + c) * u.n + i0 + 2 * r, acc[c][r]);
    }
  }
}

/// The same update for rows [i_begin, n) of columns [c0, c0 + Cols).
template <std::size_t Cols>
void update_strip(const Update& u, std::size_t p, std::size_t pe, std::size_t i_begin,
                  std::size_t c0) {
  std::size_t i0 = i_begin;
  for (; i0 + kTileRows <= u.n; i0 += kTileRows) update_tile<Cols>(u, p, pe, i0, c0);
  for (std::size_t c = c0; c < c0 + Cols; ++c) {
    for (std::size_t i = i0; i < u.n; ++i) {
      double s = u.c[c * u.n + i];
      for (std::size_t k = p; k < pe; ++k) s -= u.a[k * u.n + i] * u.b[c * u.b_col + k * u.b_k];
      u.c[c * u.n + i] = s;
    }
  }
}

/// update_strip for a strip of 1 to kTileCols columns.
void update_strip(const Update& u, std::size_t p, std::size_t pe, std::size_t i_begin,
                  std::size_t c0, std::size_t cols) {
  static_assert(kTileCols == 4, "the switch below covers widths 1 to 4");
  switch (cols) {
    case 4: update_strip<4>(u, p, pe, i_begin, c0); break;
    case 3: update_strip<3>(u, p, pe, i_begin, c0); break;
    case 2: update_strip<2>(u, p, pe, i_begin, c0); break;
    default: update_strip<1>(u, p, pe, i_begin, c0); break;
  }
}

/// In the factorization's column-major working copy w, applies columns
/// [p, pe) of the factor to columns [c_begin, c_end), rows from each strip's
/// diagonal down. Strips also write a few elements above the diagonal, which
/// the factorization never reads.
void update_columns(double* w, std::size_t n, std::size_t p, std::size_t pe,
                    std::size_t c_begin, std::size_t c_end) {
  const Update u{w, w, 1, n, w, n};  // B(c, k) = L(c, k) = w[k * n + c]
  for (std::size_t c0 = c_begin; c0 < c_end; c0 += kTileCols) {
    update_strip(u, p, pe, c0, c0, std::min(kTileCols, c_end - c0));
  }
}

/// Blocked right-looking Cholesky of a into l. A panel of kPanel columns is
/// factored left-looking, column by column, and then applied to every later
/// column. Each element thus receives its updates L(i,k)·L(j,k) one at a
/// time in ascending k and is then divided by (on the diagonal,
/// square-rooted into) its pivot: the same IEEE operations, in the same
/// order, as the textbook dot-product loop. Returns false if a non-positive
/// pivot appears.
bool try_cholesky(const Matrix& a, Matrix& l) {
  const std::size_t n = a.rows();
  // l's storage serves as the column-major working copy of A's lower
  // triangle; it is transposed in place into the row-major factor at the end.
  l = Matrix(n, n);
  double* w = l.data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* ai = a.row_ptr(i);
    for (std::size_t j = 0; j <= i; ++j) w[j * n + i] = ai[j];
  }
  for (std::size_t p = 0; p < n; p += kPanel) {
    const std::size_t pe = std::min(p + kPanel, n);
    for (std::size_t j = p; j < pe; ++j) {
      update_columns(w, n, p, j, j, j + 1);
      double* lj = w + j * n;
      const double diag = lj[j];
      if (!(diag > 0.0) || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      lj[j] = ljj;
      for (std::size_t i = j + 1; i < n; ++i) lj[i] /= ljj;
    }
    update_columns(w, n, p, pe, pe, n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      l(i, j) = l(j, i);
      l(j, i) = 0.0;
    }
  }
  return true;
}

}  // namespace

Matrix cholesky(const Matrix& a, double initial_jitter, double max_jitter,
                double* jitter_used) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: matrix not square");
  Matrix l;
  if (try_cholesky(a, l)) {
    if (jitter_used) *jitter_used = 0.0;
    return l;
  }
  // Scale the jitter by the mean diagonal so it is meaningful for matrices
  // of any magnitude.
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += a(i, i);
  mean_diag = std::abs(mean_diag) / static_cast<double>(a.rows());
  if (mean_diag == 0.0) mean_diag = 1.0;

  for (double jitter = initial_jitter; jitter <= max_jitter; jitter *= 10.0) {
    Matrix aj = a;
    const double eps = jitter * mean_diag;
    for (std::size_t i = 0; i < aj.rows(); ++i) aj(i, i) += eps;
    if (try_cholesky(aj, l)) {
      if (jitter_used) *jitter_used = eps;
      log_debug("cholesky: succeeded with jitter ", eps);
      return l;
    }
  }
  throw std::runtime_error("cholesky: matrix not positive definite even with jitter");
}

std::vector<double> solve_lower(const Matrix& l, const std::vector<double>& b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("solve_lower: size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    const double* row = l.row_ptr(i);
    for (std::size_t k = 0; k < i; ++k) s -= row[k] * y[k];
    y[i] = s / row[i];
  }
  return y;
}

void solve_lower_rows(const Matrix& lt, Matrix& rhs) {
  const std::size_t n = lt.rows();
  if (lt.cols() != n || rhs.cols() != n) {
    throw std::invalid_argument("solve_lower_rows: size mismatch");
  }
  const std::size_t m = rhs.rows();
  // Right-hand side b is column b of a column-major n × m array C, and
  // B(b, k) = v_b[k]: the update subtracts L(i,k)·v_b[k] from v_b[i].
  const Update u{lt.data(), rhs.data(), n, 1, rhs.data(), n};
  for (std::size_t p = 0; p < n; p += kPanel) {
    const std::size_t pe = std::min(p + kPanel, n);
    // Inside the panel, column-oriented: once v_j is final it is subtracted
    // from the panel's later rows.
    for (std::size_t b = 0; b < m; ++b) {
      double* v = rhs.row_ptr(b);
      for (std::size_t j = p; j < pe; ++j) {
        const double* lj = lt.row_ptr(j);  // lj[i] = L(i, j)
        const double vj = v[j] / lj[j];
        v[j] = vj;
        for (std::size_t i = j + 1; i < pe; ++i) v[i] -= lj[i] * vj;
      }
    }
    for (std::size_t b0 = 0; b0 < m; b0 += kTileCols) {
      update_strip(u, p, pe, pe, b0, std::min(kTileCols, m - b0));
    }
  }
}

std::vector<double> solve_lower_transpose(const Matrix& l, const std::vector<double>& y) {
  const std::size_t n = l.rows();
  if (y.size() != n) throw std::invalid_argument("solve_lower_transpose: size mismatch");
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

std::vector<double> solve_with_cholesky(const Matrix& l, const std::vector<double>& b) {
  return solve_lower_transpose(l, solve_lower(l, b));
}

double log_det_from_cholesky(const Matrix& l) {
  double acc = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) acc += std::log(l(i, i));
  return 2.0 * acc;
}

}  // namespace tunekit::linalg
