#pragma once
// Cholesky factorization with adaptive jitter, plus triangular and SPD
// solves. The Gaussian-process surrogate is built entirely on these.
//
// The factorization is cache-blocked and right-looking: panels of columns
// are factored in a column-major working copy and applied to the trailing
// matrix through register tiles. It still gives every element the same
// IEEE operations in the same order as the textbook dot-product loop
// (updates in ascending k, then a division by the pivot), so its output is
// bit-identical to that loop's; tests/test_gp_numerics.cpp keeps the loop
// as the reference. solve_lower_rows runs a block of forward solves through
// the same panels and register tiles.

#include <vector>

#include "linalg/matrix.hpp"

namespace tunekit::linalg {

/// Lower-triangular Cholesky factor of an SPD matrix.
/// If the factorization fails (matrix not numerically PD), a diagonal
/// "jitter" is added and escalated up to `max_jitter`; throws
/// std::runtime_error if that is still insufficient.
///
/// `jitter_used`, if non-null, receives the jitter that succeeded (0 when
/// none was needed) — the GP logs it to explain conditioning issues.
Matrix cholesky(const Matrix& a, double initial_jitter = 1e-10,
                double max_jitter = 1e-2, double* jitter_used = nullptr);

/// Solve L y = b for lower-triangular L.
std::vector<double> solve_lower(const Matrix& l, const std::vector<double>& b);

/// Solve L v = b for every row b of `rhs`, in place, given `lt` = Lᵀ (row j
/// of `lt` is column j of L). The rows share one blocked sweep over the
/// factor; each solution is bit-identical to solve_lower on that row.
void solve_lower_rows(const Matrix& lt, Matrix& rhs);

/// Solve L^T x = y for lower-triangular L.
std::vector<double> solve_lower_transpose(const Matrix& l, const std::vector<double>& y);

/// Solve A x = b given the Cholesky factor L of A.
std::vector<double> solve_with_cholesky(const Matrix& l, const std::vector<double>& b);

/// log |A| from its Cholesky factor: 2 Σ log L_ii.
double log_det_from_cholesky(const Matrix& l);

}  // namespace tunekit::linalg
