// Small dense symmetric-matrix utilities: storage, Cholesky factorization,
// correlation-matrix construction and validation.
//
// Correlation matrices here are at pipeline-stage granularity (a handful of
// stages), so a simple dense O(n^3) Cholesky is the right tool; no external
// linear-algebra dependency.  The per-device systematic field does not come
// through here: its exp(-d/L) kernel over 1-D sites is Markov, and
// process::VariationSampler samples it with an exact O(n) recursion instead
// (spatial_correlation stays as that recursion's test oracle).
#pragma once

#include <cstddef>
#include <vector>

namespace statpipe::stats {

/// Dense row-major square matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(std::size_t n, double fill = 0.0) : n_(n), a_(n * n, fill) {}

  std::size_t size() const noexcept { return n_; }
  double& operator()(std::size_t i, std::size_t j) { return a_[i * n_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return a_[i * n_ + j]; }

  static Matrix identity(std::size_t n);

  /// y = A * x.
  std::vector<double> apply(const std::vector<double>& x) const;

  bool is_symmetric(double tol = 1e-12) const noexcept;

 private:
  std::size_t n_ = 0;
  std::vector<double> a_;
};

/// Lower-triangular Cholesky factor L with A = L * L^T.
/// Throws std::domain_error when A is not (numerically) positive definite.
Matrix cholesky(const Matrix& a);

/// Cholesky with diagonal jitter fallback: if A is only positive
/// *semi*-definite (e.g. perfectly correlated stages, rho = 1), retries with
/// A + eps*I, growing eps geometrically up to max_jitter.  Returns the
/// factor of the jittered matrix; jitter this small is invisible at MC
/// sample sizes used here.
Matrix cholesky_psd(const Matrix& a, double max_jitter = 1e-6);

/// Builds the N x N correlation matrix with 1 on the diagonal and `rho`
/// everywhere else — the paper's uniform stage-correlation model
/// (Fig. 3(b), Fig. 5(b)).  Requires -1/(N-1) <= rho <= 1.
Matrix uniform_correlation(std::size_t n, double rho);

/// Exponential-decay spatial correlation: rho_ij = exp(-d_ij / length).
/// `positions` are 1-D coordinates (pipeline stages laid out along the die;
/// grid cells use their flattened index distance).
Matrix spatial_correlation(const std::vector<double>& positions, double length);

/// True iff m is a valid correlation matrix: symmetric, unit diagonal,
/// entries in [-1, 1] and positive semi-definite (checked via cholesky_psd).
bool is_valid_correlation(const Matrix& m);

}  // namespace statpipe::stats
