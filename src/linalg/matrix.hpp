// Dense real matrix (row-major) with the BLAS-2/3 kernels the solvers use.
// Multiplications are parallel and charge the CostMeter with their PRAM
// work/depth, so bench binaries can report model cost alongside wall-clock.
#pragma once

#include <span>
#include <vector>

#include "linalg/vector.hpp"
#include "util/common.hpp"

namespace psdp::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(Index rows, Index cols, Real fill = 0);

  /// n x n identity.
  static Matrix identity(Index n);

  /// Diagonal matrix from a vector.
  static Matrix diagonal(const Vector& d);

  /// Rank-1 matrix v v^T.
  static Matrix outer(const Vector& v);

  /// 2x2 rotation by angle theta (used by generators and the Figure-1
  /// instance).
  static Matrix rotation2d(Real theta);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }

  /// Element access, bounds-checked by PSDP_ASSERT. Defined here so the
  /// element loops of the dense kernels (tred2/tql2, gemm) inline it: an
  /// out-of-line call per element made their speed depend on where the
  /// linker happened to place this accessor.
  Real& operator()(Index i, Index j) {
    PSDP_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  Real operator()(Index i, Index j) const {
    PSDP_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }

  /// Row i as a contiguous span.
  std::span<Real> row(Index i);
  std::span<const Real> row(Index i) const;

  /// Capacity-preserving reshape: sets the dimensions without shrinking the
  /// backing storage, so a workspace panel cycling through shapes (e.g. the
  /// narrower last sketch panel) allocates only when it grows past its
  /// high-water mark. Entry values after a reshape are unspecified except
  /// that a kept prefix survives; callers overwrite the panel anyway.
  Matrix& reshape(Index rows, Index cols);

  /// In-place operations.
  Matrix& fill(Real value);
  Matrix& scale(Real s);
  Matrix& add_scaled(const Matrix& other, Real s);  ///< this += s * other
  Matrix& add_scaled_identity(Real s);              ///< this += s * I

  /// Force exact symmetry: A <- (A + A^T)/2.
  Matrix& symmetrize();

  Matrix transposed() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Real> data_;
};

/// y = A x (parallel over rows).
void matvec(const Matrix& a, const Vector& x, Vector& y);
Vector matvec(const Matrix& a, const Vector& x);

/// y = A^T x.
Vector matvec_transpose(const Matrix& a, const Vector& x);

/// C = A B, blocked and parallel over rows of A.
Matrix gemm(const Matrix& a, const Matrix& b);

/// A + B and A - B.
Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);

/// Trace.
Real trace(const Matrix& a);

/// Frobenius inner product A . B = sum_ij A_ij B_ij = Tr[A B] for symmetric
/// operands -- the paper's bullet product. Bitwise independent of the pool
/// width (par::deterministic_sum).
Real frobenius_dot(const Matrix& a, const Matrix& b);

/// Frobenius norm.
Real frobenius_norm(const Matrix& a);

/// x^T A y (quadratic form; A square).
Real quadratic_form(const Matrix& a, const Vector& x, const Vector& y);

/// max_ij |A_ij - B_ij|.
Real max_abs_diff(const Matrix& a, const Matrix& b);

/// True when |A_ij - A_ji| <= tol * max(1, ||A||_F) for all i, j.
bool is_symmetric(const Matrix& a, Real tol = 1e-12);

/// True when every entry is finite.
bool all_finite(const Matrix& a);

}  // namespace psdp::linalg
