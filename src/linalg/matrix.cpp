#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "par/cost_meter.hpp"
#include "par/parallel.hpp"

namespace psdp::linalg {

Matrix::Matrix(Index rows, Index cols, Real fill) : rows_(rows), cols_(cols) {
  PSDP_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  data_.assign(static_cast<std::size_t>(rows * cols), fill);
}

Matrix Matrix::identity(Index n) {
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) a(i, i) = 1;
  return a;
}

Matrix Matrix::diagonal(const Vector& d) {
  Matrix a(d.size(), d.size());
  for (Index i = 0; i < d.size(); ++i) a(i, i) = d[i];
  return a;
}

Matrix Matrix::outer(const Vector& v) {
  const Index n = v.size();
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = v[i] * v[j];
  }
  return a;
}

Matrix Matrix::rotation2d(Real theta) {
  Matrix r(2, 2);
  r(0, 0) = std::cos(theta);
  r(0, 1) = -std::sin(theta);
  r(1, 0) = std::sin(theta);
  r(1, 1) = std::cos(theta);
  return r;
}

Matrix& Matrix::reshape(Index rows, Index cols) {
  PSDP_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be non-negative");
  data_.resize(static_cast<std::size_t>(rows * cols));
  rows_ = rows;
  cols_ = cols;
  return *this;
}

std::span<Real> Matrix::row(Index i) {
  PSDP_ASSERT(i >= 0 && i < rows_);
  return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
}

std::span<const Real> Matrix::row(Index i) const {
  PSDP_ASSERT(i >= 0 && i < rows_);
  return {data_.data() + i * cols_, static_cast<std::size_t>(cols_)};
}

Matrix& Matrix::fill(Real value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Matrix& Matrix::scale(Real s) {
  for (Real& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::add_scaled(const Matrix& other, Real s) {
  PSDP_CHECK(rows_ == other.rows_ && cols_ == other.cols_,
             "add_scaled: dimension mismatch");
  const std::size_t n = data_.size();
  for (std::size_t i = 0; i < n; ++i) data_[i] += s * other.data_[i];
  return *this;
}

Matrix& Matrix::add_scaled_identity(Real s) {
  PSDP_CHECK(square(), "add_scaled_identity: matrix must be square");
  for (Index i = 0; i < rows_; ++i) (*this)(i, i) += s;
  return *this;
}

Matrix& Matrix::symmetrize() {
  PSDP_CHECK(square(), "symmetrize: matrix must be square");
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = i + 1; j < cols_; ++j) {
      const Real v = ((*this)(i, j) + (*this)(j, i)) / 2;
      (*this)(i, j) = v;
      (*this)(j, i) = v;
    }
  }
  return *this;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

void matvec(const Matrix& a, const Vector& x, Vector& y) {
  PSDP_CHECK(a.cols() == x.size(), "matvec: dimension mismatch");
  if (y.size() != a.rows()) y = Vector(a.rows());
  par::parallel_for(0, a.rows(), [&](Index i) {
    const Real* row = a.data() + i * a.cols();
    Real acc = 0;
    for (Index j = 0; j < a.cols(); ++j) acc += row[j] * x[j];
    y[i] = acc;
  }, /*grain=*/8);
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * a.rows() * a.cols()));
  par::CostMeter::add_depth(par::reduction_depth(a.cols()));
}

Vector matvec(const Matrix& a, const Vector& x) {
  Vector y(a.rows());
  matvec(a, x, y);
  return y;
}

Vector matvec_transpose(const Matrix& a, const Vector& x) {
  PSDP_CHECK(a.rows() == x.size(), "matvec_transpose: dimension mismatch");
  Vector y(a.cols());
  // Column-sweep order keeps reads contiguous; parallelize over output
  // blocks to avoid write conflicts.
  par::parallel_for_chunked(0, a.cols(), [&](Index jb, Index je) {
    for (Index i = 0; i < a.rows(); ++i) {
      const Real* row = a.data() + i * a.cols();
      const Real xi = x[i];
      for (Index j = jb; j < je; ++j) y[j] += xi * row[j];
    }
  }, /*grain=*/8);
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * a.rows() * a.cols()));
  par::CostMeter::add_depth(par::reduction_depth(a.rows()));
  return y;
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  PSDP_CHECK(a.cols() == b.rows(), "gemm: inner dimensions differ");
  Matrix c(a.rows(), b.cols());
  // i-k-j loop order: streaming access to both B and C rows.
  par::parallel_for(0, a.rows(), [&](Index i) {
    Real* crow = c.data() + i * c.cols();
    for (Index k = 0; k < a.cols(); ++k) {
      const Real aik = a(i, k);
      if (aik == 0) continue;
      const Real* brow = b.data() + k * b.cols();
      for (Index j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }, /*grain=*/1);
  par::CostMeter::add_work(
      static_cast<std::uint64_t>(2 * a.rows() * a.cols() * b.cols()));
  par::CostMeter::add_depth(par::reduction_depth(a.cols()));
  return c;
}

Matrix add(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.add_scaled(b, 1);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix c = a;
  c.add_scaled(b, -1);
  return c;
}

Real trace(const Matrix& a) {
  PSDP_CHECK(a.square(), "trace: matrix must be square");
  Real acc = 0;
  for (Index i = 0; i < a.rows(); ++i) acc += a(i, i);
  return acc;
}

Real frobenius_dot(const Matrix& a, const Matrix& b) {
  PSDP_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "frobenius_dot: dimension mismatch");
  const Index n = a.rows() * a.cols();
  const Real* pa = a.data();
  const Real* pb = b.data();
  const Real result =
      par::deterministic_sum(0, n, [&](Index i) { return pa[i] * pb[i]; });
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * n));
  par::CostMeter::add_depth(par::reduction_depth(n));
  return result;
}

Real frobenius_norm(const Matrix& a) {
  return std::sqrt(frobenius_dot(a, a));
}

Real quadratic_form(const Matrix& a, const Vector& x, const Vector& y) {
  return dot(x, matvec(a, y));
}

Real max_abs_diff(const Matrix& a, const Matrix& b) {
  PSDP_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "max_abs_diff: dimension mismatch");
  Real worst = 0;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < a.cols(); ++j) {
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
    }
  }
  return worst;
}

bool is_symmetric(const Matrix& a, Real tol) {
  if (!a.square()) return false;
  const Real scale = std::max(Real{1}, frobenius_norm(a));
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - a(j, i)) > tol * scale) return false;
    }
  }
  return true;
}

bool all_finite(const Matrix& a) {
  const Real* p = a.data();
  const Index n = a.rows() * a.cols();
  for (Index i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

}  // namespace psdp::linalg
