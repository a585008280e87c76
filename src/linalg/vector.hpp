// Dense real vector with the handful of BLAS-1 operations the solvers need.
// Thin wrapper over contiguous storage; all operations are checked for
// conforming dimensions and the large ones are parallel.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "util/common.hpp"

namespace psdp::linalg {

class Vector {
 public:
  Vector() = default;
  explicit Vector(Index n, Real fill = 0);
  Vector(std::initializer_list<Real> values);
  explicit Vector(std::vector<Real> values);

  Index size() const { return static_cast<Index>(data_.size()); }
  bool empty() const { return data_.empty(); }

  /// Element access, bounds-checked by PSDP_ASSERT; inline like
  /// Matrix::operator().
  Real& operator[](Index i) {
    PSDP_ASSERT(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }
  Real operator[](Index i) const {
    PSDP_ASSERT(i >= 0 && i < size());
    return data_[static_cast<std::size_t>(i)];
  }

  Real* data() { return data_.data(); }
  const Real* data() const { return data_.data(); }
  std::span<Real> span() { return data_; }
  std::span<const Real> span() const { return data_; }

  /// Capacity-preserving resize: never shrinks the backing storage, so a
  /// reused buffer (oracle dots, workspace copies) stops allocating once it
  /// has seen its largest size. New entries (if any) are zero.
  Vector& resize(Index n);

  /// In-place operations (return *this for chaining).
  Vector& fill(Real value);
  Vector& scale(Real s);
  Vector& add_scaled(const Vector& other, Real s);  ///< this += s * other

  friend bool operator==(const Vector&, const Vector&) = default;

 private:
  std::vector<Real> data_;
};

// dot, sum and norm1 reduce through par::deterministic_sum: their bits do
// not depend on the pool width (a serial loop up to its chunk length).

/// Inner product <x, y>.
Real dot(const Vector& x, const Vector& y);

/// Squared Euclidean norm.
Real norm2_squared(const Vector& x);

/// Euclidean norm.
Real norm2(const Vector& x);

/// Sum of entries (the 'value' 1^T x of a dual packing solution).
Real sum(const Vector& x);

/// L1 norm. Equals sum() for non-negative vectors like the solver iterates.
Real norm1(const Vector& x);

/// Largest entry; requires a non-empty vector.
Real max_entry(const Vector& x);

/// True when every entry is finite.
bool all_finite(const Vector& x);

/// True when every entry is >= -tol.
bool is_nonnegative(const Vector& x, Real tol = 0);

}  // namespace psdp::linalg
