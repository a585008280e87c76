#include "linalg/vector.hpp"

#include <algorithm>
#include <cmath>

#include "par/parallel.hpp"

namespace psdp::linalg {

Vector::Vector(Index n, Real fill) {
  PSDP_CHECK(n >= 0, "vector size must be non-negative");
  data_.assign(static_cast<std::size_t>(n), fill);
}

Vector::Vector(std::initializer_list<Real> values) : data_(values) {}

Vector::Vector(std::vector<Real> values) : data_(std::move(values)) {}

Vector& Vector::resize(Index n) {
  PSDP_CHECK(n >= 0, "vector size must be non-negative");
  data_.resize(static_cast<std::size_t>(n));
  return *this;
}

Vector& Vector::fill(Real value) {
  std::fill(data_.begin(), data_.end(), value);
  return *this;
}

Vector& Vector::scale(Real s) {
  for (Real& v : data_) v *= s;
  return *this;
}

Vector& Vector::add_scaled(const Vector& other, Real s) {
  PSDP_CHECK(size() == other.size(), "add_scaled: size mismatch");
  for (Index i = 0; i < size(); ++i) {
    data_[static_cast<std::size_t>(i)] += s * other[i];
  }
  return *this;
}

Real dot(const Vector& x, const Vector& y) {
  PSDP_CHECK(x.size() == y.size(), "dot: size mismatch");
  return par::deterministic_sum(0, x.size(),
                                [&](Index i) { return x[i] * y[i]; });
}

Real norm2_squared(const Vector& x) { return dot(x, x); }

Real norm2(const Vector& x) { return std::sqrt(norm2_squared(x)); }

Real sum(const Vector& x) {
  return par::deterministic_sum(0, x.size(), [&](Index i) { return x[i]; });
}

Real norm1(const Vector& x) {
  return par::deterministic_sum(0, x.size(),
                                [&](Index i) { return std::abs(x[i]); });
}

Real max_entry(const Vector& x) {
  return par::parallel_max(0, x.size(), [&](Index i) { return x[i]; });
}

bool all_finite(const Vector& x) {
  for (Index i = 0; i < x.size(); ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

bool is_nonnegative(const Vector& x, Real tol) {
  for (Index i = 0; i < x.size(); ++i) {
    if (x[i] < -tol) return false;
  }
  return true;
}

}  // namespace psdp::linalg
