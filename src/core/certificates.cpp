#include "core/certificates.hpp"

#include "linalg/eig.hpp"
#include "linalg/vector.hpp"

namespace psdp::core {

namespace {

/// Shared body: lambda_max of sum x_i A_i given a dense accumulation.
DualCheck finish_dual(const Matrix& psi, const Vector& x, Real tol) {
  DualCheck check;
  check.value = linalg::sum(x);
  check.lambda_max = linalg::lambda_max_exact(psi);
  check.feasible =
      linalg::is_nonnegative(x) && check.lambda_max <= 1 + tol;
  return check;
}

}  // namespace

DualCheck check_dual(const PackingInstance& instance, const Vector& x,
                     Real tol) {
  PSDP_CHECK(x.size() == instance.size(), "check_dual: x length mismatch");
  Matrix psi(instance.dim(), instance.dim());
  for (Index i = 0; i < instance.size(); ++i) {
    if (x[i] != 0) psi.add_scaled(instance[i], x[i]);
  }
  return finish_dual(psi, x, tol);
}

DualCheck check_dual(const FactorizedPackingInstance& instance,
                     const Vector& x, Real tol) {
  PSDP_CHECK(x.size() == instance.size(), "check_dual: x length mismatch");
  Matrix psi(instance.dim(), instance.dim());
  for (Index i = 0; i < instance.size(); ++i) {
    if (x[i] != 0) psi.add_scaled(instance[i].to_dense(), x[i]);
  }
  return finish_dual(psi, x, tol);
}

PrimalCheck check_primal(const PackingInstance& instance, const Matrix& y,
                         Real tol) {
  PSDP_CHECK(y.rows() == instance.dim() && y.cols() == instance.dim(),
             "check_primal: Y dimension mismatch");
  PrimalCheck check;
  check.trace = linalg::trace(y);
  check.min_dot = std::numeric_limits<Real>::infinity();
  for (Index i = 0; i < instance.size(); ++i) {
    const Real d = linalg::frobenius_dot(instance[i], y);
    if (d < check.min_dot) {
      check.min_dot = d;
      check.argmin = i;
    }
  }
  const bool psd = [&] {
    const auto eig = linalg::sym_eig(y);
    return eig.eigenvalues[y.rows() - 1] >= -tol;
  }();
  check.feasible = psd && approx_equal(check.trace, 1, tol) &&
                   check.min_dot >= 1 - tol;
  return check;
}

Real duality_product(const PackingInstance& instance, const Vector& x,
                     const Matrix& y) {
  Real min_dot = std::numeric_limits<Real>::infinity();
  for (Index i = 0; i < instance.size(); ++i) {
    min_dot = std::min(min_dot, linalg::frobenius_dot(instance[i], y));
  }
  return linalg::sum(x) * min_dot;
}

}  // namespace psdp::core
