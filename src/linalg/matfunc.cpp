#include "linalg/matfunc.hpp"

#include <cmath>

namespace psdp::linalg {

namespace {

/// Eigendecompose and verify (numerical) positive semidefiniteness.
EigResult checked_psd_eig(const Matrix& a, Real tol, const char* who) {
  EigResult eig = sym_eig(a);
  const Real lmax = std::max(eig.eigenvalues[0], Real{0});
  const Real floor = -tol * std::max(lmax, Real{1});
  for (Index i = 0; i < eig.eigenvalues.size(); ++i) {
    PSDP_CHECK(eig.eigenvalues[i] >= floor,
               str(who, ": matrix is not PSD (eigenvalue ",
                   eig.eigenvalues[i], ")"));
    if (eig.eigenvalues[i] < 0) eig.eigenvalues[i] = 0;
  }
  return eig;
}

}  // namespace

Matrix sqrt_psd(const Matrix& a, Real tol) {
  const EigResult eig = checked_psd_eig(a, tol, "sqrt_psd");
  return reconstruct(eig, [](Real x) { return std::sqrt(std::max(x, Real{0})); });
}

Matrix inv_sqrt_psd(const Matrix& a, Real tol) {
  const EigResult eig = checked_psd_eig(a, tol, "inv_sqrt_psd");
  const Real cutoff = tol * std::max(eig.eigenvalues[0], Real{1});
  return reconstruct(eig, [cutoff](Real x) {
    return x > cutoff ? 1 / std::sqrt(x) : Real{0};
  });
}

Matrix pinv_psd(const Matrix& a, Real tol) {
  const EigResult eig = checked_psd_eig(a, tol, "pinv_psd");
  const Real cutoff = tol * std::max(eig.eigenvalues[0], Real{1});
  return reconstruct(eig,
                     [cutoff](Real x) { return x > cutoff ? 1 / x : Real{0}; });
}

Index rank_psd(const Matrix& a, Real tol) {
  const EigResult eig = checked_psd_eig(a, tol, "rank_psd");
  const Real cutoff = tol * std::max(eig.eigenvalues[0], Real{1});
  Index rank = 0;
  for (Index i = 0; i < eig.eigenvalues.size(); ++i) {
    if (eig.eigenvalues[i] > cutoff) ++rank;
  }
  return rank;
}

}  // namespace psdp::linalg
