// Symmetric eigendecomposition via Householder tridiagonalization followed
// by the implicit-shift QL algorithm (the EISPACK tred2/tql2 pair; Golub &
// Van Loan 8.3).
//
// This is the one dense eigensolver of the library: the dense reference
// solver pays one decomposition per iteration (exact exp(Psi)), and the
// Appendix-A normalization, the certificates and the factorizer use it for
// C^{-1/2}, PSD checks and exact lambda_max. Tests cross-validate it
// against a cyclic-Jacobi reference kept in the test helpers.
#pragma once

#include <functional>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace psdp::linalg {

/// Eigendecomposition A = V diag(lambda) V^T of a symmetric matrix.
/// `eigenvalues` are sorted in decreasing order and `eigenvectors` stores
/// the corresponding eigenvectors as *columns*.
struct EigResult {
  Vector eigenvalues;
  Matrix eigenvectors;
};

/// Full symmetric eigendecomposition via tred2 + tql2. Throws
/// InvalidArgument for an empty, non-square, asymmetric or non-finite
/// matrix, and NumericalError if QL fails to converge (does not happen for
/// finite symmetric input).
EigResult sym_eig(const Matrix& a);

/// Largest eigenvalue via sym_eig (exact, O(m^3); for the iterative
/// estimate see power.hpp).
Real lambda_max_exact(const Matrix& a);

/// Reconstruct V diag(f(lambda)) V^T; the building block for matrix
/// functions (matfunc.hpp).
Matrix reconstruct(const EigResult& eig,
                   const std::function<Real(Real)>& f);

}  // namespace psdp::linalg
