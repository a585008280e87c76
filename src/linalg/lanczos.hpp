// Lanczos iteration for extremal eigenvalues of symmetric operators.
//
// Power iteration (power.hpp) converges at rate (lambda_2/lambda_1)^t and
// stalls on flat spectra; Lanczos converges like a Chebyshev-accelerated
// method and needs far fewer matvecs for the same accuracy. The factorized
// solver uses it to compute the measured-tight dual rescaling, where each
// matvec costs O(q) and the spectrum of Psi is flat by design (Lemma 3.2
// caps it while the trace keeps growing).
//
// Implementation: classic Lanczos tridiagonalization with full
// reorthogonalization (the Krylov dimensions used here are tiny, so the
// O(k^2 n) reorthogonalization cost is small and the numerical behaviour
// is clean). After each step the top Ritz value of the leading tridiagonal
// section is found by one Sturm-sequence bisection (at most 128 halvings
// of O(k) each), so the eigensolve costs O(128 k) per step, O(128 k^2)
// per call. The basis lives in one contiguous per-thread k_max x n buffer
// that is recycled across calls: a certificate no larger than one the
// thread has run before allocates nothing. Inner products are fixed-chunk
// reductions, so the result is bitwise the same at every pool width.
#pragma once

#include <cstdint>
#include <span>

#include "linalg/power.hpp"

namespace psdp::linalg {

struct LanczosOptions {
  /// Maximum Krylov dimension (matvec budget).
  Index max_dim = 64;
  /// Convergence: stop when the residual bound beta_k of the top Ritz
  /// pair drops below tol * max(|theta_max|, 1).
  Real tol = 1e-10;
  std::uint64_t seed = 0xB5297A4Du;
};

struct LanczosResult {
  Real lambda_max = 0;  ///< top Ritz value (a lower bound on lambda_max)
  /// beta_k, the norm of the next Lanczos residual: an upper bound on
  /// ||A y - theta y|| for the top Ritz pair (y, theta), since
  /// ||A y - theta y|| = beta_k |s_k| with |s_k| <= 1.
  Real residual = 0;
  Index matvecs = 0;
  bool converged = false;
};

/// Largest eigenvalue of a symmetric operator of dimension n.
/// For PSD operators the returned lambda_max + residual is a certified
/// upper bound on the true lambda_max (Ritz residual bound).
LanczosResult lanczos_lambda_max(const SymmetricOp& op, Index n,
                                 const LanczosOptions& options = {});

/// Convenience overload for dense symmetric matrices.
LanczosResult lanczos_lambda_max(const Matrix& a,
                                 const LanczosOptions& options = {});

/// All eigenvalues of a symmetric tridiagonal matrix given its diagonal
/// `alpha` (size k) and off-diagonal `beta` (size k-1), in decreasing
/// order. Bisection on Sturm sequence sign counts, one per eigenvalue:
/// O(128 k^2) and robust.
Vector tridiagonal_eigenvalues(const Vector& alpha, const Vector& beta);

/// The i-th largest eigenvalue (i = 0 is the top) of the same tridiagonal
/// matrix by one bisection: O(128 k). Bitwise equal to
/// tridiagonal_eigenvalues(alpha, beta)[i], which is built from it.
Real tridiagonal_eigenvalue(std::span<const Real> alpha,
                            std::span<const Real> beta, Index i);

}  // namespace psdp::linalg
