#include "linalg/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "par/parallel.hpp"
#include "rand/rng.hpp"

namespace psdp::linalg {

namespace {

/// Number of eigenvalues of the tridiagonal (alpha, beta) strictly less
/// than x, via the Sturm sequence of leading-principal-minor pivots.
Index sturm_count(std::span<const Real> alpha, std::span<const Real> beta,
                  Real x) {
  const Index k = static_cast<Index>(alpha.size());
  Index count = 0;
  Real d = 1;
  for (Index i = 0; i < k; ++i) {
    const Real b2 = i > 0 ? sq(beta[i - 1]) : Real{0};
    d = alpha[i] - x - (d != 0 ? b2 / d : b2 / kEps);
    if (d < 0) ++count;
  }
  return count;
}

/// <x, y> over n entries by a fixed-chunk reduction: the same serial loop
/// for n <= kDeterministicSumChunk, and never a function of the pool width.
Real fixed_dot(const Real* x, const Real* y, Index n) {
  return par::deterministic_sum(0, n, [&](Index i) { return x[i] * y[i]; });
}

/// y += s * x over n entries.
void add_scaled(Real* y, const Real* x, Real s, Index n) {
  for (Index i = 0; i < n; ++i) y[i] += s * x[i];
}

/// Per-thread Lanczos scratch: the orthonormal basis as one contiguous
/// buffer of capacity k_max x n (vector j at [j n, (j + 1) n)), the
/// tridiagonal section, and the operator's input/output vectors. Capacity
/// persists across calls, so a certificate no larger than one the thread
/// has run before allocates nothing -- the same recycling as
/// FactorizedSet::weighted_apply.
struct LanczosScratch {
  std::vector<Real> basis;
  std::vector<Real> alpha;
  std::vector<Real> beta;
  Vector v;  ///< current Lanczos vector (the operator's input)
  Vector w;  ///< operator output, orthogonalized in place
};

}  // namespace

Real tridiagonal_eigenvalue(std::span<const Real> alpha,
                            std::span<const Real> beta, Index i) {
  const Index k = static_cast<Index>(alpha.size());
  PSDP_CHECK(k >= 1, "tridiagonal_eigenvalues: empty matrix");
  PSDP_CHECK(static_cast<Index>(beta.size()) == k - 1,
             "tridiagonal_eigenvalues: beta must have size k-1");
  PSDP_CHECK(i >= 0 && i < k, "tridiagonal_eigenvalue: index out of range");
  // Gershgorin bounds.
  Real lo = alpha[0], hi = alpha[0];
  for (Index r = 0; r < k; ++r) {
    Real radius = 0;
    if (r > 0) radius += std::abs(beta[r - 1]);
    if (r < k - 1) radius += std::abs(beta[r]);
    lo = std::min(lo, alpha[r] - radius);
    hi = std::max(hi, alpha[r] + radius);
  }
  const Real span = std::max(hi - lo, Real{1});

  // The i-th largest is the j-th smallest: bisection on the Sturm count.
  const Index j = k - 1 - i;
  Real a = lo, b = hi;
  for (int it = 0; it < 128 && b - a > 1e-15 * span; ++it) {
    const Real mid = (a + b) / 2;
    if (sturm_count(alpha, beta, mid) <= j) {
      a = mid;
    } else {
      b = mid;
    }
  }
  return (a + b) / 2;
}

Vector tridiagonal_eigenvalues(const Vector& alpha, const Vector& beta) {
  PSDP_CHECK(alpha.size() >= 1, "tridiagonal_eigenvalues: empty matrix");
  Vector eigenvalues(alpha.size());
  for (Index i = 0; i < alpha.size(); ++i) {
    eigenvalues[i] = tridiagonal_eigenvalue(alpha.span(), beta.span(), i);
  }
  return eigenvalues;
}

LanczosResult lanczos_lambda_max(const SymmetricOp& op, Index n,
                                 const LanczosOptions& options) {
  PSDP_CHECK(n >= 1, "lanczos: dimension must be positive");
  PSDP_CHECK(options.max_dim >= 1, "lanczos: max_dim must be positive");
  const Index k_max = std::min(options.max_dim, n);

  thread_local LanczosScratch scratch;
  std::vector<Real>& basis = scratch.basis;
  std::vector<Real>& alpha = scratch.alpha;
  std::vector<Real>& beta = scratch.beta;
  Vector& v = scratch.v;
  Vector& w = scratch.w;
  // Reserved, then filled one vector per step: pages past the steps a run
  // actually takes are never touched, so an early-converging certificate
  // keeps only its own basis resident.
  basis.clear();
  basis.reserve(static_cast<std::size_t>(k_max * n));
  alpha.resize(static_cast<std::size_t>(k_max));
  beta.resize(static_cast<std::size_t>(k_max));
  v.resize(n);
  w.resize(n).fill(0);
  const auto q = [&](Index j) { return basis.data() + j * n; };

  rand::Rng rng(options.seed);
  for (Index i = 0; i < n; ++i) v[i] = rng.normal();
  {
    const Real nrm = std::sqrt(fixed_dot(v.data(), v.data(), n));
    PSDP_ASSERT(nrm > 0);
    v.scale(1 / nrm);
  }
  basis.insert(basis.end(), v.data(), v.data() + n);

  LanczosResult result;
  for (Index j = 0; j < k_max; ++j) {
    op(v, w);
    ++result.matvecs;
    alpha[j] = fixed_dot(w.data(), q(j), n);
    // w -= alpha_j v_j + beta_{j-1} v_{j-1}; then full reorthogonalization
    // (modified Gram-Schmidt against every basis vector, in order).
    add_scaled(w.data(), q(j), -alpha[j], n);
    if (j > 0) {
      add_scaled(w.data(), q(j - 1), -beta[j - 1], n);
    }
    for (Index u = 0; u <= j; ++u) {
      add_scaled(w.data(), q(u), -fixed_dot(w.data(), q(u), n), n);
    }

    // Top Ritz value of the leading (j + 1) x (j + 1) tridiagonal section.
    result.lambda_max =
        tridiagonal_eigenvalue(std::span<const Real>(alpha).first(j + 1),
                               std::span<const Real>(beta).first(j), 0);

    const Real b_next = std::sqrt(fixed_dot(w.data(), w.data(), n));
    // Residual bound for the top Ritz pair: ||A y - theta y|| <= beta_k.
    // (The |s_k| factor would sharpen it; beta_k alone is already a valid
    // and simple certificate.)
    result.residual = b_next;
    if (b_next <= options.tol * std::max(std::abs(result.lambda_max), Real{1})) {
      result.converged = true;
      return result;
    }
    if (j + 1 < k_max) {
      beta[j] = b_next;
      const Real inv = 1 / b_next;
      for (Index i = 0; i < n; ++i) v[i] = w[i] * inv;
      basis.insert(basis.end(), v.data(), v.data() + n);
    }
  }
  // Krylov budget exhausted: lambda_max is still a valid Ritz value (lower
  // bound); converged stays false and residual reports the certificate gap.
  return result;
}

LanczosResult lanczos_lambda_max(const Matrix& a,
                                 const LanczosOptions& options) {
  PSDP_CHECK(a.square(), "lanczos: matrix must be square");
  const SymmetricOp op = [&a](const Vector& x, Vector& y) { matvec(a, x, y); };
  return lanczos_lambda_max(op, a.rows(), options);
}

}  // namespace psdp::linalg
