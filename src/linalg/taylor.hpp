// Lemma 4.2 (from [AK07], Lemma 6): for PSD B with ||B||_2 <= kappa, the
// truncated Taylor series
//     B_hat = sum_{0 <= j < k} B^j / j!,   k = max(e^2 kappa, ln(2/eps))
// satisfies (1 - eps) exp(B) <= B_hat <= exp(B).
//
// This is the work-efficient exponential: B_hat is only ever *applied* to
// vectors (k matvecs per application), never formed. The operator form is
// what bigDotExp composes with the JL sketch.
#pragma once

#include "linalg/blockop.hpp"
#include "linalg/matrix.hpp"
#include "linalg/power.hpp"
#include "linalg/vector.hpp"

namespace psdp::linalg {

/// The truncation degree of Lemma 4.2: k = ceil(max(e^2 kappa, ln(2/eps))).
/// Requires kappa >= 0 (pass max(1, ||B||_2) as in Theorem 4.1) and
/// 0 < eps < 1.
Index taylor_exp_degree(Real kappa, Real eps);

/// y = (sum_{j<k} B^j / j!) x using k-1 applications of `op` (Horner-free
/// forward accumulation, numerically benign for PSD B).
void apply_exp_taylor(const SymmetricOp& op, Index degree, const Vector& x,
                      Vector& y);

/// The two scratch panels of the blocked recurrence, reusable across calls
/// so a caller looping over panels allocates nothing inside the loop.
struct TaylorBlockWorkspace {
  Matrix term;  ///< term_j = B^j X / j!
  Matrix next;  ///< target of the next block application
};

/// Panel form of apply_exp_taylor: Y = (sum_{j<k} B^j / j!) X for a
/// row-major n x b panel X with B = op_scale * op, using k-1 block
/// applications of `op`. The scale is folded into the per-step 1/j factor;
/// for power-of-two scales (bigDotExp's 0.5, since Lemma 4.2 is applied to
/// Phi/2) this is bitwise identical to scaling op's output separately, so
/// the fold removes the per-call wrapper closure without perturbing a
/// single bit. When the BlockOp's columns match the SymmetricOp's matvec
/// (as Csr::apply_block does), column t of Y is bit-identical to
/// apply_exp_taylor on column t of the scaled operator: the recurrence
/// performs the same scalar operations in the same order.
void apply_exp_taylor_block(const BlockOp& op, Index degree, const Matrix& x,
                            Matrix& y, TaylorBlockWorkspace& workspace,
                            Real op_scale = 1);

/// Convenience overload with a private workspace.
void apply_exp_taylor_block(const BlockOp& op, Index degree, const Matrix& x,
                            Matrix& y);

/// Dense form of the truncated series, for tests and small instances.
Matrix exp_taylor_matrix(const Matrix& b, Index degree);

}  // namespace psdp::linalg
