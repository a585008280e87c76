#include "core/factorize.hpp"

#include <cmath>

#include "linalg/matfunc.hpp"
#include "linalg/pivoted_cholesky.hpp"
#include "par/parallel.hpp"
#include "util/common.hpp"

namespace psdp::core {

namespace {

using sparse::Csr;
using sparse::FactorizedPsd;

/// Factor one dense PSD matrix into a tall-skinny dense factor; returns the
/// relative residual trace alongside.
Matrix factor_one(const Matrix& a, const FactorizeOptions& options,
                  Real* residual_rel) {
  const Real tr = linalg::trace(a);
  if (options.method == FactorizeOptions::Method::kPivotedCholesky) {
    linalg::PivotedCholeskyOptions pc;
    pc.rel_tol = options.rel_tol;
    const linalg::PivotedCholeskyResult f = linalg::pivoted_cholesky(a, pc);
    *residual_rel = tr > 0 ? f.residual_trace / tr : 0;
    return f.l;
  }
  // Eigendecomposition engine: Q = V sqrt(lambda) on the numerical rank.
  const linalg::EigResult eig = linalg::sym_eig(a);
  const Index m = a.rows();
  PSDP_NUMERIC_CHECK(
      eig.eigenvalues[m - 1] >= -1e-10 * std::max<Real>(1, eig.eigenvalues[0]),
      "factorize: constraint has a significantly negative eigenvalue");
  // Keep eigenvalues above the relative-trace budget: dropping all
  // eigenvalues below rel_tol * Tr / m keeps the dropped sum below
  // rel_tol * Tr.
  const Real cutoff = options.rel_tol * tr / std::max<Real>(1, static_cast<Real>(m));
  Index rank = 0;
  Real dropped = 0;
  for (Index j = 0; j < m; ++j) {
    if (eig.eigenvalues[j] > cutoff) {
      ++rank;
    } else {
      dropped += std::max<Real>(eig.eigenvalues[j], 0);
    }
  }
  *residual_rel = tr > 0 ? dropped / tr : 0;
  if (rank == 0) return Matrix(m, 1);
  Matrix q(m, rank);
  for (Index j = 0; j < rank; ++j) {
    const Real s = std::sqrt(eig.eigenvalues[j]);
    for (Index i = 0; i < m; ++i) q(i, j) = s * eig.eigenvectors(i, j);
  }
  return q;
}

/// Dense factor -> sparse CSR factor with the relative drop tolerance.
Csr to_sparse_factor(const Matrix& q, Real drop_tol) {
  const Real threshold =
      drop_tol > 0 ? drop_tol * linalg::frobenius_norm(q) : 0;
  return Csr::from_dense(q, threshold);
}

}  // namespace

FactorizedPackingInstance factorize(const PackingInstance& instance,
                                    const FactorizeOptions& options,
                                    FactorizeReport* report) {
  PSDP_CHECK(options.rel_tol >= 0 && options.drop_tol >= 0,
             "factorize: tolerances must be non-negative");
  const Index n = instance.size();
  PSDP_CHECK(n >= 1, "factorize: empty instance");

  std::vector<Matrix> factors(static_cast<std::size_t>(n));
  std::vector<Real> residuals(static_cast<std::size_t>(n), 0);
  // Constraints factor independently; this is the parallel QR preprocessing
  // step of the paper's cost discussion.
  par::parallel_for(0, n, [&](Index i) {
    factors[static_cast<std::size_t>(i)] = factor_one(
        instance[i], options, &residuals[static_cast<std::size_t>(i)]);
  }, /*grain=*/1);

  FactorizeReport local;
  std::vector<FactorizedPsd> items;
  items.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    Csr q = to_sparse_factor(factors[static_cast<std::size_t>(i)],
                             options.drop_tol);
    local.max_rank = std::max(local.max_rank, q.cols());
    local.max_residual_rel =
        std::max(local.max_residual_rel, residuals[static_cast<std::size_t>(i)]);
    items.emplace_back(std::move(q));
  }
  FactorizedPackingInstance result{sparse::FactorizedSet(std::move(items))};
  local.total_nnz = result.total_nnz();
  if (report != nullptr) *report = local;
  return result;
}

FactorizedNormalization factorize_covering(const CoveringProblem& problem,
                                           const FactorizeOptions& options,
                                           Real rank_tol) {
  problem.validate(/*check_psd=*/true);
  FactorizedNormalization result;
  result.c_inv_sqrt = linalg::inv_sqrt_psd(problem.objective, rank_tol);

  // Support projector, as in core::normalize(): constraints with mass
  // outside range(C) violate the paper's Appendix-A assumption.
  const Matrix support =
      linalg::gemm(linalg::sqrt_psd(problem.objective, rank_tol),
                   result.c_inv_sqrt);

  std::vector<FactorizedPsd> items;
  for (Index i = 0; i < problem.size(); ++i) {
    if (problem.rhs[i] == 0) continue;
    const Matrix& a = problem.constraints[static_cast<std::size_t>(i)];
    const Matrix projected = linalg::gemm(support, linalg::gemm(a, support));
    const Real fro = linalg::frobenius_norm(a);
    PSDP_CHECK(
        linalg::max_abs_diff(projected, a) <= 1e-6 * std::max(fro, Real{1}),
        str("factorize_covering: constraint ", i,
            " is not supported on the objective C (Appendix A assumption)"));

    Real residual_rel = 0;
    Matrix q = factor_one(a, options, &residual_rel);
    result.report.max_residual_rel =
        std::max(result.report.max_residual_rel, residual_rel);
    // B_i factor: C^{-1/2} Q_i / sqrt(b_i) (Appendix A's closing remark).
    Matrix scaled = linalg::gemm(result.c_inv_sqrt, q);
    scaled.scale(1 / std::sqrt(problem.rhs[i]));
    Csr sparse_q = to_sparse_factor(scaled, options.drop_tol);
    result.report.max_rank = std::max(result.report.max_rank, sparse_q.cols());
    items.emplace_back(std::move(sparse_q));
    result.kept.push_back(i);
  }
  PSDP_CHECK(!items.empty(),
             "factorize_covering: all constraints dropped (all b_i are zero)");
  result.packing = FactorizedPackingInstance{sparse::FactorizedSet(std::move(items))};
  result.report.total_nnz = result.packing.total_nnz();
  return result;
}

}  // namespace psdp::core
