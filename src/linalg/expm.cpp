#include "linalg/expm.hpp"

#include <array>
#include <cmath>

#include "linalg/cholesky.hpp"

namespace psdp::linalg {

Matrix expm_eig(const Matrix& a) {
  const EigResult eig = sym_eig(a);
  return expm_from_eig(eig);
}

Matrix expm_from_eig(const EigResult& eig, Real scale) {
  return reconstruct(eig, [scale](Real x) { return std::exp(scale * x); });
}

Matrix expm_pade(const Matrix& a) {
  PSDP_CHECK(a.square(), "expm_pade: matrix must be square");
  PSDP_CHECK(all_finite(a), "expm_pade: matrix has non-finite entries");
  const Index n = a.rows();

  // Scale A down until ||A/2^s||_F <= 1/2, approximate, square back up.
  const Real norm = frobenius_norm(a);
  int s = 0;
  Real factor = 1;
  while (norm * factor > 0.5) {
    factor /= 2;
    ++s;
  }
  Matrix as = a;
  as.scale(factor);

  // [6/6] diagonal Pade approximant: exp(X) ~= q(X)^{-1} p(X) with
  // p(X) = sum c_j X^j and q(X) = p(-X), c_j = (2k-j)! k! / ((2k)! (k-j)! j!).
  static constexpr std::array<Real, 7> c = {
      1.0, 1.0 / 2, 5.0 / 44, 1.0 / 66, 1.0 / 792, 1.0 / 15840, 1.0 / 665280};

  Matrix p = Matrix::identity(n);
  p.scale(c[0]);
  Matrix q = p;
  Matrix power = Matrix::identity(n);
  for (std::size_t j = 1; j < c.size(); ++j) {
    power = gemm(power, as);
    p.add_scaled(power, c[j]);
    q.add_scaled(power, (j % 2 == 0) ? c[j] : -c[j]);
  }

  // Solve q X = p column by column. For symmetric PSD-leaning input with
  // ||X|| <= 1/2, q is symmetric positive definite, so Cholesky applies; if
  // the input was non-symmetric we fall back to a symmetrized solve, which
  // is fine for the symmetric matrices this library feeds in (checked).
  Matrix q_sym = q;
  q_sym.symmetrize();
  auto l = cholesky(q_sym, 1e-14);
  PSDP_NUMERIC_CHECK(l.has_value(), "expm_pade: Pade denominator not SPD");
  Matrix x(n, n);
  Vector col(n);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) col[i] = p(i, j);
    const Vector sol = cholesky_solve(*l, col);
    for (Index i = 0; i < n; ++i) x(i, j) = sol[i];
  }

  for (int k = 0; k < s; ++k) x = gemm(x, x);
  return x;
}

}  // namespace psdp::linalg
