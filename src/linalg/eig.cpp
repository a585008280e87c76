#include "linalg/eig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "par/cost_meter.hpp"

namespace psdp::linalg {

namespace {

/// sqrt(a^2 + b^2) without destructive overflow (hypot, but branchier
/// versions in libm can be slow; this is the classic guarded form).
Real pythag(Real a, Real b) {
  const Real absa = std::abs(a);
  const Real absb = std::abs(b);
  if (absa > absb) {
    const Real r = absb / absa;
    return absa * std::sqrt(1 + r * r);
  }
  if (absb == 0) return 0;
  const Real r = absa / absb;
  return absb * std::sqrt(1 + r * r);
}

/// Householder reduction of symmetric `z` (overwritten with the
/// accumulated transform) to tridiagonal form: diagonal in d,
/// sub-diagonal in e[1..m-1] (EISPACK tred2).
void tred2(Matrix& z, Vector& d, Vector& e) {
  const Index m = z.rows();
  for (Index i = m - 1; i >= 1; --i) {
    const Index l = i - 1;
    Real h = 0;
    Real scale = 0;
    if (l > 0) {
      for (Index k = 0; k <= l; ++k) scale += std::abs(z(i, k));
      if (scale == 0) {
        e[i] = z(i, l);
      } else {
        for (Index k = 0; k <= l; ++k) {
          z(i, k) /= scale;
          h += sq(z(i, k));
        }
        Real f = z(i, l);
        Real g = f >= 0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        z(i, l) = f - g;
        f = 0;
        for (Index j = 0; j <= l; ++j) {
          z(j, i) = z(i, j) / h;
          g = 0;
          for (Index k = 0; k <= j; ++k) g += z(j, k) * z(i, k);
          for (Index k = j + 1; k <= l; ++k) g += z(k, j) * z(i, k);
          e[j] = g / h;
          f += e[j] * z(i, j);
        }
        const Real hh = f / (h + h);
        for (Index j = 0; j <= l; ++j) {
          f = z(i, j);
          e[j] = g = e[j] - hh * f;
          for (Index k = 0; k <= j; ++k) {
            z(j, k) -= f * e[k] + g * z(i, k);
          }
        }
      }
    } else {
      e[i] = z(i, l);
    }
    d[i] = h;
  }
  d[0] = 0;
  e[0] = 0;
  // Accumulate transformation matrices.
  for (Index i = 0; i < m; ++i) {
    const Index l = i - 1;
    if (d[i] != 0) {
      for (Index j = 0; j <= l; ++j) {
        Real g = 0;
        for (Index k = 0; k <= l; ++k) g += z(i, k) * z(k, j);
        for (Index k = 0; k <= l; ++k) z(k, j) -= g * z(k, i);
      }
    }
    d[i] = z(i, i);
    z(i, i) = 1;
    for (Index j = 0; j <= l; ++j) {
      z(j, i) = 0;
      z(i, j) = 0;
    }
  }
}

/// Implicit-shift QL on the tridiagonal (d, e), accumulating the rotations
/// into z (EISPACK tql2). Throws NumericalError if an eigenvalue fails to
/// converge in 50 sweeps (does not happen for finite symmetric input).
void tql2(Matrix& z, Vector& d, Vector& e) {
  const Index m = z.rows();
  for (Index i = 1; i < m; ++i) e[i - 1] = e[i];
  e[m - 1] = 0;

  for (Index l = 0; l < m; ++l) {
    Index iter = 0;
    Index mm;
    do {
      for (mm = l; mm < m - 1; ++mm) {
        const Real dd = std::abs(d[mm]) + std::abs(d[mm + 1]);
        if (std::abs(e[mm]) <= kEps * dd) break;
      }
      if (mm != l) {
        PSDP_NUMERIC_CHECK(iter++ < 50, "tql2: too many iterations");
        Real g = (d[l + 1] - d[l]) / (2 * e[l]);  // Wilkinson shift
        Real r = pythag(g, 1);
        g = d[mm] - d[l] + e[l] / (g + (g >= 0 ? std::abs(r) : -std::abs(r)));
        Real s = 1;
        Real c = 1;
        Real p = 0;
        bool underflow = false;
        for (Index i = mm - 1; i >= l; --i) {
          Real f = s * e[i];
          const Real b = c * e[i];
          r = pythag(f, g);
          e[i + 1] = r;
          if (r == 0) {
            // Rotation annihilated early: recover and restart this sweep.
            d[i + 1] -= p;
            e[mm] = 0;
            underflow = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (Index k = 0; k < m; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (underflow) continue;
        d[l] -= p;
        e[l] = g;
        e[mm] = 0;
      }
    } while (mm != l);
  }
}

}  // namespace

EigResult sym_eig(const Matrix& a) {
  PSDP_CHECK(a.square(), "sym_eig: matrix must be square");
  PSDP_CHECK(a.rows() > 0, "sym_eig: empty matrix");
  PSDP_CHECK(is_symmetric(a, 1e-8), "sym_eig: matrix must be symmetric");
  PSDP_CHECK(all_finite(a), "sym_eig: matrix has non-finite entries");
  const Index m = a.rows();

  Matrix z = a;
  z.symmetrize();
  Vector d(m);
  Vector e(m);
  tred2(z, d, e);
  tql2(z, d, e);
  par::CostMeter::add_work(static_cast<std::uint64_t>(3 * m * m * m));
  par::CostMeter::add_depth(static_cast<std::uint64_t>(m));

  // Sort eigenpairs by decreasing eigenvalue (tql2 leaves them unordered).
  std::vector<Index> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(),
            [&](Index i, Index j) { return d[i] > d[j]; });
  EigResult result;
  result.eigenvalues = Vector(m);
  result.eigenvectors = Matrix(m, m);
  for (Index c = 0; c < m; ++c) {
    const Index src = order[static_cast<std::size_t>(c)];
    result.eigenvalues[c] = d[src];
    for (Index r = 0; r < m; ++r) result.eigenvectors(r, c) = z(r, src);
  }
  return result;
}

Real lambda_max_exact(const Matrix& a) { return sym_eig(a).eigenvalues[0]; }

Matrix reconstruct(const EigResult& eig, const std::function<Real(Real)>& f) {
  const Index n = eig.eigenvalues.size();
  PSDP_CHECK(eig.eigenvectors.rows() == n && eig.eigenvectors.cols() == n,
             "reconstruct: inconsistent eigendecomposition");
  // B = V diag(f(lambda)) V^T computed as (V * D) * V^T.
  Matrix vd = eig.eigenvectors;
  for (Index c = 0; c < n; ++c) {
    const Real fl = f(eig.eigenvalues[c]);
    for (Index r = 0; r < n; ++r) vd(r, c) *= fl;
  }
  Matrix result = gemm(vd, eig.eigenvectors.transposed());
  result.symmetrize();
  return result;
}

}  // namespace psdp::linalg
