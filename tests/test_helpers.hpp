// Shared helpers for the test suite: random PSD matrix construction, the
// cyclic-Jacobi reference eigensolver, matrix comparison assertions and
// malformed-input checks for the readers.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "linalg/eig.hpp"
#include "linalg/matrix.hpp"
#include "rand/rng.hpp"
#include "util/common.hpp"

namespace psdp::testing {

/// Random symmetric matrix with entries ~ N(0, 1).
inline linalg::Matrix random_symmetric(Index m, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix a(m, m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = i; j < m; ++j) {
      const Real v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

/// Random PSD matrix G G^T / m with G an m x m Gaussian matrix (full rank
/// almost surely, eigenvalues O(1)).
inline linalg::Matrix random_psd(Index m, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix g(m, m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) g(i, j) = rng.normal();
  }
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.scale(Real{1} / static_cast<Real>(m));
  a.symmetrize();
  return a;
}

/// Random rank-deficient PSD matrix (rank r < m).
inline linalg::Matrix random_psd_rank(Index m, Index r, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix g(m, r);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < r; ++j) g(i, j) = rng.normal();
  }
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.scale(Real{1} / static_cast<Real>(m));
  a.symmetrize();
  return a;
}

/// Cyclic-Jacobi eigendecomposition (Golub & Van Loan 8.5), the
/// independent reference linalg::sym_eig is cross-validated against. Same
/// contract: eigenvalues decreasing, eigenvectors as columns, the same
/// input checks, and NumericalError if 64 sweeps do not converge.
inline linalg::EigResult reference_jacobi_eig(const linalg::Matrix& input) {
  PSDP_CHECK(input.square(), "reference_jacobi_eig: matrix must be square");
  PSDP_CHECK(linalg::is_symmetric(input, 1e-8),
             "reference_jacobi_eig: matrix must be symmetric");
  PSDP_CHECK(linalg::all_finite(input),
             "reference_jacobi_eig: matrix has non-finite entries");
  const Index n = input.rows();
  linalg::Matrix a = input;
  a.symmetrize();
  linalg::Matrix v = linalg::Matrix::identity(n);
  // Converged when off(A) <= 1e-14 * max(||A||_F, 1).
  const Real threshold2 = sq(1e-14 * std::max(linalg::frobenius_norm(a), Real{1}));
  const auto off_diagonal_norm2 = [&] {
    Real acc = 0;
    for (Index i = 0; i < n; ++i) {
      for (Index j = 0; j < n; ++j) {
        if (i != j) acc += sq(a(i, j));
      }
    }
    return acc;
  };
  bool converged = off_diagonal_norm2() <= threshold2;
  for (int sweep = 0; sweep < 64 && !converged; ++sweep) {
    for (Index p = 0; p + 1 < n; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const Real apq = a(p, q);
        if (apq == 0) continue;
        const Real theta = (a(q, q) - a(p, p)) / (2 * apq);
        const Real t = (theta >= 0 ? 1.0 : -1.0) /
                       (std::abs(theta) + std::sqrt(theta * theta + 1));
        const Real c = 1 / std::sqrt(t * t + 1);
        const Real s = t * c;
        for (Index k = 0; k < n; ++k) {
          const Real akp = a(k, p);
          const Real akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (Index k = 0; k < n; ++k) {
          const Real apk = a(p, k);
          const Real aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (Index k = 0; k < n; ++k) {
          const Real vkp = v(k, p);
          const Real vkq = v(k, q);
          v(k, p) = c * vkp - s * vkq;
          v(k, q) = s * vkp + c * vkq;
        }
      }
    }
    converged = off_diagonal_norm2() <= threshold2;
  }
  PSDP_NUMERIC_CHECK(converged, "reference_jacobi_eig: sweep limit exhausted");

  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(),
            [&](Index i, Index j) { return a(i, i) > a(j, j); });
  linalg::EigResult result{linalg::Vector(n), linalg::Matrix(n, n)};
  for (Index c = 0; c < n; ++c) {
    const Index src = order[static_cast<std::size_t>(c)];
    result.eigenvalues[c] = a(src, src);
    for (Index r = 0; r < n; ++r) result.eigenvectors(r, c) = v(r, src);
  }
  return result;
}

/// Expect `read` to raise InvalidArgument on `text` with a message naming
/// the fault.
template <typename Reader>
void expect_rejected(Reader read, const std::string& text,
                     const std::string& needle) {
  std::istringstream in(text);
  try {
    read(in);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what() << "\ninput:\n" << text;
  }
}

#define EXPECT_MATRIX_NEAR(a, b, tol)                                  \
  EXPECT_LE(::psdp::linalg::max_abs_diff((a), (b)), (tol))             \
      << "matrices differ by more than " << (tol)

}  // namespace psdp::testing
