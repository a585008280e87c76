// Tests for linalg::sym_eig (tred2/tql2), cross-validated against the
// cyclic-Jacobi reference in test_helpers.hpp. The JacobiEig suite pins
// that reference itself to known spectra and invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "linalg/eig.hpp"
#include "rand/rng.hpp"
#include "test_helpers.hpp"

namespace psdp::linalg {
namespace {

using psdp::testing::random_psd;
using psdp::testing::random_psd_rank;
using psdp::testing::random_symmetric;
using psdp::testing::reference_jacobi_eig;

TEST(JacobiEig, DiagonalMatrix) {
  const auto eig = reference_jacobi_eig(Matrix::diagonal(Vector{3, 1, 2}));
  EXPECT_NEAR(eig.eigenvalues[0], 3, 1e-14);
  EXPECT_NEAR(eig.eigenvalues[1], 2, 1e-14);
  EXPECT_NEAR(eig.eigenvalues[2], 1, 1e-14);
}

TEST(JacobiEig, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 2;
  const auto eig = reference_jacobi_eig(a);
  EXPECT_NEAR(eig.eigenvalues[0], 3, 1e-13);
  EXPECT_NEAR(eig.eigenvalues[1], 1, 1e-13);
}

TEST(JacobiEig, EigenvaluesSortedDescending) {
  const auto eig = reference_jacobi_eig(random_symmetric(9, 5));
  for (Index i = 1; i < 9; ++i) {
    EXPECT_GE(eig.eigenvalues[i - 1], eig.eigenvalues[i]);
  }
}

TEST(JacobiEig, EigenvectorsOrthonormal) {
  const auto eig = reference_jacobi_eig(random_symmetric(7, 9));
  const Matrix vtv = gemm(eig.eigenvectors.transposed(), eig.eigenvectors);
  EXPECT_MATRIX_NEAR(vtv, Matrix::identity(7), 1e-11);
}

TEST(JacobiEig, ReconstructionProperty) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Matrix a = random_symmetric(6, 50 + seed);
    const auto eig = reference_jacobi_eig(a);
    const Matrix back = reconstruct(eig, [](Real x) { return x; });
    EXPECT_MATRIX_NEAR(back, a, 1e-11);
  }
}

TEST(JacobiEig, EigenvectorEquation) {
  const Matrix a = random_symmetric(5, 13);
  const auto eig = reference_jacobi_eig(a);
  for (Index c = 0; c < 5; ++c) {
    Vector v(5);
    for (Index r = 0; r < 5; ++r) v[r] = eig.eigenvectors(r, c);
    const Vector av = matvec(a, v);
    for (Index r = 0; r < 5; ++r) {
      EXPECT_NEAR(av[r], eig.eigenvalues[c] * v[r], 1e-10);
    }
  }
}

TEST(JacobiEig, TraceAndDeterminantInvariants) {
  const Matrix a = random_symmetric(6, 17);
  const auto eig = reference_jacobi_eig(a);
  Real eig_sum = 0;
  for (Index i = 0; i < 6; ++i) eig_sum += eig.eigenvalues[i];
  EXPECT_NEAR(eig_sum, trace(a), 1e-10);
}

TEST(JacobiEig, PsdInputGivesNonnegativeEigenvalues) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto eig = reference_jacobi_eig(random_psd(6, 70 + seed));
    EXPECT_GE(eig.eigenvalues[5], -1e-10);
  }
}

TEST(JacobiEig, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = -4.5;
  const auto eig = reference_jacobi_eig(a);
  EXPECT_EQ(eig.eigenvalues[0], -4.5);
  EXPECT_NEAR(std::abs(eig.eigenvectors(0, 0)), 1, 1e-15);
}

TEST(JacobiEig, RejectsAsymmetric) {
  Matrix a = Matrix::identity(3);
  a(0, 1) = 0.3;
  EXPECT_THROW(reference_jacobi_eig(a), InvalidArgument);
}

TEST(JacobiEig, RejectsNonFinite) {
  Matrix a = Matrix::identity(2);
  a(0, 0) = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(reference_jacobi_eig(a), InvalidArgument);
}

TEST(LambdaMaxExact, MatchesKnownValues) {
  EXPECT_NEAR(lambda_max_exact(Matrix::diagonal(Vector{1, 5, 2})), 5, 1e-13);
}

TEST(Reconstruct, AppliesFunctionToSpectrum) {
  const Matrix a = Matrix::diagonal(Vector{4, 9});
  const auto eig = sym_eig(a);
  const Matrix sq = reconstruct(eig, [](Real x) { return std::sqrt(x); });
  EXPECT_MATRIX_NEAR(sq, Matrix::diagonal(Vector{2, 3}), 1e-12);
}

class EigSizeSweep : public ::testing::TestWithParam<Index> {};

TEST_P(EigSizeSweep, ReconstructsAtEverySize) {
  const Index m = GetParam();
  const Matrix a = random_symmetric(m, 1000 + static_cast<std::uint64_t>(m));
  const auto eig = sym_eig(a);
  const Matrix back = reconstruct(eig, [](Real x) { return x; });
  EXPECT_LE(max_abs_diff(back, a), 1e-10 * std::max<Real>(1, frobenius_norm(a)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 16, 40, 100));

TEST(TridiagEig, DiagonalMatrix) {
  const auto eig = sym_eig(Matrix::diagonal(Vector{3, 1, 2}));
  EXPECT_NEAR(eig.eigenvalues[0], 3, 1e-13);
  EXPECT_NEAR(eig.eigenvalues[1], 2, 1e-13);
  EXPECT_NEAR(eig.eigenvalues[2], 1, 1e-13);
}

TEST(TridiagEig, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1;
  a(1, 0) = 1; a(1, 1) = 2;
  const auto eig = sym_eig(a);
  EXPECT_NEAR(eig.eigenvalues[0], 3, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 1, 1e-12);
}

TEST(TridiagEig, OneByOne) {
  Matrix a(1, 1);
  a(0, 0) = -7.5;
  const auto eig = sym_eig(a);
  EXPECT_EQ(eig.eigenvalues[0], -7.5);
}

TEST(TridiagEig, AgreesWithJacobiOnEigenvalues) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Matrix a = random_symmetric(12, 300 + seed);
    const auto ql = sym_eig(a);
    const auto jacobi = reference_jacobi_eig(a);
    const Real scale = std::max<Real>(1, std::abs(jacobi.eigenvalues[0]));
    for (Index i = 0; i < 12; ++i) {
      EXPECT_NEAR(ql.eigenvalues[i], jacobi.eigenvalues[i], 1e-10 * scale)
          << "seed " << seed << " index " << i;
    }
  }
}

TEST(TridiagEig, EigenvectorsOrthonormal) {
  const auto eig = sym_eig(random_symmetric(15, 41));
  const Matrix vtv = gemm(eig.eigenvectors.transposed(), eig.eigenvectors);
  EXPECT_MATRIX_NEAR(vtv, Matrix::identity(15), 1e-11);
}

TEST(TridiagEig, ReconstructionProperty) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Matrix a = random_symmetric(10, 400 + seed);
    const auto eig = sym_eig(a);
    const Matrix back = reconstruct(eig, [](Real x) { return x; });
    EXPECT_LE(max_abs_diff(back, a), 1e-10 * std::max<Real>(1, frobenius_norm(a)))
        << "seed " << seed;
  }
}

TEST(TridiagEig, RankDeficientPsd) {
  struct Case {
    Index m, rank;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{9, 4, 7}, Case{30, 10, 3030}, Case{34, 11, 3034}}) {
    const Matrix a = random_psd_rank(c.m, c.rank, c.seed);
    const auto eig = sym_eig(a);
    const auto want = reference_jacobi_eig(a);
    for (Index i = 0; i < c.m; ++i) {
      EXPECT_NEAR(eig.eigenvalues[i], want.eigenvalues[i], 1e-9)
          << "m " << c.m << " index " << i;
    }
    // m - rank (numerically) zero eigenvalues at the bottom.
    for (Index i = c.rank; i < c.m; ++i) {
      EXPECT_NEAR(eig.eigenvalues[i], 0, 1e-9) << "m " << c.m;
    }
    // The null space is degenerate, so compare through reconstruction.
    const auto identity = [](Real x) { return x; };
    EXPECT_MATRIX_NEAR(reconstruct(eig, identity), a, 1e-9);
    EXPECT_MATRIX_NEAR(reconstruct(eig, identity), reconstruct(want, identity),
                       1e-9);
  }
}

TEST(TridiagEig, AlreadyTridiagonalInput) {
  const Index m = 8;
  Matrix a(m, m);
  for (Index i = 0; i < m; ++i) {
    a(i, i) = 2;
    if (i > 0) {
      a(i, i - 1) = -1;
      a(i - 1, i) = -1;
    }
  }
  const auto eig = sym_eig(a);
  // Known spectrum of the path Laplacian-ish matrix: 2 - 2cos(k pi/(m+1)).
  for (Index k = 0; k < m; ++k) {
    const Real expect =
        2 - 2 * std::cos(static_cast<Real>(m - k) * std::numbers::pi /
                         static_cast<Real>(m + 1));
    EXPECT_NEAR(eig.eigenvalues[k], expect, 1e-11) << "k " << k;
  }
}

TEST(TridiagEig, Validation) {
  EXPECT_THROW(sym_eig(Matrix(2, 3)), InvalidArgument);
  Matrix asym = Matrix::identity(3);
  asym(0, 1) = 0.5;
  EXPECT_THROW(sym_eig(asym), InvalidArgument);
  Matrix nan = Matrix::identity(2);
  nan(0, 0) = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(sym_eig(nan), InvalidArgument);
  try {
    sym_eig(Matrix(0, 0));
    ADD_FAILURE() << "sym_eig accepted a 0x0 matrix";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("sym_eig: empty matrix"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(lambda_max_exact(Matrix(0, 0)), InvalidArgument);
}

class TridiagSizeSweep : public ::testing::TestWithParam<Index> {};

TEST_P(TridiagSizeSweep, CrossValidatesJacobiAtEverySize) {
  const Index m = GetParam();
  const Matrix a = random_symmetric(m, 2000 + static_cast<std::uint64_t>(m));
  const auto ql = sym_eig(a);
  const auto jacobi = reference_jacobi_eig(a);
  const Real scale = std::max<Real>(1, std::abs(jacobi.eigenvalues[0]));
  for (Index i = 0; i < m; ++i) {
    ASSERT_NEAR(ql.eigenvalues[i], jacobi.eigenvalues[i], 1e-9 * scale)
        << "m " << m << " index " << i;
  }
  // Eigenvectors may differ by sign/rotation in degenerate subspaces;
  // compare through reconstruction instead.
  const Matrix back = reconstruct(ql, [](Real x) { return x; });
  EXPECT_LE(max_abs_diff(back, a), 1e-9 * scale);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TridiagSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 12, 16, 31, 33, 64,
                                           128));

TEST(SymEig, RepeatedEigenvalues) {
  // A = 2 I + u u^T + w w^T: the eigenvalue 2 has multiplicity m - 2, so
  // the eigenvectors are only defined up to a rotation of that subspace.
  const Index m = 10;
  rand::Rng rng(17);
  Vector u(m);
  Vector w(m);
  for (Index i = 0; i < m; ++i) {
    u[i] = rng.normal();
    w[i] = rng.normal();
  }
  Matrix a = Matrix::identity(m);
  a.scale(2);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) a(i, j) += u[i] * u[j] + w[i] * w[j];
  }
  a.symmetrize();
  const auto eig = sym_eig(a);
  const auto want = reference_jacobi_eig(a);
  for (Index i = 0; i < m; ++i) {
    EXPECT_NEAR(eig.eigenvalues[i], want.eigenvalues[i], 1e-11) << i;
  }
  for (Index i = 2; i < m; ++i) EXPECT_NEAR(eig.eigenvalues[i], 2, 1e-12) << i;
  const Matrix vtv = gemm(eig.eigenvectors.transposed(), eig.eigenvectors);
  EXPECT_MATRIX_NEAR(vtv, Matrix::identity(m), 1e-12);
  const auto identity = [](Real x) { return x; };
  EXPECT_MATRIX_NEAR(reconstruct(eig, identity), a, 1e-12);
  EXPECT_MATRIX_NEAR(reconstruct(eig, identity), reconstruct(want, identity),
                     1e-12);
}

}  // namespace
}  // namespace psdp::linalg
