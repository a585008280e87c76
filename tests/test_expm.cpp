#include <gtest/gtest.h>

#include <cmath>

#include "linalg/expm.hpp"
#include "test_helpers.hpp"

namespace psdp::linalg {
namespace {

using psdp::testing::random_psd;
using psdp::testing::random_symmetric;

TEST(ExpmEig, ExpOfZeroIsIdentity) {
  EXPECT_MATRIX_NEAR(expm_eig(Matrix(4, 4)), Matrix::identity(4), 1e-13);
}

TEST(ExpmEig, DiagonalCase) {
  const Matrix e = expm_eig(Matrix::diagonal(Vector{0, 1, -1}));
  EXPECT_NEAR(e(0, 0), 1, 1e-13);
  EXPECT_NEAR(e(1, 1), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(2, 2), std::exp(-1.0), 1e-13);
  EXPECT_NEAR(e(0, 1), 0, 1e-13);
}

TEST(ExpmEig, OneByOneMatchesScalarExp) {
  Matrix a(1, 1);
  a(0, 0) = 2.3;
  EXPECT_NEAR(expm_eig(a)(0, 0), std::exp(2.3), 1e-11);
}

TEST(ExpmPade, AgreesWithEigOnRandomSymmetric) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Matrix a = random_symmetric(6, 500 + seed);
    const Matrix e1 = expm_eig(a);
    const Matrix e2 = expm_pade(a);
    const Real scale = frobenius_norm(e1);
    EXPECT_LE(max_abs_diff(e1, e2), 1e-9 * std::max<Real>(1, scale))
        << "seed " << seed;
  }
}

TEST(ExpmPade, AgreesWithEigOnLargeNormPsd) {
  // Larger norm exercises more squaring steps.
  Matrix a = random_psd(5, 31);
  a.scale(20);
  const Matrix e1 = expm_eig(a);
  const Matrix e2 = expm_pade(a);
  EXPECT_LE(max_abs_diff(e1, e2), 1e-7 * frobenius_norm(e1));
}

TEST(Expm, GroupProperty) {
  // exp(A) exp(A) = exp(2A) for commuting (identical) arguments.
  const Matrix a = random_symmetric(5, 8);
  Matrix a2 = a;
  a2.scale(2);
  const Matrix lhs = gemm(expm_eig(a), expm_eig(a));
  const Matrix rhs = expm_eig(a2);
  EXPECT_LE(max_abs_diff(lhs, rhs), 1e-9 * frobenius_norm(rhs));
}

TEST(Expm, InverseProperty) {
  // exp(A) exp(-A) = I.
  const Matrix a = random_symmetric(5, 9);
  Matrix neg = a;
  neg.scale(-1);
  const Matrix prod = gemm(expm_eig(a), expm_eig(neg));
  EXPECT_MATRIX_NEAR(prod, Matrix::identity(5), 1e-9);
}

TEST(Expm, ExponentialOfPsdDominatesIdentity) {
  // For PSD A, exp(A) >= I in the Loewner order: check via eigenvalues.
  const Matrix e = expm_eig(random_psd(6, 3));
  Matrix shifted = e;
  shifted.add_scaled_identity(-1.0 + 1e-12);
  const auto eig = sym_eig(shifted);
  EXPECT_GE(eig.eigenvalues[5], -1e-10);
}

TEST(ExpmFromEig, HalfScaleSquaresToFull) {
  // exp(A/2)^2 = exp(A); this identity is the heart of bigDotExp.
  const Matrix a = random_psd(6, 44);
  const auto eig = sym_eig(a);
  const Matrix half = expm_from_eig(eig, 0.5);
  const Matrix full = expm_from_eig(eig, 1.0);
  EXPECT_LE(max_abs_diff(gemm(half, half), full),
            1e-10 * frobenius_norm(full));
}

TEST(ExpmPade, RejectsNonFinite) {
  Matrix a = Matrix::identity(2);
  a(0, 0) = std::numeric_limits<Real>::infinity();
  EXPECT_THROW(expm_pade(a), InvalidArgument);
}

TEST(Expm, TraceExpEqualsSumExpEigenvalues) {
  const Matrix a = random_symmetric(7, 91);
  const auto eig = sym_eig(a);
  Real expect = 0;
  for (Index i = 0; i < 7; ++i) expect += std::exp(eig.eigenvalues[i]);
  EXPECT_NEAR(trace(expm_eig(a)), expect, 1e-9 * expect);
}

}  // namespace
}  // namespace psdp::linalg
