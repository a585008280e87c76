#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/eig.hpp"
#include "test_helpers.hpp"

namespace psdp::linalg {
namespace {

using psdp::testing::random_psd;
using psdp::testing::random_psd_rank;
using psdp::testing::random_symmetric;

TEST(Cholesky, Known2x2) {
  Matrix a(2, 2);
  a(0, 0) = 4; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 5;
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_NEAR((*l)(0, 0), 2, 1e-14);
  EXPECT_NEAR((*l)(1, 0), 1, 1e-14);
  EXPECT_NEAR((*l)(1, 1), 2, 1e-14);
}

TEST(Cholesky, ReconstructionProperty) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Matrix a = random_psd(8, seed);
    const auto l = cholesky(a);
    ASSERT_TRUE(l.has_value()) << "seed " << seed;
    const Matrix llt = gemm(*l, l->transposed());
    EXPECT_MATRIX_NEAR(llt, a, 1e-10);
  }
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a).has_value());
  EXPECT_FALSE(is_psd(a));
}

TEST(Cholesky, RejectsNegativeDiagonal) {
  Matrix a = Matrix::identity(3);
  a(1, 1) = -0.5;
  EXPECT_FALSE(is_psd(a));
}

TEST(Cholesky, AcceptsRankDeficientPsd) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Matrix a = random_psd_rank(6, 3, seed);
    const auto l = cholesky(a);
    ASSERT_TRUE(l.has_value()) << "seed " << seed;
    EXPECT_MATRIX_NEAR(gemm(*l, l->transposed()), a, 1e-8);
  }
}

TEST(Cholesky, ZeroMatrixIsPsd) {
  EXPECT_TRUE(is_psd(Matrix(4, 4)));
}

TEST(Cholesky, RequiresSymmetric) {
  Matrix a = Matrix::identity(2);
  a(0, 1) = 0.5;  // asymmetric
  EXPECT_THROW(cholesky(a), InvalidArgument);
}

TEST(Cholesky, SolveRoundTrip) {
  const Matrix a = random_psd(6, 42);
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  Vector b(6);
  for (Index i = 0; i < 6; ++i) b[i] = static_cast<Real>(i) - 2.5;
  const Vector x = cholesky_solve(*l, b);
  const Vector ax = matvec(a, x);
  for (Index i = 0; i < 6; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(Cholesky, SolveLowerForwardSubstitution) {
  Matrix l(2, 2);
  l(0, 0) = 2;
  l(1, 0) = 1;
  l(1, 1) = 3;
  const Vector y = solve_lower(l, Vector{4, 7});
  EXPECT_NEAR(y[0], 2, 1e-14);
  EXPECT_NEAR(y[1], 5.0 / 3.0, 1e-14);
  const Vector x = solve_lower_transpose(l, y);
  // L^T x = y -> verify by applying L^T.
  EXPECT_NEAR(l(0, 0) * x[0] + l(1, 0) * x[1], y[0], 1e-13);
  EXPECT_NEAR(l(1, 1) * x[1], y[1], 1e-13);
}

TEST(Cholesky, SolveSingularFactorThrows) {
  Matrix l(2, 2);  // zero diagonal
  EXPECT_THROW(solve_lower(l, Vector{1, 1}), NumericalError);
}

TEST(Cholesky, IsPsdAgreesWithEigenvaluesOnRandomSymmetric) {
  // Cross-validate the PSD test against the eigensolver on matrices that
  // are sometimes PSD and sometimes not.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Matrix a = random_symmetric(5, 900 + seed);
    a.add_scaled_identity(1.0);  // shift: some become PSD, some stay not
    const auto eig = sym_eig(a);
    const bool psd_by_eig = eig.eigenvalues[4] >= -1e-10;
    EXPECT_EQ(is_psd(a, 1e-9), psd_by_eig) << "seed " << seed;
  }
}

}  // namespace
}  // namespace psdp::linalg
