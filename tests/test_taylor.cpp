// Tests for Lemma 4.2: the truncated Taylor approximation of the matrix
// exponential, both the degree formula and the PSD sandwich
// (1 - eps) exp(B) <= B_hat <= exp(B).
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/expm.hpp"
#include "linalg/taylor.hpp"
#include "test_helpers.hpp"

namespace psdp::linalg {
namespace {

using psdp::testing::random_psd;

TEST(TaylorDegree, MatchesLemmaFormula) {
  const Real e2 = std::exp(2.0);
  EXPECT_EQ(taylor_exp_degree(10, 0.1),
            static_cast<Index>(std::ceil(e2 * 10)));
  // Tiny kappa: the ln(2/eps) branch dominates.
  EXPECT_EQ(taylor_exp_degree(0, 0.5),
            static_cast<Index>(std::ceil(std::log(4.0))));
}

TEST(TaylorDegree, RejectsBadArguments) {
  EXPECT_THROW(taylor_exp_degree(-1, 0.1), InvalidArgument);
  EXPECT_THROW(taylor_exp_degree(1, 0.0), InvalidArgument);
  EXPECT_THROW(taylor_exp_degree(1, 1.0), InvalidArgument);
}

TEST(TaylorDegree, GrowsWithKappaAndShrinkingEps) {
  EXPECT_GT(taylor_exp_degree(20, 0.1), taylor_exp_degree(10, 0.1));
  EXPECT_GE(taylor_exp_degree(0.01, 0.01), taylor_exp_degree(0.01, 0.1));
}

TEST(ApplyExpTaylor, DegreeOneIsIdentity) {
  const Matrix b = random_psd(4, 1);
  const SymmetricOp op = [&b](const Vector& x, Vector& y) { matvec(b, x, y); };
  const Vector x{1, 2, 3, 4};
  Vector y;
  apply_exp_taylor(op, 1, x, y);
  EXPECT_EQ(y, x);
}

TEST(ApplyExpTaylor, MatchesDenseMatrixForm) {
  const Matrix b = random_psd(6, 2);
  const SymmetricOp op = [&b](const Vector& x, Vector& y) { matvec(b, x, y); };
  Vector x(6);
  for (Index i = 0; i < 6; ++i) x[i] = std::sin(static_cast<Real>(i) + 1);
  for (Index degree : {2, 5, 11}) {
    Vector y_op;
    apply_exp_taylor(op, degree, x, y_op);
    const Vector y_mat = matvec(exp_taylor_matrix(b, degree), x);
    for (Index i = 0; i < 6; ++i) {
      EXPECT_NEAR(y_op[i], y_mat[i], 1e-11) << "degree " << degree;
    }
  }
}

TEST(ApplyExpTaylor, ConvergesToExactExponential) {
  const Matrix b = random_psd(5, 3);
  const Matrix exact = expm_eig(b);
  const SymmetricOp op = [&b](const Vector& x, Vector& y) { matvec(b, x, y); };
  Vector x(5, 1.0);
  const Vector want = matvec(exact, x);
  Vector y;
  apply_exp_taylor(op, 40, x, y);
  for (Index i = 0; i < 5; ++i) EXPECT_NEAR(y[i], want[i], 1e-10);
}

// The Lemma 4.2 sandwich, verified spectrally: both exp(B) - B_hat and
// B_hat - (1-eps) exp(B) must be PSD at the lemma's degree.
class TaylorSandwichTest
    : public ::testing::TestWithParam<std::tuple<Real, Real, std::uint64_t>> {};

TEST_P(TaylorSandwichTest, LemmaBoundsHold) {
  const auto [kappa_scale, eps, seed] = GetParam();
  Matrix b = random_psd(6, seed);
  // Normalize to a chosen spectral norm so kappa is known exactly.
  const Real norm = lambda_max_exact(b);
  ASSERT_GT(norm, 0);
  b.scale(kappa_scale / norm);
  const Real kappa = kappa_scale;

  const Index degree = taylor_exp_degree(kappa, eps);
  const Matrix approx = exp_taylor_matrix(b, degree);
  const Matrix exact = expm_eig(b);

  // exp(B) - B_hat >= 0.
  const Matrix upper_gap = sub(exact, approx);
  EXPECT_GE(sym_eig(upper_gap).eigenvalues[5],
            -1e-9 * frobenius_norm(exact));

  // B_hat - (1-eps) exp(B) >= 0.
  Matrix scaled = exact;
  scaled.scale(1 - eps);
  const Matrix lower_gap = sub(approx, scaled);
  EXPECT_GE(sym_eig(lower_gap).eigenvalues[5],
            -1e-9 * frobenius_norm(exact));
}

INSTANTIATE_TEST_SUITE_P(
    KappaEpsSweep, TaylorSandwichTest,
    ::testing::Combine(::testing::Values(0.5, 2.0, 6.0),
                       ::testing::Values(0.05, 0.2, 0.5),
                       ::testing::Values(21u, 22u)));

TEST(ExpTaylorMatrix, RejectsBadArguments) {
  EXPECT_THROW(exp_taylor_matrix(Matrix(2, 3), 3), InvalidArgument);
  EXPECT_THROW(exp_taylor_matrix(Matrix(2, 2), 0), InvalidArgument);
}

}  // namespace
}  // namespace psdp::linalg
