#include <gtest/gtest.h>

#include "linalg/eig.hpp"
#include "linalg/power.hpp"
#include "test_helpers.hpp"

namespace psdp::linalg {
namespace {

using psdp::testing::random_psd;
using psdp::testing::reference_jacobi_eig;

TEST(PowerIteration, MatchesExactOnDiagonal) {
  const Matrix a = Matrix::diagonal(Vector{0.5, 7.0, 3.0});
  const PowerResult r = power_iteration(a);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.lambda_max, 7.0, 1e-4);
}

TEST(PowerIteration, MatchesJacobiOnRandomPsd) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Matrix a = random_psd(10, seed);
    const Real exact = reference_jacobi_eig(a).eigenvalues[0];
    PowerOptions options;
    options.tol = 1e-9;
    options.max_iterations = 3000;
    const PowerResult r = power_iteration(a, options);
    EXPECT_NEAR(r.lambda_max, exact, 1e-4 * exact) << "seed " << seed;
  }
}

TEST(PowerIteration, OperatorFormMatchesMatrixForm) {
  const Matrix a = random_psd(6, 77);
  const SymmetricOp op = [&a](const Vector& x, Vector& y) { matvec(a, x, y); };
  const PowerResult r1 = power_iteration(op, 6);
  const PowerResult r2 = power_iteration(a);
  EXPECT_NEAR(r1.lambda_max, r2.lambda_max, 1e-9);
}

TEST(PowerIteration, ZeroOperator) {
  const Matrix a(4, 4);
  const PowerResult r = power_iteration(a);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.lambda_max, 0);
}

TEST(PowerIteration, UpperBoundIsAboveEstimate) {
  const Matrix a = random_psd(8, 3);
  const SymmetricOp op = [&a](const Vector& x, Vector& y) { matvec(a, x, y); };
  const Real ub = lambda_max_upper_bound(op, 8);
  const Real exact = lambda_max_exact(a);
  // Power iteration underestimates; the inflated bound should cover the
  // true value for these well-conditioned instances.
  EXPECT_GE(ub, exact * (1 - 1e-4));
}

TEST(PowerIteration, RejectsBadDimension) {
  const SymmetricOp op = [](const Vector&, Vector&) {};
  EXPECT_THROW(power_iteration(op, 0), InvalidArgument);
}

TEST(PowerIteration, ReportsIterationCount) {
  const Matrix a = Matrix::diagonal(Vector{1.0, 0.999});  // slow gap
  PowerOptions options;
  options.max_iterations = 5;
  const PowerResult r = power_iteration(a, options);
  EXPECT_LE(r.iterations, 5);
}

}  // namespace
}  // namespace psdp::linalg
