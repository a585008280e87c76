// Tests for the matrix multiplicative weights framework, including an
// empirical verification of the Theorem 2.1 regret bound on random and
// adversarial gain sequences -- the inequality the paper's Lemma 3.2 uses.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/eig.hpp"
#include "mmw/mmw.hpp"
#include "rand/rng.hpp"
#include "test_helpers.hpp"

namespace psdp::mmw {
namespace {

using linalg::Matrix;
using linalg::Vector;
using psdp::testing::random_psd;

/// Random PSD gain normalized so 0 <= M <= I, as Theorem 2.1 requires.
Matrix random_gain(Index m, std::uint64_t seed) {
  Matrix g = random_psd(m, seed);
  const Real lmax = linalg::lambda_max_exact(g);
  if (lmax > 0) g.scale(1 / lmax * 0.9);
  return g;
}

TEST(MatrixMwu, InitialProbabilityIsUniform) {
  MatrixMwu game(4, 0.25);
  Matrix expect = Matrix::identity(4);
  expect.scale(0.25);
  EXPECT_MATRIX_NEAR(game.probability(), expect, 1e-12);
}

TEST(MatrixMwu, ProbabilityHasUnitTrace) {
  MatrixMwu game(5, 0.3);
  for (std::uint64_t t = 0; t < 6; ++t) {
    game.play(random_gain(5, 100 + t));
    EXPECT_NEAR(linalg::trace(game.probability()), 1.0, 1e-10);
  }
}

TEST(MatrixMwu, ProbabilityIsPsd) {
  MatrixMwu game(4, 0.5);
  for (std::uint64_t t = 0; t < 5; ++t) game.play(random_gain(4, 300 + t));
  const auto eig = linalg::sym_eig(game.probability());
  EXPECT_GE(eig.eigenvalues[3], -1e-12);
}

TEST(MatrixMwu, RejectsInvalidConstruction) {
  EXPECT_THROW(MatrixMwu(0, 0.25), InvalidArgument);
  EXPECT_THROW(MatrixMwu(3, 0.0), InvalidArgument);
  EXPECT_THROW(MatrixMwu(3, 0.75), InvalidArgument);
}

TEST(MatrixMwu, RejectsBadGains) {
  MatrixMwu game(3, 0.25);
  EXPECT_THROW(game.play(Matrix(2, 2)), InvalidArgument);
  Matrix asym = Matrix::identity(3);
  asym(0, 1) = 0.5;
  EXPECT_THROW(game.play(asym), InvalidArgument);
}

TEST(MatrixMwu, CumulativeGainAccumulates) {
  MatrixMwu game(3, 0.25);
  const Matrix gain = Matrix::identity(3);
  game.play(gain);  // I . (I/3) = 1
  EXPECT_NEAR(game.cumulative_gain(), 1.0, 1e-12);
  EXPECT_EQ(game.rounds(), 1);
  game.play(gain);
  EXPECT_NEAR(game.cumulative_gain(), 2.0, 1e-10);
}

TEST(MatrixMwu, IdentityGainsKeepUniformDistribution) {
  MatrixMwu game(4, 0.25);
  for (int t = 0; t < 3; ++t) game.play(Matrix::identity(4));
  Matrix expect = Matrix::identity(4);
  expect.scale(0.25);
  EXPECT_MATRIX_NEAR(game.probability(), expect, 1e-10);
}

// ------------------------------------------------------------------
// Theorem 2.1, verified empirically.
// ------------------------------------------------------------------

class RegretBoundTest
    : public ::testing::TestWithParam<std::tuple<Real, Index, std::uint64_t>> {};

TEST_P(RegretBoundTest, HoldsOnRandomGainSequences) {
  const auto [eps0, m, seed] = GetParam();
  MatrixMwu game(m, eps0);
  for (std::uint64_t t = 0; t < 30; ++t) {
    game.play(random_gain(m, seed * 1000 + t));
    ASSERT_TRUE(game.regret_bound_holds(1e-8))
        << "round " << t << ": lhs=" << game.regret_lhs()
        << " rhs=" << game.regret_rhs();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegretBoundTest,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.5),
                       ::testing::Values(Index{2}, Index{6}, Index{12}),
                       ::testing::Values(1u, 2u)));

TEST(MatrixMwu, RegretBoundOnAdversarialConcentratedGains) {
  // Adversary always rewards the first coordinate: the algorithm must
  // still track it within the regret bound.
  const Index m = 5;
  MatrixMwu game(m, 0.25);
  Matrix gain(m, m);
  gain(0, 0) = 1;
  for (int t = 0; t < 60; ++t) {
    game.play(gain);
    ASSERT_TRUE(game.regret_bound_holds(1e-8)) << "round " << t;
  }
  // After many rounds the distribution concentrates on coordinate 0.
  EXPECT_GT(game.probability()(0, 0), 0.9);
}

TEST(MatrixMwu, RegretBoundOnAlternatingGains) {
  // Alternating orthogonal gains: the worst case for following a single
  // expert; the bound must still hold.
  const Index m = 4;
  MatrixMwu game(m, 0.5);
  Matrix g1(m, m), g2(m, m);
  g1(0, 0) = 1;
  g2(1, 1) = 1;
  for (int t = 0; t < 40; ++t) {
    game.play(t % 2 == 0 ? g1 : g2);
    ASSERT_TRUE(game.regret_bound_holds(1e-8)) << "round " << t;
  }
}

TEST(MatrixMwu, LambdaMaxCumulativeTracksBestAction) {
  const Index m = 3;
  MatrixMwu game(m, 0.25);
  Matrix gain(m, m);
  gain(2, 2) = 0.5;
  for (int t = 0; t < 10; ++t) game.play(gain);
  EXPECT_NEAR(game.lambda_max_cumulative(), 5.0, 1e-10);
}

}  // namespace
}  // namespace psdp::mmw
