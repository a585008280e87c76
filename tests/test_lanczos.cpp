#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "linalg/eig.hpp"
#include "linalg/lanczos.hpp"
#include "par/parallel.hpp"
#include "test_helpers.hpp"
#include "util/wire.hpp"

namespace psdp::linalg {
namespace {

using psdp::testing::random_psd;
using psdp::testing::random_psd_rank;
using psdp::testing::random_symmetric;
using psdp::testing::reference_jacobi_eig;

using util::hex_bits;

TEST(TridiagonalEigenvalues, DiagonalCase) {
  const Vector ev = tridiagonal_eigenvalues(Vector{3, 1, 2}, Vector{0, 0});
  EXPECT_NEAR(ev[0], 3, 1e-10);
  EXPECT_NEAR(ev[1], 2, 1e-10);
  EXPECT_NEAR(ev[2], 1, 1e-10);
}

TEST(TridiagonalEigenvalues, Known2x2) {
  // [[2, 1], [1, 2]] -> eigenvalues 3 and 1.
  const Vector ev = tridiagonal_eigenvalues(Vector{2, 2}, Vector{1});
  EXPECT_NEAR(ev[0], 3, 1e-10);
  EXPECT_NEAR(ev[1], 1, 1e-10);
}

TEST(TridiagonalEigenvalues, MatchesJacobiOnRandomTridiagonal) {
  const Index k = 12;
  rand::Rng rng(5);
  Vector alpha(k), beta(k - 1);
  Matrix dense(k, k);
  for (Index i = 0; i < k; ++i) {
    alpha[i] = rng.normal();
    dense(i, i) = alpha[i];
  }
  for (Index i = 0; i < k - 1; ++i) {
    beta[i] = rng.normal();
    dense(i, i + 1) = beta[i];
    dense(i + 1, i) = beta[i];
  }
  const Vector got = tridiagonal_eigenvalues(alpha, beta);
  const EigResult want = reference_jacobi_eig(dense);
  for (Index i = 0; i < k; ++i) {
    EXPECT_NEAR(got[i], want.eigenvalues[i], 1e-9) << "index " << i;
  }
}

TEST(TridiagonalEigenvalues, TopMatchesFullBisectionBitwise) {
  // Lanczos bisects only the top eigenvalue of each leading section; it
  // must be the very value the all-eigenvalue bisection reports first.
  rand::Rng rng(41);
  for (Index k = 1; k <= 64; ++k) {
    for (int shape = 0; shape < 3; ++shape) {
      Vector alpha(k), beta(k - 1);
      for (Index i = 0; i < k; ++i) {
        // shape 2: repeated diagonal values.
        alpha[i] = shape == 2 ? static_cast<Real>(i % 3) : rng.normal();
      }
      for (Index i = 0; i + 1 < k; ++i) {
        beta[i] = rng.normal();
        // shape 1: every third coupling is zero, splitting the matrix.
        if (shape == 1 && i % 3 == 0) beta[i] = 0;
      }
      const Vector all = tridiagonal_eigenvalues(alpha, beta);
      const Real top = tridiagonal_eigenvalue(alpha.span(), beta.span(), 0);
      EXPECT_EQ(hex_bits(top), hex_bits(all[0]))
          << "k " << k << " shape " << shape;
    }
  }
}

TEST(TridiagonalEigenvalues, Validation) {
  EXPECT_THROW(tridiagonal_eigenvalues(Vector{}, Vector{}), InvalidArgument);
  EXPECT_THROW(tridiagonal_eigenvalues(Vector{1, 2}, Vector{1, 2}),
               InvalidArgument);
  const Vector alpha{1, 2};
  const Vector beta{1};
  EXPECT_THROW(tridiagonal_eigenvalue(alpha.span(), beta.span(), 2),
               InvalidArgument);
}

TEST(Lanczos, MatchesJacobiOnRandomPsd) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Matrix a = random_psd(20, seed);
    const Real exact = reference_jacobi_eig(a).eigenvalues[0];
    const LanczosResult r = lanczos_lambda_max(a);
    EXPECT_TRUE(r.converged) << "seed " << seed;
    EXPECT_NEAR(r.lambda_max, exact, 1e-7 * exact) << "seed " << seed;
  }
}

TEST(Lanczos, HandlesIndefiniteMatrices) {
  const Matrix a = random_symmetric(15, 77);
  const Real exact = lambda_max_exact(a);
  const LanczosResult r = lanczos_lambda_max(a);
  EXPECT_NEAR(r.lambda_max, exact, 1e-6 * std::max(std::abs(exact), 1.0));
}

TEST(Lanczos, FewerMatvecsThanPowerIterationOnFlatSpectrum) {
  // Flat spectrum: lambda = 1 + i/1000 -- power iteration crawls, Lanczos
  // should converge within a small Krylov space.
  const Index m = 60;
  Vector d(m);
  for (Index i = 0; i < m; ++i) {
    d[i] = 1 + static_cast<Real>(i) / 1000;
  }
  const Matrix a = Matrix::diagonal(d);
  LanczosOptions options;
  options.tol = 1e-8;
  const LanczosResult lz = lanczos_lambda_max(a, options);
  EXPECT_TRUE(lz.converged);
  EXPECT_NEAR(lz.lambda_max, d[m - 1], 1e-6);

  PowerOptions p_options;
  p_options.tol = 1e-8;
  p_options.max_iterations = lz.matvecs;  // same matvec budget
  const PowerResult pw = power_iteration(a, p_options);
  // With the same budget, power iteration is further from the answer.
  EXPECT_LE(std::abs(lz.lambda_max - d[m - 1]),
            std::abs(pw.lambda_max - d[m - 1]) + 1e-12);
}

TEST(Lanczos, OperatorFormMatchesMatrixForm) {
  const Matrix a = random_psd(10, 3);
  const SymmetricOp op = [&a](const Vector& x, Vector& y) { matvec(a, x, y); };
  const LanczosResult r1 = lanczos_lambda_max(op, 10);
  const LanczosResult r2 = lanczos_lambda_max(a);
  EXPECT_NEAR(r1.lambda_max, r2.lambda_max, 1e-9);
}

TEST(Lanczos, ResidualCertifiesUpperBound) {
  // For PSD operators, lambda_max_true <= ritz + residual.
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    const Matrix a = random_psd(16, seed);
    LanczosOptions options;
    options.max_dim = 6;  // deliberately under-resolved
    options.tol = 0;      // never report convergence
    const LanczosResult r = lanczos_lambda_max(a, options);
    const Real exact = lambda_max_exact(a);
    EXPECT_LE(exact, r.lambda_max + r.residual + 1e-9) << "seed " << seed;
    EXPECT_GE(exact, r.lambda_max - 1e-9) << "seed " << seed;
  }
}

TEST(Lanczos, OneDimensional) {
  Matrix a(1, 1);
  a(0, 0) = 4.2;
  const LanczosResult r = lanczos_lambda_max(a);
  EXPECT_NEAR(r.lambda_max, 4.2, 1e-12);
}

TEST(Lanczos, ZeroOperator) {
  const Matrix a(5, 5);
  const LanczosResult r = lanczos_lambda_max(a);
  EXPECT_NEAR(r.lambda_max, 0.0, 1e-12);
}

TEST(Lanczos, GoldenBits) {
  // Bit patterns of lambda_max and residual plus the matvec count, pinned
  // so any change to the certificate's arithmetic is deliberate (x86-64
  // values: the baseline ISA there has no fused multiply-add to contract
  // into). Rank 5 converges after 6 matvecs; the full-rank matrix
  // exhausts max_dim.
  const LanczosResult early = lanczos_lambda_max(random_psd_rank(64, 5, 4));
  EXPECT_TRUE(early.converged);
  EXPECT_EQ(hex_bits(early.lambda_max), "3ff67906879fbb12");
  EXPECT_EQ(hex_bits(early.residual), "3d71ad3d02b67c0e");
  EXPECT_EQ(early.matvecs, 6);

  LanczosOptions options;
  options.max_dim = 12;
  options.tol = 0;
  const LanczosResult full = lanczos_lambda_max(random_psd(40, 11), options);
  EXPECT_FALSE(full.converged);
  EXPECT_EQ(hex_bits(full.lambda_max), "400aeb5d0df0152e");
  EXPECT_EQ(hex_bits(full.residual), "3fe2e44e91fe6097");
  EXPECT_EQ(full.matvecs, 12);
}

TEST(Lanczos, BitwiseAcrossThreadCounts) {
  // Above the parallel grain the inner products split across the pool;
  // their fixed-chunk reductions must not depend on its width.
  const Index n = 4096;
  Vector d(n);
  rand::Rng rng(99);
  for (Index i = 0; i < n; ++i) d[i] = rng.uniform();
  const SymmetricOp op = [&d](const Vector& x, Vector& y) {
    for (Index i = 0; i < x.size(); ++i) y[i] = d[i] * x[i];
  };
  LanczosOptions options;
  options.tol = 0;
  const int before = par::num_threads();
  std::string reference;
  for (const int threads : {1, 2, 4}) {
    par::set_num_threads(threads);
    const LanczosResult r = lanczos_lambda_max(op, n, options);
    const std::string got = hex_bits(r.lambda_max) + hex_bits(r.residual);
    if (reference.empty()) reference = got;
    EXPECT_EQ(got, reference) << threads << " threads";
    EXPECT_EQ(r.matvecs, 64);
  }
  par::set_num_threads(before);
}

TEST(Lanczos, Validation) {
  const SymmetricOp op = [](const Vector&, Vector&) {};
  EXPECT_THROW(lanczos_lambda_max(op, 0), InvalidArgument);
  LanczosOptions bad;
  bad.max_dim = 0;
  EXPECT_THROW(lanczos_lambda_max(op, 3, bad), InvalidArgument);
}

}  // namespace
}  // namespace psdp::linalg
