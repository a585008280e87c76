#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "apps/graph.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/eig.hpp"
#include "linalg/matfunc.hpp"
#include "test_helpers.hpp"

namespace psdp::apps {
namespace {

using core::PackingInstance;
using linalg::Matrix;
using linalg::Vector;

TEST(Figure1, MatricesMatchTheCaption) {
  const PackingInstance fig1 = figure1_instance();
  ASSERT_EQ(fig1.size(), 3);
  ASSERT_EQ(fig1.dim(), 2);
  // A1, A2 axis-aligned.
  EXPECT_EQ(fig1[0](0, 1), 0);
  EXPECT_EQ(fig1[1](0, 1), 0);
  // A3 rotated: off-diagonal nonzero, eigenvalues 3/4 and 1/8.
  EXPECT_NE(fig1[2](0, 1), 0);
  const auto eig = linalg::sym_eig(fig1[2]);
  EXPECT_NEAR(eig.eigenvalues[0], 0.375, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 0.1, 1e-12);
  fig1.validate(true);
}

TEST(Figure1, CaptionArithmetic) {
  const PackingInstance fig1 = figure1_instance();
  // A1 + A2 = 1.25 I: slightly over the unit ball, as drawn.
  const Matrix sum12 = linalg::add(fig1[0], fig1[1]);
  EXPECT_NEAR(linalg::lambda_max_exact(sum12), 1.25, 1e-12);
  // A1/2 + A2/2 + A3 stays essentially inside the ball.
  Matrix combo = fig1[0];
  combo.scale(0.5);
  combo.add_scaled(fig1[1], 0.5);
  combo.add_scaled(fig1[2], 1.0);
  EXPECT_NEAR(linalg::lambda_max_exact(combo), 1.0, 1e-9);  // exactly tight
}

TEST(RandomEllipses, ProducesValidPsdInstance) {
  EllipseOptions options;
  options.n = 10;
  options.m = 6;
  options.rank = 2;
  const PackingInstance inst = random_ellipses(options);
  EXPECT_EQ(inst.size(), 10);
  EXPECT_EQ(inst.dim(), 6);
  inst.validate(true);
}

TEST(RandomEllipses, WidthBoundedByScaleTimesRank) {
  EllipseOptions options;
  options.n = 8;
  options.m = 5;
  options.rank = 3;
  options.scale_max = 2.0;
  const PackingInstance inst = random_ellipses(options);
  for (Index i = 0; i < inst.size(); ++i) {
    EXPECT_LE(linalg::lambda_max_exact(inst[i]), 3 * 2.0 + 1e-9);
  }
}

TEST(RandomEllipses, DeterministicForSeed) {
  EllipseOptions options;
  options.seed = 123;
  const PackingInstance a = random_ellipses(options);
  const PackingInstance b = random_ellipses(options);
  EXPECT_MATRIX_NEAR(a[0], b[0], 0);
}

TEST(RandomEllipses, ValidatesParameters) {
  EllipseOptions bad;
  bad.rank = 100;
  bad.m = 4;
  EXPECT_THROW(random_ellipses(bad), InvalidArgument);
  bad = EllipseOptions{};
  bad.scale_min = -1;
  EXPECT_THROW(random_ellipses(bad), InvalidArgument);
}

TEST(NeedleWidth, InstanceWidthTracksParameter) {
  for (Real width : {4.0, 64.0, 1024.0}) {
    NeedleOptions options;
    options.width = width;
    const PackingInstance inst = needle_width_family(options);
    // The needle dominates: instance width ~ `width`.
    Real max_lambda = 0;
    for (Index i = 0; i < inst.size(); ++i) {
      max_lambda = std::max(max_lambda, linalg::lambda_max_exact(inst[i]));
    }
    EXPECT_NEAR(max_lambda, width, 1e-9 * width);
  }
}

TEST(NeedleWidth, KeepsRequestedConstraintCount) {
  NeedleOptions options;
  options.n = 12;
  const PackingInstance inst = needle_width_family(options);
  EXPECT_EQ(inst.size(), 12);  // n-1 benign + needle
  inst.validate(true);
}

TEST(RandomFactorized, ShapesAndBudget) {
  FactorizedOptions options;
  options.n = 7;
  options.m = 32;
  options.rank = 2;
  options.nnz_per_column = 4;
  const core::FactorizedPackingInstance inst = random_factorized(options);
  EXPECT_EQ(inst.size(), 7);
  EXPECT_EQ(inst.dim(), 32);
  // Duplicate draws can merge: at most rank * nnz_per_column per factor.
  EXPECT_LE(inst.total_nnz(), 7 * 2 * 4);
  EXPECT_GT(inst.total_nnz(), 0);
  for (Index i = 0; i < inst.size(); ++i) {
    EXPECT_GT(inst.constraint_trace(i), 0);
  }
}

TEST(RandomFactorized, DenseMirrorsArePsd) {
  FactorizedOptions options;
  options.n = 5;
  options.m = 6;
  options.nnz_per_column = 3;
  const core::PackingInstance dense = random_factorized(options).to_dense();
  dense.validate(true);
}

TEST(Beamforming, CoveringProblemIsWellFormed) {
  BeamformingOptions options;
  options.users = 5;
  options.antennas = 4;
  const core::CoveringProblem p = beamforming_problem(options);
  p.validate(true);
  EXPECT_EQ(p.size(), 5);
  EXPECT_EQ(p.dim(), 4);
  for (Index i = 0; i < p.size(); ++i) {
    // Rank-one constraints.
    EXPECT_EQ(linalg::rank_psd(p.constraints[static_cast<std::size_t>(i)]), 1);
    EXPECT_EQ(p.rhs[i], options.demand);
  }
}

TEST(Beamforming, FactorizedMatchesNormalizedCovering) {
  BeamformingOptions options;
  options.users = 4;
  options.antennas = 3;
  options.demand = 2.0;
  const core::CoveringProblem p = beamforming_problem(options);
  const core::FactorizedPackingInstance f = beamforming_factorized(options);
  // C = I so B_i = A_i / b_i; the factorized form must match.
  for (Index i = 0; i < f.size(); ++i) {
    Matrix want = p.constraints[static_cast<std::size_t>(i)];
    want.scale(1 / p.rhs[i]);
    EXPECT_MATRIX_NEAR(f[i].to_dense(), want, 1e-10);
  }
}

TEST(Beamforming, SpreadWidensTraceRange) {
  BeamformingOptions uniform;
  uniform.users = 16;
  uniform.spread = 1;
  BeamformingOptions spread = uniform;
  spread.spread = 100;
  auto trace_ratio = [](const core::FactorizedPackingInstance& inst) {
    Real lo = inst.constraint_trace(0), hi = lo;
    for (Index i = 1; i < inst.size(); ++i) {
      lo = std::min(lo, inst.constraint_trace(i));
      hi = std::max(hi, inst.constraint_trace(i));
    }
    return hi / lo;
  };
  EXPECT_GT(trace_ratio(beamforming_factorized(spread)),
            trace_ratio(beamforming_factorized(uniform)));
}

TEST(Graph, CycleGraphLaplacianEigenvalues) {
  const Graph g = cycle_graph(4);
  const Matrix l = laplacian(g);
  // C_4 Laplacian eigenvalues: 0, 2, 2, 4.
  const auto eig = linalg::sym_eig(l);
  EXPECT_NEAR(eig.eigenvalues[0], 4, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[1], 2, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[2], 2, 1e-10);
  EXPECT_NEAR(eig.eigenvalues[3], 0, 1e-10);
}

TEST(Graph, LaplacianIsSumOfEdgeMatrices) {
  const Graph g = random_connected_graph(6, 4, 0.5, 2.0, 3);
  const core::CoveringProblem p = edge_covering_problem(g);
  Matrix sum(6, 6);
  for (const Matrix& l_e : p.constraints) sum.add_scaled(l_e, 1.0);
  EXPECT_MATRIX_NEAR(sum, laplacian(g), 1e-10);
}

TEST(Graph, RandomConnectedGraphIsConnected) {
  // Connectivity <=> lambda_{n-1}(L) > 0 (second smallest eigenvalue).
  const Graph g = random_connected_graph(8, 2, 1.0, 1.0, 9);
  const auto eig = linalg::sym_eig(laplacian(g));
  EXPECT_GT(eig.eigenvalues[6], 1e-9);   // Fiedler value positive
  EXPECT_NEAR(eig.eigenvalues[7], 0, 1e-9);  // one zero eigenvalue
}

TEST(Graph, FactorizedEdgesHaveTwoNonzeros) {
  const Graph g = cycle_graph(5);
  const core::FactorizedPackingInstance f = edge_packing_factorized(g);
  EXPECT_EQ(f.size(), 5);
  for (Index e = 0; e < f.size(); ++e) {
    EXPECT_EQ(f[e].nnz(), 2);
  }
  EXPECT_EQ(f.total_nnz(), 10);  // q = 2|E|
}

TEST(Graph, Validation) {
  EXPECT_THROW(cycle_graph(2), InvalidArgument);
  EXPECT_THROW(random_connected_graph(1, 0), InvalidArgument);
  Graph empty;
  empty.vertices = 3;
  EXPECT_THROW(edge_covering_problem(empty), InvalidArgument);
}

}  // namespace
}  // namespace psdp::apps

namespace psdp::apps {
namespace {

TEST(DiagonalLp, AnalyticOptimumMatchesBruteForce) {
  DiagonalLpOptions options;
  options.groups = 3;
  options.per_group = 2;
  const DiagonalLpInstance lp = diagonal_lp(options);
  EXPECT_EQ(lp.instance.size(), 6);
  EXPECT_EQ(lp.instance.dim(), 3);
  lp.instance.validate(true);
  // Recompute the optimum directly from the matrices: per axis, the best
  // coordinate is the one with the smallest diagonal entry.
  Real opt = 0;
  for (Index g = 0; g < 3; ++g) {
    Real min_d = std::numeric_limits<Real>::infinity();
    for (Index i = 0; i < lp.instance.size(); ++i) {
      const Real d = lp.instance[i](g, g);
      if (d > 0) min_d = std::min(min_d, d);
    }
    opt += 1 / min_d;
  }
  EXPECT_NEAR(lp.opt, opt, 1e-12);
}

TEST(DiagonalLp, EveryConstraintIsAxisAligned) {
  const DiagonalLpInstance lp = diagonal_lp({});
  for (Index i = 0; i < lp.instance.size(); ++i) {
    Index nonzero_axes = 0;
    for (Index g = 0; g < lp.instance.dim(); ++g) {
      if (lp.instance[i](g, g) != 0) ++nonzero_axes;
    }
    EXPECT_EQ(nonzero_axes, 1) << "constraint " << i;
  }
}

TEST(DiagonalLp, Validation) {
  DiagonalLpOptions bad;
  bad.groups = 0;
  EXPECT_THROW(diagonal_lp(bad), InvalidArgument);
  bad = DiagonalLpOptions{};
  bad.d_min = 0;
  EXPECT_THROW(diagonal_lp(bad), InvalidArgument);
}

}  // namespace
}  // namespace psdp::apps
