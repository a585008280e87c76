// Tests for approxPSDP (Theorem 1.1): the binary-search reduction, bracket
// validity, and end-to-end covering optimization.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "apps/graph.hpp"
#include "core/certificates.hpp"
#include "core/optimize.hpp"
#include "linalg/eig.hpp"
#include "test_helpers.hpp"

namespace psdp::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Diagonal instance with known OPT = sum_i 1/d_i (independent axes).
PackingInstance axes_instance(const std::vector<Real>& d) {
  const Index m = static_cast<Index>(d.size());
  std::vector<Matrix> constraints;
  for (Index i = 0; i < m; ++i) {
    Matrix a(m, m);
    a(i, i) = d[static_cast<std::size_t>(i)];
    constraints.push_back(std::move(a));
  }
  return PackingInstance(std::move(constraints));
}

TEST(ApproxPacking, BracketsKnownOptimumOnAxesInstance) {
  const std::vector<Real> d = {2.0, 4.0, 0.5};
  const Real opt = 1 / 2.0 + 1 / 4.0 + 1 / 0.5;  // 2.75
  OptimizeOptions options;
  options.eps = 0.15;
  const PackingOptimum r = approx_packing(axes_instance(d), options);
  EXPECT_LE(r.lower, opt * (1 + 1e-9));
  EXPECT_GE(r.upper, opt * (1 - 1e-9));
  EXPECT_LE(r.upper / r.lower, 1 + options.eps + 0.01);
}

TEST(ApproxPacking, ExtremeTraceInstanceKeepsBracketFinite) {
  // Regression for the bracket-search midpoint: with min_i Tr A_i ~ 1e-300
  // the initial bracket endpoints sit near 1e300, so the old
  // sqrt(lower * upper) midpoint overflowed the product to inf (and the
  // mirrored-magnitude instance underflowed it to 0) even though the
  // midpoint itself -- and every probe instance scaled by it -- is
  // perfectly representable. sqrt(lower) * sqrt(upper) is overflow-free.
  const std::vector<Real> d = {2.0, 4.0, 0.5};
  const Real base_opt = 1 / 2.0 + 1 / 4.0 + 1 / 0.5;  // 2.75
  OptimizeOptions options;
  options.eps = 0.15;
  {
    // Traces ~1e-300: bracket endpoints ~1e300, product overflows.
    const PackingInstance tiny = axes_instance(d).scaled(1e-300);
    const Real opt = base_opt * 1e300;  // OPT(s A) = OPT(A) / s
    const PackingOptimum r = approx_packing(tiny, options);
    ASSERT_TRUE(std::isfinite(r.lower));
    ASSERT_TRUE(std::isfinite(r.upper));
    EXPECT_LE(r.lower, opt * (1 + 1e-9));
    EXPECT_GE(r.upper, opt * (1 - 1e-9));
    EXPECT_LE(r.upper / r.lower, 1 + options.eps + 0.01);
  }
  {
    // Traces ~1e300: bracket endpoints ~1e-300, product underflows to 0.
    const PackingInstance huge = axes_instance(d).scaled(1e300);
    const Real opt = base_opt * 1e-300;
    const PackingOptimum r = approx_packing(huge, options);
    ASSERT_GT(r.lower, 0);
    ASSERT_TRUE(std::isfinite(r.upper));
    EXPECT_LE(r.lower, opt * (1 + 1e-9));
    EXPECT_GE(r.upper, opt * (1 - 1e-9));
    EXPECT_LE(r.upper / r.lower, 1 + options.eps + 0.01);
  }
}

TEST(ApproxPacking, BestXIsExactlyFeasible) {
  const PackingInstance inst = axes_instance({1.0, 3.0});
  OptimizeOptions options;
  options.eps = 0.2;
  const PackingOptimum r = approx_packing(inst, options);
  const DualCheck check = check_dual(inst, r.best_x, 1e-9);
  EXPECT_TRUE(check.feasible) << "lambda_max=" << check.lambda_max;
  EXPECT_NEAR(check.value, r.lower, 1e-9 * (1 + r.lower));
}

TEST(ApproxPacking, IdenticalConstraintsHaveOptOneOverLambdaMax) {
  // A_i = A for all i: OPT = 1/lambda_max(A).
  const Matrix a = Matrix::diagonal(Vector{0.25, 0.125});
  const PackingInstance inst({a, a, a});
  OptimizeOptions options;
  options.eps = 0.15;
  const PackingOptimum r = approx_packing(inst, options);
  EXPECT_LE(r.lower, 4.0 * (1 + 1e-9));
  EXPECT_GE(r.upper, 4.0 * (1 - 1e-9));
}

TEST(ApproxPacking, Figure1InstanceBracketsItsOptimum) {
  OptimizeOptions options;
  options.eps = 0.2;
  const PackingInstance fig1 = apps::figure1_instance();
  const PackingOptimum r = approx_packing(fig1, options);
  EXPECT_GT(r.lower, 0);
  EXPECT_GE(r.upper, r.lower);
  // Dual feasibility of the witness.
  EXPECT_TRUE(check_dual(fig1, r.best_x, 1e-9).feasible);
  // The caption's arithmetic puts OPT near 2.
  EXPECT_GT(r.upper, 1.5);
  EXPECT_LT(r.lower, 3.0);
}

TEST(ApproxPacking, FactorizedPathBracketsLikeDense) {
  apps::FactorizedOptions gen;
  gen.n = 10;
  gen.m = 8;
  gen.nnz_per_column = 4;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  OptimizeOptions options;
  options.eps = 0.25;
  const PackingOptimum rf = approx_packing(fact, options);
  const PackingOptimum rd = approx_packing(fact.to_dense(), options);
  // Brackets must overlap (both contain OPT).
  EXPECT_LE(rf.lower, rd.upper * (1 + 1e-6));
  EXPECT_LE(rd.lower, rf.upper * (1 + 1e-6));
  // And the factorized dual must verify against the exact checker.
  EXPECT_TRUE(check_dual(fact, rf.best_x, 1e-6).feasible);
}

TEST(ApproxPacking, TightEpsShrinksBracket) {
  const PackingInstance inst = axes_instance({1.0, 2.0, 4.0});
  OptimizeOptions loose;
  loose.eps = 0.5;
  OptimizeOptions tight;
  tight.eps = 0.05;
  const Real loose_ratio =
      approx_packing(inst, loose).upper / approx_packing(inst, loose).lower;
  const PackingOptimum t = approx_packing(inst, tight);
  EXPECT_LE(t.upper / t.lower, loose_ratio + 1e-9);
  // The default probe-eps floor (0.03, see probe_decision_options) bounds
  // how far below ~1.03 the certificate gap can go; allow for it.
  EXPECT_LE(t.upper / t.lower, 1 + tight.eps + 0.025);
}

TEST(ApproxPacking, ReportsSearchEffort) {
  const PackingInstance inst = axes_instance({1.0, 2.0});
  OptimizeOptions options;
  options.eps = 0.2;
  const PackingOptimum r = approx_packing(inst, options);
  EXPECT_GT(r.decision_calls, 0);
  EXPECT_GT(r.total_iterations, 0);
  EXPECT_LE(r.decision_calls, options.max_probes + 6);
}

TEST(ApproxPacking, RejectsBadEps) {
  OptimizeOptions options;
  options.eps = 0;
  EXPECT_THROW(approx_packing(axes_instance({1.0}), options), InvalidArgument);
}

// ------------------------------------------------------------------
// Covering optimization (the paper's primal form).
// ------------------------------------------------------------------

TEST(ApproxCovering, BeamformingSolutionIsFeasibleAndBracketed) {
  apps::BeamformingOptions gen;
  gen.users = 6;
  gen.antennas = 4;
  const CoveringProblem problem = apps::beamforming_problem(gen);
  OptimizeOptions options;
  options.eps = 0.2;
  const CoveringOptimum r = approx_covering(problem, options);

  // Feasibility: every user's demand is met (tiny tolerance for roundoff).
  for (Index i = 0; i < problem.size(); ++i) {
    EXPECT_GE(linalg::frobenius_dot(
                  problem.constraints[static_cast<std::size_t>(i)], r.y),
              problem.rhs[i] * (1 - 1e-6))
        << "user " << i;
  }
  // Y is PSD.
  const auto eig = linalg::sym_eig(r.y);
  EXPECT_GE(eig.eigenvalues[gen.antennas - 1], -1e-8);
  // Objective consistency and the duality sandwich.
  EXPECT_NEAR(r.objective, linalg::frobenius_dot(problem.objective, r.y),
              1e-6 * (1 + r.objective));
  EXPECT_LE(r.lower_bound, r.objective * (1 + 1e-9));
  EXPECT_GT(r.lower_bound, 0);
}

TEST(ApproxCovering, ApproximationRatioWithinTarget) {
  apps::BeamformingOptions gen;
  gen.users = 5;
  gen.antennas = 3;
  gen.seed = 77;
  const CoveringProblem problem = apps::beamforming_problem(gen);
  OptimizeOptions options;
  options.eps = 0.15;
  const CoveringOptimum r = approx_covering(problem, options);
  // objective <= (1 + O(eps)) OPT and OPT >= lower_bound.
  EXPECT_LE(r.objective / r.lower_bound, 1 + options.eps + 0.1);
}

TEST(ApproxCovering, GraphEdgeCoveringFeasible) {
  const apps::Graph g = apps::cycle_graph(5);
  const CoveringProblem problem = apps::edge_covering_problem(g);
  OptimizeOptions options;
  options.eps = 0.25;
  const CoveringOptimum r = approx_covering(problem, options);
  for (Index e = 0; e < problem.size(); ++e) {
    EXPECT_GE(linalg::frobenius_dot(
                  problem.constraints[static_cast<std::size_t>(e)], r.y),
              1 - 1e-6)
        << "edge " << e;
  }
}

TEST(ApproxCovering, ScalesWithRhs) {
  // Doubling all demands should roughly double the optimal power.
  apps::BeamformingOptions gen;
  gen.users = 4;
  gen.antennas = 3;
  const CoveringProblem p1 = apps::beamforming_problem(gen);
  gen.demand = 2;
  const CoveringProblem p2 = apps::beamforming_problem(gen);
  OptimizeOptions options;
  options.eps = 0.15;
  const Real v1 = approx_covering(p1, options).objective;
  const Real v2 = approx_covering(p2, options).objective;
  EXPECT_NEAR(v2 / v1, 2.0, 0.4);
}

}  // namespace
}  // namespace psdp::core

namespace psdp::core {
namespace {

TEST(ApproxPacking, DiagonalLpConvergesToAnalyticOptimum) {
  // The positive-LP special case with an exactly-known optimum: the full
  // optimization pipeline must bracket it within (1 + eps)-ish.
  apps::DiagonalLpOptions gen;
  gen.groups = 5;
  gen.per_group = 4;
  const apps::DiagonalLpInstance lp = apps::diagonal_lp(gen);
  OptimizeOptions options;
  options.eps = 0.1;
  const PackingOptimum r = approx_packing(lp.instance, options);
  EXPECT_LE(r.lower, lp.opt * (1 + 1e-9));
  EXPECT_GE(r.upper, lp.opt * (1 - 1e-9));
  EXPECT_LE(r.upper / r.lower, 1 + options.eps + 0.03);
  EXPECT_TRUE(check_dual(lp.instance, r.best_x, 1e-9).feasible);
}

TEST(ApproxPacking, ExpStrideProducesConsistentBrackets) {
  // The lazy-exponential ablation must not break optimization: brackets
  // from stride 1 and stride 8 probes must overlap (both contain OPT).
  const apps::DiagonalLpInstance lp = apps::diagonal_lp({});
  OptimizeOptions plain;
  plain.eps = 0.2;
  OptimizeOptions lazy = plain;
  lazy.decision.exp_stride = 8;
  const PackingOptimum r1 = approx_packing(lp.instance, plain);
  const PackingOptimum r8 = approx_packing(lp.instance, lazy);
  EXPECT_LE(r1.lower, r8.upper * (1 + 1e-9));
  EXPECT_LE(r8.lower, r1.upper * (1 + 1e-9));
  EXPECT_LE(r1.lower, lp.opt * (1 + 1e-9));
  EXPECT_LE(r8.lower, lp.opt * (1 + 1e-9));
}

}  // namespace
}  // namespace psdp::core
