// Tests for the oracle layer: the three PenaltyOracle implementations must
// agree on dots/trace (within the sketched oracle's stated tolerance), the
// measured lambda_max primitive must be certified, and the solver variants
// that newly run on the sketched oracle (bucketed, mixed) must reproduce
// their dense-oracle results.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/generators.hpp"
#include "core/bucketed.hpp"
#include "core/certificates.hpp"
#include "core/mixed.hpp"
#include "core/optimize.hpp"
#include "core/penalty_oracle.hpp"
#include "linalg/eig.hpp"
#include "linalg/taylor.hpp"
#include "rand/rng.hpp"
#include "test_helpers.hpp"

namespace psdp::core {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// A deterministic positive weight vector with heterogeneous entries.
Vector test_weights(Index n, Real scale) {
  Vector x(n);
  for (Index i = 0; i < n; ++i) {
    x[i] = scale * (1 + static_cast<Real>(i % 3)) /
           static_cast<Real>(n);
  }
  return x;
}

// ---------------------------------------------------------------------------
// Dense vs sketched: at tight dot_eps on a small instance the sketch is the
// exact identity, so the only error left is the Taylor truncation, which
// Lemma 4.2 bounds by the oracle's advertised noise.
// ---------------------------------------------------------------------------

class OracleEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleEquivalence, DenseAndSketchedAgreeWithinNoiseBound) {
  const std::uint64_t seed = GetParam();
  apps::FactorizedOptions gen;
  gen.n = 8;
  gen.m = 10;
  gen.nnz_per_column = 4;
  gen.seed = seed;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  const PackingInstance dense = fact.to_dense();

  DenseEigOracle dense_oracle(dense);
  SketchedOracleOptions sketch_options;
  sketch_options.eps = 0.2;
  sketch_options.dot_eps = 0.02;  // tight: noise_bound = 0.02
  SketchedTaylorOracle sketched_oracle(fact, sketch_options);
  EXPECT_NEAR(sketched_oracle.noise_bound(), 0.02, 1e-15);

  const Vector x = test_weights(fact.size(), 0.05);
  PenaltyBatch dense_batch;
  PenaltyBatch sketched_batch;
  dense_oracle.compute(x, 1, dense_batch);
  sketched_oracle.compute(x, 1, sketched_batch);

  const Real tol = sketched_oracle.noise_bound();
  EXPECT_NEAR(sketched_batch.trace / dense_batch.trace, 1, tol);
  ASSERT_EQ(sketched_batch.dots.size(), dense_batch.dots.size());
  for (Index i = 0; i < dense_batch.dots.size(); ++i) {
    EXPECT_NEAR(sketched_batch.dots[i] / dense_batch.dots[i], 1, tol)
        << "constraint " << i;
  }
  // The dense oracle exposes its weight matrix; the sketched one never
  // forms it.
  ASSERT_NE(dense_batch.weight, nullptr);
  EXPECT_EQ(sketched_batch.weight, nullptr);
  EXPECT_NEAR(linalg::trace(*dense_batch.weight), dense_batch.trace, 1e-9);
}

TEST_P(OracleEquivalence, ScalarMatchesDenseOnDiagonalEmbedding) {
  const std::uint64_t seed = GetParam();
  const PackingLp lp = apps::random_packing_lp(
      {.rows = 6, .cols = 10, .seed = seed});
  const PackingInstance sdp = lp.to_diagonal_sdp();

  ScalarSoftmaxOracle scalar_oracle(lp.matrix());
  DenseEigOracle dense_oracle(sdp);
  ASSERT_EQ(scalar_oracle.size(), dense_oracle.size());
  for (Index i = 0; i < scalar_oracle.size(); ++i) {
    EXPECT_NEAR(scalar_oracle.constraint_trace(i),
                dense_oracle.constraint_trace(i), 1e-12);
  }

  const Vector x = test_weights(lp.size(), 0.4);
  PenaltyBatch scalar_batch;
  PenaltyBatch dense_batch;
  scalar_oracle.compute(x, 1, scalar_batch);
  dense_oracle.compute(x, 1, dense_batch);

  // The scalar weights are shifted by max_j Psi_j, so compare the
  // shift-invariant normalized penalties dots_i / trace.
  for (Index i = 0; i < lp.size(); ++i) {
    EXPECT_NEAR(scalar_batch.dots[i] / scalar_batch.trace,
                dense_batch.dots[i] / dense_batch.trace, 1e-8)
        << "variable " << i;
  }
  ASSERT_NE(scalar_batch.weight_vec, nullptr);
  EXPECT_EQ(scalar_batch.weight, nullptr);

  // The measured lambda_max primitive agrees too (exact on both sides).
  EXPECT_NEAR(scalar_oracle.lambda_max(x), dense_oracle.lambda_max(x),
              1e-8 * std::max<Real>(1, dense_oracle.lambda_max(x)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleEquivalence,
                         ::testing::Values(3u, 17u, 29u));

// ---------------------------------------------------------------------------
// Oracle internals: incremental Psi sync and certified lambda_max.
// ---------------------------------------------------------------------------

TEST(DenseEigOracle, IncrementalSyncMatchesFreshOracle) {
  const PackingInstance instance =
      apps::random_ellipses({.n = 10, .m = 6, .rank = 2, .seed = 7});
  DenseEigOracle incremental(instance);
  PenaltyBatch batch;

  // Walk the oracle through three weight vectors, mutating different
  // coordinate subsets, then compare against a fresh oracle at the final x.
  Vector x = test_weights(instance.size(), 0.1);
  incremental.compute(x, 1, batch);
  for (Index i = 0; i < x.size(); i += 2) x[i] *= 1.5;
  incremental.compute(x, 2, batch);
  for (Index i = 1; i < x.size(); i += 2) x[i] *= 0.25;
  incremental.compute(x, 3, batch);

  DenseEigOracle fresh(instance);
  PenaltyBatch fresh_batch;
  fresh.compute(x, 1, fresh_batch);

  EXPECT_NEAR(batch.trace, fresh_batch.trace,
              1e-10 * std::abs(fresh_batch.trace));
  for (Index i = 0; i < instance.size(); ++i) {
    EXPECT_NEAR(batch.dots[i], fresh_batch.dots[i],
                1e-10 * std::max<Real>(1, std::abs(fresh_batch.dots[i])));
  }
}

TEST(SketchedTaylorOracle, LambdaMaxIsACertifiedUpperBound) {
  apps::FactorizedOptions gen;
  gen.n = 12;
  gen.m = 16;
  gen.seed = 11;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  SketchedOracleOptions options;
  options.eps = 0.2;
  SketchedTaylorOracle oracle(fact, options);

  const Vector x = test_weights(fact.size(), 0.3);
  const Real bound = oracle.lambda_max(x);

  const PackingInstance dense = fact.to_dense();
  DenseEigOracle dense_oracle(dense);
  const Real exact = dense_oracle.lambda_max(x);
  EXPECT_GE(bound, exact * (1 - 1e-9));       // never below the truth
  EXPECT_LE(bound, exact * 1.01 + 1e-12);     // and tight (1.1% inflation)
}

// ---------------------------------------------------------------------------
// Bucketed and mixed on the sketched oracle: the new nearly-linear paths
// reproduce the dense-oracle results and return measured certificates.
// ---------------------------------------------------------------------------

TEST(BucketedFactorized, AgreesWithDenseOracleOnOutcome) {
  apps::FactorizedOptions gen;
  gen.n = 10;
  gen.m = 8;
  gen.nnz_per_column = 4;
  gen.seed = 5;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  const PackingInstance dense = fact.to_dense();
  for (Real scale : {0.02, 50.0}) {
    FactorizedBucketedOptions fact_options;
    fact_options.eps = 0.2;
    const BucketedResult rf =
        decision_bucketed(fact.scaled(scale), fact_options);
    BucketedOptions dense_options;
    dense_options.eps = 0.2;
    const BucketedResult rd =
        decision_bucketed(dense.scaled(scale), dense_options);
    EXPECT_EQ(rf.outcome, rd.outcome) << "scale " << scale;
  }
}

TEST(BucketedFactorized, DualCertificateVerifiesExactly) {
  apps::FactorizedOptions gen;
  gen.n = 12;
  gen.m = 10;
  gen.seed = 13;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  const FactorizedPackingInstance scaled = fact.scaled(0.02);
  FactorizedBucketedOptions options;
  options.eps = 0.15;
  const BucketedResult r = decision_bucketed(scaled, options);
  ASSERT_EQ(r.outcome, DecisionOutcome::kDual);
  // The dual is rescaled by the certified Lanczos upper bound: exactly
  // feasible against the instance the solver ran on.
  const DualCheck check = check_dual(scaled, r.dual_x, 1e-6);
  EXPECT_TRUE(check.feasible) << "lambda_max=" << check.lambda_max;
  // primal_y stays empty on the factorized path.
  EXPECT_EQ(r.primal_y.rows(), 0);
}

TEST(BucketedFactorized, BoostsLikeTheDensePath) {
  // Heterogeneous slack: the boosted factorized run must also beat the
  // plain factorized run (same acceleration story as the dense variant).
  apps::FactorizedOptions gen;
  gen.n = 16;
  gen.m = 12;
  gen.seed = 19;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  const FactorizedPackingInstance scaled = fact.scaled(0.01);
  DecisionOptions plain_options;
  plain_options.eps = 0.15;
  const DecisionResult plain = decision_factorized(scaled, plain_options);
  FactorizedBucketedOptions options;
  options.eps = 0.15;
  options.boost_cap = 16;
  const BucketedResult boosted = decision_bucketed(scaled, options);
  EXPECT_EQ(plain.outcome, boosted.outcome);
  EXPECT_LE(boosted.iterations, plain.iterations);
  EXPECT_GE(boosted.mean_boost, 1.0);
}

/// A planted-feasible factorized mixed instance: loosely packed (scale
/// 0.05) with uniformly reachable covering coordinates.
MixedFactorizedInstance planted_mixed_factorized(std::uint64_t seed) {
  MixedFactorizedInstance instance;
  apps::FactorizedOptions gen;
  gen.n = 12;
  gen.m = 10;
  gen.nnz_per_column = 4;
  gen.seed = seed;
  instance.packing = apps::random_factorized(gen).scaled(0.05);
  rand::Rng rng(seed * 7 + 1);
  for (Index i = 0; i < instance.packing.size(); ++i) {
    Vector d(4);
    for (Index j = 0; j < d.size(); ++j) d[j] = rng.uniform(0.5, 1.5);
    instance.covering.push_back(std::move(d));
  }
  return instance;
}

TEST(MixedFactorized, RecoversPlantedFeasibleInstance) {
  const MixedFactorizedInstance instance = planted_mixed_factorized(2);
  MixedFactorizedOptions options;
  options.eps = 0.2;
  const MixedResult r = solve_mixed(instance, options);
  ASSERT_EQ(r.outcome, MixedOutcome::kFeasible);
  // The loop must have reached the cover target, not exhausted its budget
  // (the loose packing scale would rescale even a failed run into nominal
  // feasibility, so the iteration count is the falsifiable part).
  EXPECT_LT(r.iterations,
            4 * algorithm_constants(instance.size(), options.eps).r_limit);
  // Packing side: the certified-upper-bound rescale keeps x feasible.
  const DualCheck pack = check_dual(instance.packing, r.x, 1e-6);
  EXPECT_TRUE(pack.feasible) << "lambda_max=" << pack.lambda_max;
  // Covering side: recompute coverage from scratch; min_coverage is the
  // measured value the outcome was decided on.
  Vector coverage(instance.covering_dim());
  for (Index i = 0; i < instance.size(); ++i) {
    coverage.add_scaled(instance.covering[static_cast<std::size_t>(i)],
                        r.x[i]);
  }
  Real mc = coverage[0];
  for (Index j = 1; j < coverage.size(); ++j) mc = std::min(mc, coverage[j]);
  EXPECT_NEAR(r.min_coverage, mc, 1e-9);
  EXPECT_GE(r.min_coverage, 1 - options.eps);
}

TEST(MixedFactorized, AgreesWithDenseOracleMixed) {
  // The same instance through both oracles: the dense solve densifies the
  // packing factors, the factorized one never forms an m x m matrix; both
  // must reach the same (measured) conclusion.
  const MixedFactorizedInstance instance = planted_mixed_factorized(9);
  MixedInstance dense;
  dense.packing = instance.packing.to_dense();
  dense.covering = instance.covering;

  MixedFactorizedOptions fact_options;
  fact_options.eps = 0.2;
  const MixedResult rf = solve_mixed(instance, fact_options);
  MixedOptions dense_options;
  dense_options.eps = 0.2;
  const MixedResult rd = solve_mixed(dense, dense_options);

  EXPECT_EQ(rf.outcome, rd.outcome);
  // Both coverage values are measured post-rescale; the factorized rescale
  // divides by a <= 1.1%-inflated bound, so they track closely.
  EXPECT_NEAR(rf.min_coverage, rd.min_coverage,
              0.05 * std::max<Real>(1, rd.min_coverage));
}

TEST(MixedFactorized, ValidatesStructure) {
  MixedFactorizedInstance instance = planted_mixed_factorized(4);
  EXPECT_NO_THROW(instance.validate());
  MixedFactorizedInstance bad = instance;
  bad.covering.pop_back();
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The optimizer's oracle-config routing: phased/bucketed probes honor the
// same dot_block_size / dot_options as decision probes.
// ---------------------------------------------------------------------------

class ProbeSolverSweep : public ::testing::TestWithParam<ProbeSolver> {};

TEST_P(ProbeSolverSweep, FactorizedSearchBracketsWithEveryProbeSolver) {
  apps::FactorizedOptions gen;
  gen.n = 10;
  gen.m = 8;
  gen.nnz_per_column = 4;
  gen.seed = 23;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  OptimizeOptions options;
  options.eps = 0.2;
  options.decision_eps = 0.15;  // keep probes cheap; bracket stays correct
  options.probe_solver = GetParam();
  options.dot_block_size = 4;  // routed through the shared oracle config
  const PackingOptimum opt = approx_packing(fact, options);
  EXPECT_GT(opt.lower, 0);
  EXPECT_LE(opt.lower, opt.upper * (1 + 1e-12));
  // best_x certifies `lower` and is exactly feasible.
  const DualCheck check = check_dual(fact, opt.best_x, 1e-6);
  EXPECT_TRUE(check.feasible) << "lambda_max=" << check.lambda_max;
  EXPECT_NEAR(check.value, opt.lower, 1e-6 * std::max<Real>(1, opt.lower));
}

INSTANTIATE_TEST_SUITE_P(Solvers, ProbeSolverSweep,
                         ::testing::Values(ProbeSolver::kDecision,
                                           ProbeSolver::kPhased,
                                           ProbeSolver::kBucketed));

// ---------------------------------------------------------------------------
// The blocked oracle (fused dots, the one-pass kernel every solver runs)
// against the block_size = 1 reference oracle: same penalties, to rounding.
// ---------------------------------------------------------------------------

TEST(SketchedTaylorOracle, FusedDotsMatchTwoPassLayout) {
  apps::FactorizedOptions gen;
  gen.n = 12;
  gen.m = 32;
  gen.seed = 31;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  const Vector x = test_weights(fact.size(), 0.1);

  SketchedOracleOptions fused_options;
  fused_options.eps = 0.25;
  fused_options.dot_options.block_size = 8;
  SketchedTaylorOracle fused(fact, fused_options);

  SketchedOracleOptions reference_options = fused_options;
  reference_options.dot_options.block_size = 1;
  SketchedTaylorOracle reference(fact, reference_options);

  PenaltyBatch fused_batch;
  PenaltyBatch reference_batch;
  fused.compute(x, 5, fused_batch);
  reference.compute(x, 5, reference_batch);

  EXPECT_NEAR(fused_batch.trace, reference_batch.trace,
              1e-10 * std::abs(reference_batch.trace));
  for (Index i = 0; i < fact.size(); ++i) {
    EXPECT_NEAR(fused_batch.dots[i], reference_batch.dots[i],
                1e-10 * std::max<Real>(1, std::abs(reference_batch.dots[i])));
  }
}

// ---------------------------------------------------------------------------
// Incremental oracle state: the diffed Tr[Psi] and the tracked lambda_max
// bound must match from-scratch recomputation over long weight trajectories,
// including coordinates that shrink and hit exactly zero.
// ---------------------------------------------------------------------------

TEST(SketchedTaylorOracle, IncrementalBoundsMatchFromScratchOver50Rounds) {
  apps::FactorizedOptions gen;
  gen.n = 14;
  gen.m = 20;
  gen.nnz_per_column = 4;
  gen.seed = 37;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  SketchedOracleOptions options;
  options.eps = 0.25;
  SketchedTaylorOracle oracle(fact, options);

  rand::Rng rng(91);
  Vector x(fact.size(), 0.01);
  PenaltyBatch batch;
  for (int round = 1; round <= 60; ++round) {
    // Mutate a changing subset: grow some coordinates, shrink others, and
    // periodically force exact zeros (the hard case for diff updates).
    for (Index i = 0; i < x.size(); ++i) {
      const auto move = rng.uniform_index(4);
      if (move == 0) x[i] *= 1.25;
      else if (move == 1) x[i] *= 0.5;
      else if (move == 2 && round % 7 == 0) x[i] = 0;
      // move == 3: leave unchanged (delta == 0 path)
    }
    oracle.compute(x, static_cast<std::uint64_t>(round), batch);

    // From-scratch recomputation of both tracked sums.
    Real trace = 0;
    Real lambda_bound = 0;
    for (Index i = 0; i < fact.size(); ++i) {
      trace += x[i] * oracle.constraint_trace(i);
      lambda_bound += x[i] * oracle.constraint_lambda_max(i);
    }
    const Real trace_tol = 1e-12 * std::max<Real>(1, trace);
    EXPECT_NEAR(oracle.tracked_trace(), trace, trace_tol)
        << "round " << round;
    EXPECT_NEAR(oracle.tracked_lambda_bound(), lambda_bound,
                1e-12 * std::max<Real>(1, lambda_bound))
        << "round " << round;
    // The clamp pair: per-constraint lambda_max bounds never exceed the
    // constraint traces, so the tracked bound never exceeds Tr[Psi].
    EXPECT_LE(oracle.tracked_lambda_bound(),
              oracle.tracked_trace() + trace_tol)
        << "round " << round;
  }
}

TEST(SketchedTaylorOracle, TrackedLambdaBoundIsSound) {
  // sum_i x_i lambda_max(A_i) must upper-bound lambda_max(Psi) exactly (up
  // to the advertised hair of eigensolver inflation).
  apps::FactorizedOptions gen;
  gen.n = 10;
  gen.m = 12;
  gen.seed = 53;
  const FactorizedPackingInstance fact = apps::random_factorized(gen);
  SketchedOracleOptions options;
  options.eps = 0.2;
  SketchedTaylorOracle oracle(fact, options);

  const Vector x = test_weights(fact.size(), 0.3);
  PenaltyBatch batch;
  oracle.compute(x, 1, batch);

  const PackingInstance dense_instance = fact.to_dense();
  DenseEigOracle dense(dense_instance);
  const Real exact = dense.lambda_max(x);
  EXPECT_GE(oracle.tracked_lambda_bound(), exact * (1 - 1e-9));
  // And each per-constraint bound is a genuine lambda_max upper bound.
  for (Index i = 0; i < fact.size(); ++i) {
    const Real exact_i = linalg::lambda_max_exact(fact[i].to_dense());
    EXPECT_GE(oracle.constraint_lambda_max(i), exact_i * (1 - 1e-9))
        << "constraint " << i;
    EXPECT_LE(oracle.constraint_lambda_max(i),
              oracle.constraint_trace(i) * (1 + 1e-12)) << "constraint " << i;
  }
}

/// Adversarial spiked-spectrum factor: one huge eigenvalue next to many
/// small ones, so Tr[A] >> lambda_max(A) and the trace-only kappa wildly
/// overshoots the Taylor degree.
FactorizedPackingInstance spiked_instance(Index m, Index spikes) {
  std::vector<sparse::FactorizedPsd> items;
  for (Index s = 0; s < spikes; ++s) {
    std::vector<sparse::Triplet> triplets;
    // Column 0: a spike (eigenvalue 4) on coordinate s; columns 1..m-1:
    // unit tail entries on the remaining coordinates (eigenvalue 1 each),
    // so Tr[A] = 4 + (m - 1) while lambda_max(A) = 4 -- the trace-only
    // kappa overshoots the Taylor degree by ~m/4.
    triplets.push_back({s, 0, 2.0});
    for (Index c = 1; c < m; ++c) {
      triplets.push_back({(s + c) % m, c, 1.0});
    }
    items.emplace_back(sparse::Csr::from_triplets(m, m, std::move(triplets)));
  }
  return FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)));
}

TEST(SketchedTaylorOracle, SpikedSpectrumTightensTaylorDegreeWithClamp) {
  const FactorizedPackingInstance fact = spiked_instance(24, 6);
  SketchedOracleOptions options;
  options.eps = 0.25;  // kappa_cap = 0: the bucketed/mixed configuration
  SketchedTaylorOracle oracle(fact, options);

  const Vector x(fact.size(), 0.35);
  PenaltyBatch batch;
  oracle.compute(x, 1, batch);

  // Spiked spectrum: the tracked lambda bound is far below the trace.
  const Real trace = oracle.tracked_trace();
  const Real lam = oracle.tracked_lambda_bound();
  EXPECT_LT(lam, 0.75 * trace);
  // The degree the oracle actually used comes from the clamped
  // kappa = min(trace, lam); replicate bigDotExp's internal split
  // (eps_taylor = dot_eps / 4, kappa halved for B = Phi/2).
  const Real dot_eps = options.eps / 2;
  const Index degree_tracked = linalg::taylor_exp_degree(
      std::max<Real>(1, std::min(trace, lam)) / 2, dot_eps / 4);
  const Index degree_trace_only = linalg::taylor_exp_degree(
      std::max<Real>(1, trace) / 2, dot_eps / 4);
  EXPECT_EQ(oracle.last_taylor_degree(), degree_tracked);
  // Tighter than the kappa = Tr[Psi]-only bound, and never looser.
  EXPECT_LT(degree_tracked, degree_trace_only);
  EXPECT_LE(oracle.last_taylor_degree(), degree_trace_only);

  // Accuracy survives the tightening: the estimates still match the dense
  // oracle within the advertised noise bound.
  const PackingInstance dense_instance = fact.to_dense();
  DenseEigOracle dense(dense_instance);
  PenaltyBatch dense_batch;
  dense.compute(x, 1, dense_batch);
  EXPECT_NEAR(batch.trace / dense_batch.trace, 1, oracle.noise_bound());
  for (Index i = 0; i < fact.size(); ++i) {
    EXPECT_NEAR(batch.dots[i] / dense_batch.dots[i], 1, oracle.noise_bound())
        << "constraint " << i;
  }
}

TEST(BucketedFactorized, SpikedSpectrumRunMatchesDenseOutcome) {
  // End-to-end: bucketed_factorized on the adversarial instance (where the
  // tracked bound does real work) still reproduces the dense outcome.
  const FactorizedPackingInstance fact = spiked_instance(16, 4);
  const PackingInstance dense = fact.to_dense();
  for (Real scale : {0.05, 20.0}) {
    FactorizedBucketedOptions fact_options;
    fact_options.eps = 0.2;
    const BucketedResult rf =
        decision_bucketed(fact.scaled(scale), fact_options);
    BucketedOptions dense_options;
    dense_options.eps = 0.2;
    const BucketedResult rd =
        decision_bucketed(dense.scaled(scale), dense_options);
    EXPECT_EQ(rf.outcome, rd.outcome) << "scale " << scale;
  }
}

}  // namespace
}  // namespace psdp::core
