// Algorithm 3.1 (decisionPSDP): the width-independent parallel solver for
// the eps-decision version of packing positive SDPs.
//
//   Define K = (1 + ln n)/eps, alpha = eps/(K (1+10 eps)), R = 32 ln(n)/(eps alpha)
//   x_i(0) = 1/(n Tr[A_i])
//   while ||x||_1 <= K and t < R:
//     W = exp( sum_i x_i A_i )
//     B = { i : W . A_i <= (1+eps) Tr[W] }
//     x_i *= (1 + alpha) for i in B
//   if ||x||_1 > K:  return dual   x_hat = x / ((1+10 eps) K)
//   else:            return primal Y = avg_t W(t)/Tr[W(t)]
//
// Guarantees (Theorem 3.1): terminates within R = O(eps^-3 log^2 n)
// iterations; the dual satisfies ||x_hat||_1 >= 1 - 10 eps and
// sum x_hat_i A_i <= I (Lemma 3.2's spectrum bound lambda_max(Psi) <=
// (1+10 eps) K makes the division feasible); the primal satisfies Tr Y = 1
// and A_i . Y >= 1 (Lemma 3.6).
//
// Two implementations share this interface:
//  * decision_dense       -- exact exp via sym_eig (tred2/tql2); the
//                            reference solver and the iteration-count
//                            workhorse (per-iteration cost O(m^3 + n m^2)).
//  * decision_factorized  -- the nearly-linear-work path of Theorem 4.1:
//                            W . A_i evaluated by bigDotExp with the a-priori
//                            kappa = (1+10 eps) K from Lemma 3.2. Never
//                            forms an m x m matrix.
//
// Note on eps: `DecisionOptions::eps` is the *algorithm's* parameter; the
// returned dual is (1 - 10 eps)-large per the theorem. solve_decision()
// wraps this with eps -> eps/10 so its contract matches the eps-decision
// problem statement verbatim.
#pragma once

#include <vector>

#include "core/bigdotexp.hpp"
#include "core/instance.hpp"
#include "core/yield_point.hpp"

namespace psdp::core {

enum class DecisionOutcome {
  kDual,    ///< found x_hat: ||x_hat||_1 >= 1 - 10 eps, sum x_i A_i <= I
  kPrimal,  ///< found Y: Tr Y = 1 and A_i . Y >= 1 for all i
};

/// Derived constants of Algorithm 3.1. ln(n) is computed as ln(max(n, 2))
/// so single-constraint instances stay non-degenerate (the paper assumes
/// n >= 2 throughout).
struct AlgorithmConstants {
  Real k_cap = 0;   ///< K = (1 + ln n)/eps
  Real alpha = 0;   ///< alpha = eps / (K (1 + 10 eps))
  Index r_limit = 0;  ///< R = ceil(32 ln(n) / (eps alpha))
  Real spectrum_bound = 0;  ///< (1 + 10 eps) K, the Lemma 3.2 invariant
};

AlgorithmConstants algorithm_constants(Index n, Real eps);

struct DecisionOptions {
  /// Algorithm accuracy parameter, in (0, 1).
  Real eps = 0.1;
  /// Record per-iteration statistics (adds no extra factorizations).
  bool track_trajectory = false;
  /// Cap on iterations; 0 means the paper's R. Lower values are useful in
  /// experiments that study the trajectory.
  Index max_iterations_override = 0;
  /// Exit early once the running primal average already certifies
  /// min_i A_i . Y >= 1. Lemma 3.6 only guarantees this after the full R
  /// iterations, but the certificate is self-verifying, so checking it each
  /// iteration is sound and in practice cuts the primal side from R =
  /// O(eps^-3 log^2 n) to a small multiple of the dual side's cost. Set to
  /// false for paper-faithful iteration counts.
  bool early_primal_exit = true;
  /// Lazy exponential refresh (dense solver only): recompute W = exp(Psi)
  /// every `exp_stride` iterations, reusing the previous W (and dots) for
  /// the coordinate selection in between. Inspired by the selective-update
  /// direction of [WMMR15] that the paper's Section 1.1 points at. The
  /// individual update steps are unchanged; only the selection may act on
  /// stale information, so the worst-case analysis no longer applies --
  /// every returned certificate is therefore re-verified by construction
  /// (dual: measured lambda_max; primal: self-verifying running average).
  /// See bench_ablation for the measured iteration/time trade-off.
  /// 1 = paper-faithful.
  Index exp_stride = 1;
  /// Factorized path: accuracy for the exp-dot estimates. 0 = auto (eps/2).
  Real dot_eps = 0;
  /// Factorized path: JL/bigDotExp knobs. `seed` is advanced per iteration
  /// so sketch noise is independent across iterations.
  BigDotExpOptions dot_options;
  /// Factorized path: caller-owned scratch shared across solver iterations
  /// (and, if reused, across solves -- results are unaffected; see
  /// SolverWorkspace). nullptr = the oracle owns a private workspace.
  /// Ignored by the dense solver.
  SolverWorkspace* workspace = nullptr;
  /// Cooperative check-in invoked once per round, outside any parallel
  /// region (yield_point.hpp). The serve scheduler uses it for preemption
  /// and dynamic lane widening at round boundaries; it cannot change the
  /// solve's results. nullptr = no check-ins.
  YieldPoint* yield = nullptr;
};

/// One iteration's diagnostics (recorded when track_trajectory is set).
struct IterationStat {
  Index t = 0;
  Real x_norm1 = 0;        ///< ||x||_1 after the update
  Real trace_w = 0;        ///< Tr[W(t)]
  Index updated = 0;       ///< |B(t)|
  Real lambda_max_psi = 0; ///< lambda_max(Psi(t-1)); dense solver only
};

struct DecisionResult {
  DecisionOutcome outcome = DecisionOutcome::kPrimal;
  /// Scaled dual x_hat (kDual), or the raw final x scaled the same way
  /// (kPrimal; still feasible, just small).
  Vector dual_x;
  /// The measured-tight dual: x divided by the *actual* lambda_max of the
  /// final Psi instead of the worst-case (1+10 eps)K. Exactly feasible by
  /// construction (dense path: exact eigensolve; factorized path: power
  /// iteration inflated by 1%), and typically much larger than dual_x --
  /// the optimization search uses it for its lower bounds.
  Vector dual_x_tight;
  /// lambda_max of the final Psi = sum_i x_i A_i (exact for the dense
  /// solver, an inflated power-iteration estimate for the factorized one).
  Real psi_lambda_max = 0;
  /// Dense primal certificate Y (dense solver only; empty otherwise).
  Matrix primal_y;
  /// A_i . Y for the (possibly implicit) primal average Y -- available from
  /// both solvers, since the per-iteration dots are averaged on the fly.
  Vector primal_dots;
  Real primal_trace = 0;  ///< Tr Y
  Index iterations = 0;
  AlgorithmConstants constants;
  std::vector<IterationStat> trajectory;
};

/// Dense reference implementation (exact matrix exponentials).
DecisionResult decision_dense(const PackingInstance& instance,
                              const DecisionOptions& options = {});

/// Nearly-linear-work implementation over factorized input.
DecisionResult decision_factorized(const FactorizedPackingInstance& instance,
                                   const DecisionOptions& options = {});

/// The eps-decision problem exactly as stated in Section 2.2: either a dual
/// x with ||x||_1 >= 1 - eps and sum x_i A_i <= I, or a primal Y with
/// Tr Y = 1 and A_i . Y >= 1. Runs decision_dense with eps/10.
DecisionResult solve_decision(const PackingInstance& instance, Real eps);

}  // namespace psdp::core
