// The paper's preprocessing pipeline end to end: a *dense* positive SDP is
// factored into the prefactored form A_i = Q_i Q_i^T (pivoted Cholesky,
// rank-revealing) and handed to the nearly-linear-work solver of
// Theorem 4.1 / Corollary 1.2; the dense reference path runs alongside for
// comparison.
//
// The workload is a set of random low-rank ellipsoids, so the factors come
// out r columns wide (r << m) and the factorized path works on
// q = O(n r m) numbers instead of n dense m x m matrices.
// Run:  ./factorize_and_solve [--n=16] [--m=16] [--rank=2] [--eps=0.25]
#include <exception>
#include <iostream>

#include "apps/generators.hpp"
#include "core/certificates.hpp"
#include "core/factorize.hpp"
#include "core/optimize.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace psdp;

  util::Cli cli("factorize_and_solve",
                "Dense positive SDP -> pivoted-Cholesky factors -> "
                "nearly-linear-work solver");
  auto& n = cli.flag<Index>("n", 16, "number of constraints");
  auto& m = cli.flag<Index>("m", 16, "matrix dimension");
  auto& rank = cli.flag<Index>("rank", 2, "rank of each constraint");
  auto& eps = cli.flag<Real>("eps", 0.25, "target relative accuracy");
  auto& decision_eps = cli.flag<Real>(
      "decision-eps", 0.15,
      "eps per decision probe (coarser = much faster factorized probes)");
  auto& seed = cli.flag<Index>("seed", 2012, "instance seed");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  const core::PackingInstance dense_instance = apps::random_ellipses(
      {.n = n.value, .m = m.value, .rank = rank.value,
       .seed = static_cast<std::uint64_t>(seed.value)});
  std::cout << "Dense instance: n = " << n.value << ", m = " << m.value
            << ", rank " << rank.value << " per constraint ("
            << n.value * m.value * m.value << " dense entries)\n";

  // --- Preprocessing: factor every A_i (the paper's "parallel QR" step,
  // here rank-revealing pivoted Cholesky). ---
  util::WallTimer factor_timer;
  core::FactorizeReport report;
  const core::FactorizedPackingInstance factorized =
      core::factorize(dense_instance, {}, &report);
  std::cout << "Factorization: q = " << report.total_nnz
            << " factor nonzeros, max rank " << report.max_rank
            << ", max residual " << report.max_residual_rel << " ("
            << factor_timer.seconds() << " s)\n\n";

  core::OptimizeOptions options;
  options.eps = eps.value;
  options.decision_eps = decision_eps.value;

  util::WallTimer dense_timer;
  const core::PackingOptimum dense_opt =
      core::approx_packing(dense_instance, options);
  const double dense_seconds = dense_timer.seconds();
  std::cout << "dense path:      OPT in [" << dense_opt.lower << ", "
            << dense_opt.upper << "]  (" << dense_seconds << " s)\n";

  util::WallTimer fact_timer;
  const core::PackingOptimum fact_opt =
      core::approx_packing(factorized, options);
  const double fact_seconds = fact_timer.seconds();
  std::cout << "factorized path: OPT in [" << fact_opt.lower << ", "
            << fact_opt.upper << "]  (" << fact_seconds << " s)\n\n";

  // The two brackets must overlap (they bound the same optimum), and both
  // duals must verify against the exact certificate checker.
  const bool overlap = fact_opt.lower <= dense_opt.upper * (1 + 1e-9) &&
                       dense_opt.lower <= fact_opt.upper * (1 + 1e-9);
  const core::DualCheck dense_check =
      core::check_dual(dense_instance, dense_opt.best_x);
  const core::DualCheck fact_check =
      core::check_dual(dense_instance, fact_opt.best_x);
  std::cout << "bracket overlap: " << (overlap ? "OK" : "FAILED")
            << "; dense dual feasible = " << std::boolalpha
            << dense_check.feasible
            << ", factorized dual feasible = " << fact_check.feasible << "\n";
  return overlap && dense_check.feasible && fact_check.feasible ? 0 : 1;
}
