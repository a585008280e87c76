// Positive linear programming with the scalar specialization of
// Algorithm 3.1 -- fractional matching on the complete graph.
//
// The LP  max sum_e x_e  s.t.  sum_{e incident to v} x_e <= 1  (per vertex)
// is the classic packing LP with known optimum k/2 on K_k. We solve it
// three ways and compare:
//   1. approx_packing_lp      -- the scalar width-independent solver,
//   2. approx_packing (dense) -- the same instance embedded as a diagonal
//                                positive SDP (what the paper generalizes),
//   3. the analytic optimum   -- k/2.
// Run:  ./positive_lp [--vertices=10] [--eps=0.1]
#include <exception>
#include <iostream>

#include "apps/generators.hpp"
#include "core/optimize.hpp"
#include "core/poslp.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace psdp;

  util::Cli cli("positive_lp",
                "Fractional matching LP via the width-independent solver");
  auto& vertices = cli.flag<Index>("vertices", 10, "complete-graph vertices");
  auto& eps = cli.flag<Real>("eps", 0.1, "target relative accuracy");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  const apps::MatchingLpInstance matching =
      apps::complete_graph_matching_lp(vertices.value);
  std::cout << "Fractional matching on K_" << vertices.value << ": "
            << matching.lp.size() << " edge variables, "
            << matching.lp.rows() << " vertex constraints, analytic OPT = "
            << matching.opt << "\n\n";

  core::OptimizeOptions options;
  options.eps = eps.value;

  // 1. The scalar solver.
  util::WallTimer lp_timer;
  const core::LpOptimum lp_opt =
      core::approx_packing_lp(matching.lp, options);
  const double lp_seconds = lp_timer.seconds();
  std::cout << "scalar LP solver:    OPT in [" << lp_opt.lower << ", "
            << lp_opt.upper << "]  (" << lp_opt.decision_calls
            << " probes, " << lp_opt.total_iterations << " iterations, "
            << lp_seconds << " s)\n";

  // 2. The same LP as a diagonal positive SDP.
  const core::PackingInstance sdp = matching.lp.to_diagonal_sdp();
  util::WallTimer sdp_timer;
  const core::PackingOptimum sdp_opt = core::approx_packing(sdp, options);
  const double sdp_seconds = sdp_timer.seconds();
  std::cout << "diagonal SDP solver: OPT in [" << sdp_opt.lower << ", "
            << sdp_opt.upper << "]  (" << sdp_opt.decision_calls
            << " probes, " << sdp_opt.total_iterations << " iterations, "
            << sdp_seconds << " s)\n\n";

  // 3. Compare against the analytic value.
  const Real opt = matching.opt;
  const bool lp_ok = lp_opt.lower <= opt * (1 + 1e-9) &&
                     lp_opt.upper >= opt * (1 - 1e-9) &&
                     lp_opt.upper <= lp_opt.lower * (1 + eps.value) + 1e-9;
  const bool sdp_ok = sdp_opt.lower <= opt * (1 + 1e-9) &&
                      sdp_opt.upper >= opt * (1 - 1e-9);
  std::cout << "analytic OPT = " << opt << ": scalar bracket "
            << (lp_ok ? "OK" : "FAILED") << ", SDP bracket "
            << (sdp_ok ? "OK" : "FAILED") << "\n";
  std::cout << "matrix-machinery overhead: "
            << (lp_seconds > 0 ? sdp_seconds / lp_seconds : 0)
            << "x wall-clock for the same iterates\n";
  return lp_ok && sdp_ok ? 0 : 1;
}
