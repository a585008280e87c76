// The paper's Figure 1 intuition, animated: how many copies of a set of
// ellipses fit (fractionally) inside the unit ball?
//
// For the 3-ellipse Figure-1 instance we sweep the decision threshold and
// show where decisionPSDP flips from "dual" (they fit) to "primal" (they
// do not), printing the per-iteration trajectory of the algorithm at the
// critical scale. This is the ellipse-packing story of Section 1.2 made
// concrete.
//
// Run:  ./ellipse_packing [--eps=0.15]
#include <exception>
#include <iomanip>
#include <iostream>

#include "apps/generators.hpp"
#include "core/decision.hpp"
#include "core/optimize.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psdp;

  util::Cli cli("ellipse_packing", "Figure-1 ellipse packing walkthrough");
  auto& eps = cli.flag<Real>("eps", 0.15, "algorithm accuracy parameter");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  const core::PackingInstance fig1 = apps::figure1_instance();
  std::cout << "Figure-1 ellipses (2x2 PSD matrices):\n";
  const char* names[] = {"A1 (axis-aligned)", "A2 (axis-aligned)",
                         "A3 (rotated 45 deg)"};
  for (Index i = 0; i < 3; ++i) {
    const auto& a = fig1[i];
    std::cout << "  " << names[i] << ": [[" << a(0, 0) << ", " << a(0, 1)
              << "], [" << a(1, 0) << ", " << a(1, 1) << "]]\n";
  }

  // First, where is the packing optimum?
  core::OptimizeOptions opt_options;
  opt_options.eps = 0.05;
  const core::PackingOptimum opt = core::approx_packing(fig1, opt_options);
  std::cout << "\nPacking optimum bracket: [" << opt.lower << ", " << opt.upper
            << "]  (how much total ellipse mass fits in the unit ball)\n";

  // Sweep the decision threshold across the optimum: the scaled instance
  // {v A_i} asks "does a (1/v)-fraction fit?".
  std::cout << "\nDecision sweep (scale v asks: is OPT >= 1/v ... roughly):\n";
  util::Table table({"scale v", "outcome", "iterations", "||x||_1 at exit"});
  core::DecisionOptions options;
  options.eps = eps.value;
  for (Real v : {0.25, 0.4, opt.lower, opt.upper, 4.0, 8.0}) {
    const core::DecisionResult r = core::decision_dense(fig1.scaled(v), options);
    table.add_row(
        {util::Table::cell(v, 4),
         r.outcome == core::DecisionOutcome::kDual ? "dual (fits)"
                                                   : "primal (does not)",
         util::Table::cell(r.iterations),
         util::Table::cell(linalg::sum(r.dual_x) * r.constants.spectrum_bound,
                           4)});
  }
  table.print();

  // Show the multiplicative-weights trajectory at the critical scale.
  std::cout << "\nTrajectory at the critical scale v = " << opt.upper << ":\n";
  options.track_trajectory = true;
  const core::DecisionResult r =
      core::decision_dense(fig1.scaled(opt.upper), options);
  util::Table traj({"t", "||x||_1", "Tr W", "|B|", "lambda_max(Psi)"});
  const std::size_t stride = std::max<std::size_t>(1, r.trajectory.size() / 12);
  for (std::size_t k = 0; k < r.trajectory.size(); k += stride) {
    const auto& s = r.trajectory[k];
    traj.add_row({util::Table::cell(s.t), util::Table::cell(s.x_norm1, 4),
                  util::Table::cell(s.trace_w, 4), util::Table::cell(s.updated),
                  util::Table::cell(s.lambda_max_psi, 4)});
  }
  traj.print();
  std::cout << "Lemma 3.2 spectrum bound (never exceeded): "
            << r.constants.spectrum_bound << "\n";
  return 0;
}
