// Downlink beamforming power minimization -- the application the paper's
// Section 5 singles out as fully inside the packing/covering framework
// (the [IPS10] beamforming relaxation).
//
// A base station with m antennas must deliver received power >= demand to
// each of n users over Rayleigh-fading channels h_i, minimizing total
// transmit power Tr[Y]:
//
//     min Tr[Y]   s.t.  (h_i h_i^T) . Y >= demand,  Y >= 0.
//
// Run:  ./beamforming [--users=16 --antennas=8 --spread=10 --eps=0.15]
#include <exception>
#include <iostream>

#include "apps/beamforming.hpp"
#include "core/optimize.hpp"
#include "linalg/eig.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psdp;

  util::Cli cli("beamforming", "Min-power beamforming covering SDP");
  auto& users = cli.flag<Index>("users", 16, "number of users (n)");
  auto& antennas = cli.flag<Index>("antennas", 8, "number of antennas (m)");
  auto& spread = cli.flag<Real>("spread", 10.0, "near/far path-loss spread");
  auto& eps = cli.flag<Real>("eps", 0.15, "target relative accuracy");
  auto& seed = cli.flag<Index>("seed", 2012, "channel seed");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  apps::BeamformingOptions gen;
  gen.users = users.value;
  gen.antennas = antennas.value;
  gen.spread = spread.value;
  gen.seed = static_cast<std::uint64_t>(seed.value);
  const core::CoveringProblem problem = apps::beamforming_problem(gen);

  std::cout << "Beamforming: " << gen.users << " users, " << gen.antennas
            << " antennas, path-loss spread " << gen.spread << "\n";

  core::OptimizeOptions options;
  options.eps = eps.value;
  const core::CoveringOptimum result = core::approx_covering(problem, options);

  std::cout << "Total transmit power Tr[Y] = " << result.objective
            << "   (certified OPT >= " << result.lower_bound << ", gap "
            << result.objective / result.lower_bound << "x)\n";

  // Per-user delivered power report.
  util::Table table({"user", "delivered", "demand", "slack"});
  for (Index i = 0; i < problem.size(); ++i) {
    const Real delivered = linalg::frobenius_dot(
        problem.constraints[static_cast<std::size_t>(i)], result.y);
    table.add_row({util::Table::cell(i), util::Table::cell(delivered),
                   util::Table::cell(problem.rhs[i]),
                   util::Table::cell(delivered - problem.rhs[i])});
  }
  table.print();

  // The transmit covariance's effective rank tells how many beams are used.
  const auto eig = linalg::sym_eig(result.y);
  Index beams = 0;
  for (Index i = 0; i < gen.antennas; ++i) {
    if (eig.eigenvalues[i] > 1e-6 * eig.eigenvalues[0]) ++beams;
  }
  std::cout << "Effective number of beams (rank of Y): " << beams << "\n";
  return 0;
}
