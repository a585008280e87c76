// Graph edge-covering SDP: find a PSD matrix Y of minimum trace in which
// every edge of a graph sees at least unit energy,
//
//     min Tr[Y]   s.t.  w_e (chi_u - chi_v)(chi_u - chi_v)^T . Y >= 1.
//
// Every constraint is a rank-one Laplacian term, so this exercises the
// factorized (nearly-linear-work) path with q = 2|E| factor nonzeros, and
// the dense path for cross-checking.
//
// Run:  ./graph_covering [--vertices=12 --extra-edges=10 --eps=0.2]
#include <exception>
#include <iostream>

#include "apps/graph.hpp"
#include "core/certificates.hpp"
#include "core/decision.hpp"
#include "core/optimize.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdp;

  util::Cli cli("graph_covering", "Edge-covering SDP on a random graph");
  auto& vertices = cli.flag<Index>("vertices", 12, "number of vertices");
  auto& extra = cli.flag<Index>("extra-edges", 10, "chords beyond the path");
  auto& eps = cli.flag<Real>("eps", 0.2, "target relative accuracy");
  auto& seed = cli.flag<Index>("seed", 17, "graph seed");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  const apps::Graph g = apps::random_connected_graph(
      vertices.value, extra.value, 0.5, 2.0,
      static_cast<std::uint64_t>(seed.value));
  std::cout << "Graph: " << g.vertices << " vertices, " << g.edges.size()
            << " edges\n";

  // Dense covering pipeline (normalization is trivial: C = I).
  const core::CoveringProblem problem = apps::edge_covering_problem(g);
  core::OptimizeOptions options;
  options.eps = eps.value;
  const core::CoveringOptimum cover = core::approx_covering(problem, options);
  std::cout << "Covering optimum: Tr[Y] = " << cover.objective
            << " (certified >= " << cover.lower_bound << ")\n";

  Real worst = std::numeric_limits<Real>::infinity();
  for (Index e = 0; e < problem.size(); ++e) {
    worst = std::min(worst, linalg::frobenius_dot(
                                problem.constraints[static_cast<std::size_t>(e)],
                                cover.y));
  }
  std::cout << "Least-covered edge sees " << worst << " (demand 1)\n";

  // The same constraints through the factorized packing solver: the dual
  // program max 1^T x s.t. sum_e x_e L_e <= I is an edge-weighting problem.
  const core::FactorizedPackingInstance fact = apps::edge_packing_factorized(g);
  std::cout << "\nFactorized dual (q = " << fact.total_nnz()
            << " factor nonzeros):\n";
  const core::PackingOptimum packing = core::approx_packing(fact, options);
  std::cout << "Packing bracket: " << packing.lower << " <= OPT <= "
            << packing.upper << "\n";
  const core::DualCheck check = core::check_dual(fact, packing.best_x);
  std::cout << "Edge weighting feasible = " << std::boolalpha << check.feasible
            << ", lambda_max = " << check.lambda_max << "\n";
  return check.feasible && worst >= 1 - 1e-6 ? 0 : 1;
}
