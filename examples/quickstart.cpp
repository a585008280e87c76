// Quickstart: solve a tiny positive SDP end to end.
//
// We build the paper's Figure-1 instance (three ellipses in the plane),
// solve the packing optimization problem
//     max 1^T x   s.t.  x1 A1 + x2 A2 + x3 A3 <= I,  x >= 0
// with approxPSDP, and verify the answer with the independent certificate
// checker. Run:  ./quickstart [--eps=0.1]
#include <exception>
#include <iostream>

#include "apps/generators.hpp"
#include "core/certificates.hpp"
#include "core/optimize.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace psdp;

  util::Cli cli("quickstart", "Solve the Figure-1 packing SDP");
  auto& eps = cli.flag<Real>("eps", 0.1, "target relative accuracy");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  // The Figure 1 instance: A1 = diag(1, 1/4), A2 = diag(1/4, 1), and A3 a
  // rotated ellipse with semi-axes 3/4 and 1/8.
  const core::PackingInstance instance = apps::figure1_instance();
  std::cout << "Instance: n = " << instance.size()
            << " constraints of dimension m = " << instance.dim() << "\n";

  core::OptimizeOptions options;
  options.eps = eps.value;
  const core::PackingOptimum result = core::approx_packing(instance, options);

  std::cout << "approxPSDP bracket:  " << result.lower << " <= OPT <= "
            << result.upper << "\n"
            << "  (ratio " << result.upper / result.lower << ", "
            << result.decision_calls << " decision calls, "
            << result.total_iterations << " total iterations)\n";

  std::cout << "Best packing found: x = [";
  for (Index i = 0; i < result.best_x.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << result.best_x[i];
  }
  std::cout << "]\n";

  // Never trust a solver: re-verify with the exact checker.
  const core::DualCheck check = core::check_dual(instance, result.best_x);
  std::cout << "Certificate check:  feasible = " << std::boolalpha
            << check.feasible << ", value = " << check.value
            << ", lambda_max(sum x_i A_i) = " << check.lambda_max << "\n";
  return check.feasible ? 0 : 1;
}
