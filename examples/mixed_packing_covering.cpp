// Mixed packing/covering positive SDPs -- the extension the paper's
// Section 5 poses as future work (and [JY12] studied concurrently):
// matrix packing constraints plus diagonal covering constraints.
//
// Story: a spectrum-allocation toy. n transmitters each have an
// interference footprint A_i (PSD, must sum to at most the interference
// budget I) and a service profile d_i over l districts (each district
// needs total service >= 1). Find transmit powers x that serve every
// district without exceeding the interference budget.
//
// With --factorized=1 the same story runs through the oracle layer's
// sketched bigDotExp pipeline: each rank-one footprint u u^T is kept in
// factorized form and the solver never builds an m x m matrix, which is
// the mode that scales to large m (try --factorized=1 --m=400).
//
// Run:  ./mixed_packing_covering [--n=12 --m=6 --districts=4 --eps=0.2]
//                                [--factorized=1]
#include <cmath>
#include <exception>
#include <iostream>

#include "core/certificates.hpp"
#include "core/mixed.hpp"
#include "linalg/eig.hpp"
#include "rand/rng.hpp"
#include "sparse/factorized.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace psdp;
  using linalg::Matrix;
  using linalg::Vector;

  util::Cli cli("mixed_packing_covering",
                "Section-5 extension: matrix packing + diagonal covering");
  auto& n = cli.flag<Index>("n", 12, "transmitters");
  auto& m = cli.flag<Index>("m", 6, "interference dimension");
  auto& districts = cli.flag<Index>("districts", 4, "covering coordinates");
  auto& eps = cli.flag<Real>("eps", 0.2, "accuracy parameter");
  auto& seed = cli.flag<Index>("seed", 4, "instance seed");
  auto& factorized = cli.flag<bool>(
      "factorized", false,
      "solve on the sketched bigDotExp oracle (never forms an m x m matrix)");
  try {
    cli.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (cli.help_requested()) return 0;

  // Interference footprints: random low-rank PSD; service profiles:
  // random non-negative, normalized so a uniform allocation would cover
  // each district ~2x while packing to ~1/2 (comfortably feasible).
  rand::Rng rng(static_cast<std::uint64_t>(seed.value));
  std::vector<Vector> footprints;  // the u_i of A_i = u_i u_i^T
  std::vector<Vector> covering;
  Matrix pack_sum(m.value, m.value);
  Vector cover_sum(districts.value);
  for (Index i = 0; i < n.value; ++i) {
    Vector u(m.value);
    for (Index j = 0; j < m.value; ++j) u[j] = rng.normal();
    Matrix a = Matrix::outer(u);
    a.symmetrize();
    pack_sum.add_scaled(a, 1.0 / static_cast<Real>(n.value));
    footprints.push_back(std::move(u));
    Vector d(districts.value);
    for (Index j = 0; j < districts.value; ++j) d[j] = rng.uniform(0.1, 1.0);
    covering.push_back(d);
    cover_sum.add_scaled(d, 1.0 / static_cast<Real>(n.value));
  }
  const Real lambda = linalg::lambda_max_exact(pack_sum);
  // A_i -> (0.5/lambda) A_i, i.e. u_i -> sqrt(0.5/lambda) u_i.
  for (Vector& u : footprints) u.scale(std::sqrt(0.5 / lambda));
  for (auto& d : covering) {
    for (Index j = 0; j < districts.value; ++j) d[j] *= 2.0 / cover_sum[j];
  }

  std::cout << "Mixed instance: " << n.value << " transmitters, "
            << m.value << "-dim interference, " << districts.value
            << " districts" << (factorized.value ? " (factorized oracle)" : "")
            << "\n";

  // Keep the dense instance for certificate checking (and the dense solve);
  // the factorized one shares the same footprints without ever forming
  // u u^T inside the solver.
  std::vector<Matrix> packing;
  for (const Vector& u : footprints) {
    Matrix a = Matrix::outer(u);
    a.symmetrize();
    packing.push_back(std::move(a));
  }
  core::MixedInstance instance;
  instance.packing = core::PackingInstance(std::move(packing));
  instance.covering = covering;

  core::MixedResult r;
  if (factorized.value) {
    core::MixedFactorizedInstance fact;
    std::vector<sparse::FactorizedPsd> items;
    for (const Vector& u : footprints) {
      items.push_back(sparse::FactorizedPsd::rank_one(u));
    }
    fact.packing = core::FactorizedPackingInstance(
        sparse::FactorizedSet(std::move(items)));
    fact.covering = covering;
    core::MixedFactorizedOptions options;
    options.eps = eps.value;
    r = core::solve_mixed(fact, options);
  } else {
    core::MixedOptions options;
    options.eps = eps.value;
    r = core::solve_mixed(instance, options);
  }

  std::cout << "Outcome: "
            << (r.outcome == core::MixedOutcome::kFeasible ? "FEASIBLE"
                                                           : "exhausted")
            << " after " << r.iterations << " iterations\n"
            << "Packing  lambda_max(sum x_i A_i) = " << r.packing_lambda_max
            << " (must be <= 1)\n"
            << "Covering min_j coverage          = " << r.min_coverage
            << " (target 1, accepted at >= " << 1 - eps.value << ")\n\n";

  // Independent verification, as always.
  const core::DualCheck pack = core::check_dual(instance.packing, r.x);
  Vector coverage(districts.value);
  for (Index i = 0; i < instance.size(); ++i) {
    coverage.add_scaled(instance.covering[static_cast<std::size_t>(i)], r.x[i]);
  }
  util::Table table({"district", "coverage"});
  for (Index j = 0; j < districts.value; ++j) {
    table.add_row({util::Table::cell(j), util::Table::cell(coverage[j], 4)});
  }
  table.print();
  std::cout << "Packing verified feasible: " << std::boolalpha << pack.feasible
            << " (lambda_max = " << pack.lambda_max << ")\n";
  return r.outcome == core::MixedOutcome::kFeasible && pack.feasible ? 0 : 1;
}
