// E6 -- Lemma 4.2: the truncated Taylor series of degree
// k = max(e^2 kappa, ln(2/eps)) satisfies (1-eps) exp(B) <= B_hat <= exp(B).
// We sweep kappa and eps, measure the actual one-sided relative error at
// the lemma's degree, and also report the smallest degree that would have
// sufficed -- quantifying how conservative the constant e^2 is.
#include "apps/generators.hpp"
#include "bench_common.hpp"
#include "linalg/eig.hpp"
#include "linalg/expm.hpp"
#include "linalg/taylor.hpp"
#include "rand/rng.hpp"
#include "util/cli.hpp"

namespace {

using namespace psdp;

/// Largest relative shortfall max_i (1 - hat_lambda_i / exp(lambda_i)) over
/// the shared eigenbasis (B_hat commutes with B, so comparing eigenvalues
/// of both in B's basis is exact).
Real one_sided_error(const linalg::Matrix& b, Index degree) {
  const auto eig = linalg::sym_eig(b);
  Real worst = 0;
  for (Index i = 0; i < eig.eigenvalues.size(); ++i) {
    const Real lambda = eig.eigenvalues[i];
    // Truncated scalar series at this eigenvalue.
    Real term = 1, sum = 1;
    for (Index j = 1; j < degree; ++j) {
      term *= lambda / static_cast<Real>(j);
      sum += term;
    }
    worst = std::max(worst, 1 - sum / std::exp(lambda));
  }
  return worst;
}

linalg::Matrix psd_with_norm(Index m, Real kappa, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix g(m, m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) g(i, j) = rng.normal();
  }
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.symmetrize();
  a.scale(kappa / linalg::lambda_max_exact(a));
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli("bench_taylor_degree", "E6: Lemma 4.2 truncation degrees");
  auto& m = cli.flag<Index>("m", 12, "matrix dimension");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  bench::print_header(
      "E6: Taylor degree (Lemma 4.2)",
      "Claim: degree k = max(e^2 kappa, ln(2/eps)) gives "
      "(1-eps) exp(B) <= B_hat <= exp(B) for PSD B with ||B|| <= kappa.");

  util::Table table({"kappa", "eps", "lemma degree k", "actual rel err at k",
                     "min sufficient degree"});
  bool all_hold = true;
  for (Real kappa : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const linalg::Matrix b = psd_with_norm(m.value, kappa, 42);
    for (Real eps : {0.1, 0.01}) {
      const Index k = linalg::taylor_exp_degree(kappa, eps);
      const Real err = one_sided_error(b, k);
      all_hold &= err <= eps;
      // Smallest degree with error <= eps (linear scan; k is small).
      Index k_min = 1;
      while (one_sided_error(b, k_min) > eps) ++k_min;
      table.add_row({util::Table::cell(kappa, 3), util::Table::cell(eps, 3),
                     util::Table::cell(k), util::Table::cell(err, 3),
                     util::Table::cell(k_min)});
    }
  }
  table.print();

  bench::print_verdict(all_hold,
                       "the lemma's degree always met its error target (the "
                       "e^2 kappa constant is conservative, as the min-degree "
                       "column shows -- useful headroom for implementations).");
  return 0;
}
