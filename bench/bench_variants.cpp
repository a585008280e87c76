// E12 -- solver-variant comparison: the phase-free Algorithm 3.1 (the
// paper's arXiv revision) vs the conference-style phased schedule
// (core/phased) vs the [WMMR15]-direction bucketed acceleration
// (core/bucketed) vs fixed-stride lazy refresh (exp_stride).
//
// What the shapes should show:
//   * phased: the same virtual-iteration count up to small constants, but
//     #exponentials ~= #phases, far below the iteration count -- the
//     closed-form batching is where the conference version's practicality
//     came from;
//   * bucketed: fewer iterations on instances with heterogeneous slack
//     (diagonal-LP-style), no worse on isotropic random ellipses; its
//     safety rescalings keep certificates exact;
//   * exp_stride: the non-adaptive middle ground.
// All outcomes and certificate values are printed so regressions in any
// variant surface here.
//
// The factorized section runs the same comparison on the sketched
// bigDotExp oracle -- plain vs phased vs bucketed (the oracle-layer entry
// point decision_bucketed(FactorizedPackingInstance)) -- plus the
// factorized mixed packing/covering solver on a planted-feasible
// instance, so the variant table covers the nearly-linear paths
// end-to-end.
#include <cstring>

#include "alloc_counter.hpp"
#include "apps/generators.hpp"
#include "bench_common.hpp"
#include "core/bucketed.hpp"
#include "core/certificates.hpp"
#include "core/decision.hpp"
#include "core/mixed.hpp"
#include "core/phased.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

using namespace psdp;

struct VariantRow {
  std::string name;
  core::DecisionOutcome outcome;
  Index iterations = 0;
  Index exponentials = 0;
  Real dual_value = 0;  ///< 0 on primal outcomes
  Real seconds = 0;
};

/// Dual value re-verified by the exact checker (0 when infeasible or
/// primal).
Real checked_dual_value(const core::PackingInstance& instance,
                        const linalg::Vector& x) {
  const core::DualCheck check = core::check_dual(instance, x);
  return check.feasible ? check.value : 0;
}

std::vector<VariantRow> run_all(const core::PackingInstance& instance,
                                Real eps) {
  std::vector<VariantRow> rows;
  {
    core::DecisionOptions options;
    options.eps = eps;
    util::WallTimer timer;
    const core::DecisionResult r = core::decision_dense(instance, options);
    rows.push_back({"plain (Alg 3.1)", r.outcome, r.iterations, r.iterations,
                    r.outcome == core::DecisionOutcome::kDual
                        ? checked_dual_value(instance, r.dual_x_tight)
                        : 0,
                    timer.seconds()});
  }
  {
    core::DecisionOptions options;
    options.eps = eps;
    options.exp_stride = 8;
    util::WallTimer timer;
    const core::DecisionResult r = core::decision_dense(instance, options);
    rows.push_back({"stride-8 refresh", r.outcome, r.iterations,
                    (r.iterations + 7) / 8,
                    r.outcome == core::DecisionOutcome::kDual
                        ? checked_dual_value(instance, r.dual_x_tight)
                        : 0,
                    timer.seconds()});
  }
  {
    core::PhasedOptions options;
    options.eps = eps;
    util::WallTimer timer;
    const core::PhasedResult r = core::decision_phased(instance, options);
    rows.push_back({"phased [PT12]", r.outcome, r.iterations, r.phases,
                    r.outcome == core::DecisionOutcome::kDual
                        ? checked_dual_value(instance, r.dual_x)
                        : 0,
                    timer.seconds()});
  }
  {
    core::BucketedOptions options;
    options.eps = eps;
    util::WallTimer timer;
    const core::BucketedResult r = core::decision_bucketed(instance, options);
    rows.push_back({"bucketed [WMMR15]", r.outcome, r.iterations,
                    r.iterations,
                    r.outcome == core::DecisionOutcome::kDual
                        ? checked_dual_value(instance, r.dual_x)
                        : 0,
                    timer.seconds()});
  }
  return rows;
}

/// The CI steady-state-allocation guard (`--alloc-guard`): iterations of
/// the factorized plain decision loop on a shared SolverWorkspace, each
/// followed by the lambda_max certificate, must perform zero heap
/// allocations after warmup. This binary's operator new
/// is replaced by the counting allocator, so any hidden per-round heap
/// traffic -- a workspace that stopped being recycled, a parallel loop
/// boxing its body, a batch descriptor allocated per region -- fails the
/// job deterministically.
int run_alloc_guard() {
  const core::FactorizedPackingInstance fact = apps::random_factorized(
      {.n = 24, .m = 64, .rank = 2, .nnz_per_column = 6, .seed = 8});
  // Both pool shapes: inline execution (1 thread) and the worker-pool path
  // with its recycled batch descriptors and per-thread reduce scratch.
  const int before = par::num_threads();
  bool ok = true;
  for (const int threads : {1, 4, before}) {
    par::set_num_threads(threads);
    const bench::SteadyStateAllocReport report =
        bench::run_steady_state_allocs(
            fact, /*eps=*/0.1, /*warmup=*/3, /*measured=*/12,
            [] { return psdp::bench::alloc_count(); });
    std::cout << "steady-state allocation guard (" << threads
              << " threads): " << report.allocations << " allocations over "
              << report.measured_iterations << " iterations after "
              << report.warmup_iterations << " warmup iterations\n";
    ok = ok && report.allocations == 0;
  }
  par::set_num_threads(before);
  std::cout << "[" << (ok ? "ALLOC OK" : "ALLOC MISS")
            << "] steady-state solver iterations must not touch the heap\n";
  return ok ? 0 : 1;
}

/// The measured counterfactual behind docs/noisy_oracle_margin.md
/// (`--margin-blowup`): the factorized phased solver run twice on the same
/// primal-side instance and sketch accuracy -- once certifying the primal
/// against the production one-sided margin 1 + dot_eps, once against the
/// fully adversarial two-sided ratio (1+dot_eps)/(1-dot_eps). The dots and
/// the trace are quadratic forms in the *same* sketch, so the adversarial
/// bound guards a failure mode the correlation rules out; what it actually
/// buys is an iteration blowup (the two-sided margin typically exhausts
/// the whole R budget where the one-sided run certifies early).
int run_margin_blowup() {
  const Real eps = 0.25;       // coarse solve: large noise, fast repro
  const Real dot_eps = 0.45;   // margin gap: 1.45 one-sided vs 2.64 two-sided
  // Scaled so the true penalty rates dots_i / Tr W land in ~[1.8, 4.3]:
  // every constraint clears the one-sided margin 1.45 (instant
  // certification) while the smallest sits below the two-sided 2.64 --
  // the near-threshold regime where the adversarial margin can never
  // certify and the run exhausts the whole R budget instead.
  const core::FactorizedPackingInstance fact =
      apps::random_factorized(
          {.n = 16, .m = 96, .rank = 2, .nnz_per_column = 6, .seed = 5})
          .scaled(55.0);
  util::Table table({"margin", "outcome", "virtual iterations", "phases",
                     "seconds"});
  Index iters[2] = {0, 0};
  for (const bool two_sided : {false, true}) {
    core::FactorizedPhasedOptions options;
    options.eps = eps;
    options.dot_eps = dot_eps;
    options.two_sided_margin = two_sided;
    util::WallTimer timer;
    const core::PhasedResult r = core::decision_phased(fact, options);
    iters[two_sided ? 1 : 0] = r.iterations;
    table.add_row(
        {two_sided ? "two-sided (1+e)/(1-e)" : "one-sided 1+e",
         r.outcome == core::DecisionOutcome::kDual ? "dual" : "primal",
         util::Table::cell(r.iterations), util::Table::cell(r.phases),
         util::Table::cell(timer.seconds(), 3)});
  }
  table.print();
  const Real blowup = static_cast<Real>(iters[1]) /
                      static_cast<Real>(std::max<Index>(1, iters[0]));
  std::cout << "\ntwo-sided / one-sided iteration ratio: " << blowup << "x\n";
  const bool ok = blowup >= 10;
  bench::print_verdict(
      ok,
      "the adversarial two-sided certificate margin costs >= 10x the "
      "iterations of the production one-sided margin on a primal-side "
      "instance (see docs/noisy_oracle_margin.md)");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--alloc-guard") == 0) return run_alloc_guard();
    if (std::strcmp(argv[i], "--margin-blowup") == 0) {
      return run_margin_blowup();
    }
  }
  util::Cli cli("bench_variants", "E12: solver-variant comparison");
  auto& eps = cli.flag<Real>("eps", 0.1, "algorithm eps");
  cli.parse(argc, argv);
  if (cli.help_requested()) return 0;

  bench::print_header(
      "E12: phase-free vs phased vs bucketed vs fixed stride",
      "Same eps-decision problem solved by the paper's Algorithm 3.1 and "
      "the three schedule variants; exponential counts are the per-variant "
      "O(m^3) work driver.");

  struct Workload {
    std::string name;
    core::PackingInstance instance;
  };
  std::vector<Workload> workloads;
  workloads.push_back(
      {"random ellipses (n=32, m=8)",
       apps::random_ellipses({.n = 32, .m = 8, .rank = 2, .seed = 12})});
  workloads.push_back(
      {"needle width=512 (n=16, m=6)",
       apps::needle_width_family({.n = 16, .m = 6, .width = 512, .seed = 4})});
  workloads.push_back(
      {"diagonal LP (heterogeneous slack)",
       apps::diagonal_lp({.groups = 8, .per_group = 3, .d_min = 0.1,
                          .d_max = 8.0, .seed = 9})
           .instance});

  bool phased_cheaper = true;
  bool outcomes_agree = true;
  for (const Workload& workload : workloads) {
    std::cout << "-- " << workload.name << " (eps = " << eps.value << ")\n";
    util::Table table({"variant", "outcome", "iterations", "exponentials",
                       "dual value", "seconds"});
    const std::vector<VariantRow> rows = run_all(workload.instance, eps.value);
    for (const VariantRow& row : rows) {
      table.add_row(
          {row.name,
           row.outcome == core::DecisionOutcome::kDual ? "dual" : "primal",
           util::Table::cell(row.iterations), util::Table::cell(row.exponentials),
           util::Table::cell(row.dual_value, 4),
           util::Table::cell(row.seconds, 3)});
      if (row.outcome != rows.front().outcome) outcomes_agree = false;
    }
    table.print();
    std::cout << "\n";
    // Find the phased row and compare exponentials vs plain.
    if (rows[2].exponentials >= rows[0].exponentials) phased_cheaper = false;
  }

  // --- Factorized path: every variant on the sketched bigDotExp oracle ---
  std::cout << "-- factorized path (n=24, m=64, Theorem 4.1 pipeline, eps = "
            << eps.value << ")\n";
  bool factorized_agree = true;
  bool factorized_faster = true;
  bool bucketed_factorized_agrees = true;
  {
    const core::FactorizedPackingInstance fact = apps::random_factorized(
        {.n = 24, .m = 64, .rank = 2, .nnz_per_column = 6, .seed = 8});
    util::Table table({"variant", "outcome", "iterations", "exp batches",
                       "seconds"});
    core::DecisionOptions plain_options;
    plain_options.eps = eps.value;
    util::WallTimer plain_timer;
    const core::DecisionResult plain =
        core::decision_factorized(fact, plain_options);
    const Real plain_seconds = plain_timer.seconds();
    table.add_row(
        {"plain factorized",
         plain.outcome == core::DecisionOutcome::kDual ? "dual" : "primal",
         util::Table::cell(plain.iterations),
         util::Table::cell(plain.iterations),
         util::Table::cell(plain_seconds, 3)});

    core::FactorizedPhasedOptions phased_options;
    phased_options.eps = eps.value;
    util::WallTimer phased_timer;
    const core::PhasedResult phased =
        core::decision_phased(fact, phased_options);
    const Real phased_seconds = phased_timer.seconds();
    table.add_row(
        {"phased factorized",
         phased.outcome == core::DecisionOutcome::kDual ? "dual" : "primal",
         util::Table::cell(phased.iterations),
         util::Table::cell(phased.phases),
         util::Table::cell(phased_seconds, 3)});

    // Bucketed on the sketched oracle: slack buckets from noisy penalties,
    // safety rescalings measured on the implicit operator.
    core::FactorizedBucketedOptions bucketed_options;
    bucketed_options.eps = eps.value;
    util::WallTimer bucketed_timer;
    const core::BucketedResult bucketed =
        core::decision_bucketed(fact, bucketed_options);
    const Real bucketed_seconds = bucketed_timer.seconds();
    table.add_row(
        {"bucketed factorized",
         bucketed.outcome == core::DecisionOutcome::kDual ? "dual" : "primal",
         util::Table::cell(bucketed.iterations),
         util::Table::cell(bucketed.iterations),
         util::Table::cell(bucketed_seconds, 3)});
    table.print();
    std::cout << "\n";
    factorized_agree = plain.outcome == phased.outcome;
    factorized_faster =
        phased.phases < plain.iterations && phased_seconds < plain_seconds;
    bucketed_factorized_agrees = bucketed.outcome == plain.outcome;
  }

  // --- Mixed packing/covering on the factorized oracle ---
  std::cout << "-- mixed packing/covering, factorized oracle (n=24, m=64, "
               "l=6)\n";
  bool mixed_factorized_ok = true;
  {
    core::MixedFactorizedInstance mixed;
    // Loosely-packed instance with uniformly reachable covering
    // coordinates: feasible with slack, so the solver must find it.
    mixed.packing = apps::random_factorized(
        {.n = 24, .m = 64, .rank = 2, .nnz_per_column = 6, .seed = 8})
        .scaled(0.05);
    rand::Rng rng(21);
    for (Index i = 0; i < mixed.packing.size(); ++i) {
      linalg::Vector d(6);
      for (Index j = 0; j < d.size(); ++j) d[j] = rng.uniform(0.5, 1.5);
      mixed.covering.push_back(std::move(d));
    }
    core::MixedFactorizedOptions mixed_options;
    mixed_options.eps = eps.value;
    // Pin the iteration budget explicitly (same formula as the solver's
    // default) so the budget-exhaustion check below cannot silently
    // diverge from the solver's internal value.
    mixed_options.max_iterations_override =
        4 * core::algorithm_constants(mixed.packing.size(), eps.value)
                .r_limit;
    util::WallTimer mixed_timer;
    const core::MixedResult r = core::solve_mixed(mixed, mixed_options);
    util::Table table({"variant", "outcome", "iterations", "min coverage",
                       "seconds"});
    table.add_row(
        {"mixed factorized",
         r.outcome == core::MixedOutcome::kFeasible ? "feasible" : "exhausted",
         util::Table::cell(r.iterations),
         util::Table::cell(r.min_coverage, 4),
         util::Table::cell(mixed_timer.seconds(), 3)});
    table.print();
    std::cout << "\n";
    // Falsifiable acceptance: the loosely-packed instance inflates
    // coverage heavily at the final rescale, so also require that the loop
    // reached the cover target instead of exhausting its iteration budget
    // (a selection regression would burn the whole budget and still
    // rescale into nominal feasibility).
    mixed_factorized_ok = r.outcome == core::MixedOutcome::kFeasible &&
                          r.min_coverage >= 1 - eps.value &&
                          r.iterations < mixed_options.max_iterations_override;
  }

  const bool ok = phased_cheaper && outcomes_agree && factorized_agree &&
                  factorized_faster && bucketed_factorized_agrees &&
                  mixed_factorized_ok;
  bench::print_verdict(
      ok,
      "all variants agree on the decision outcome, the phased schedule "
      "computes strictly fewer exponentials than iterations on every dense "
      "workload, phase-batching the Theorem 4.1 pipeline is strictly faster "
      "than per-iteration batches, the bucketed variant reproduces the "
      "plain outcome on the sketched oracle, and the factorized mixed "
      "solver recovers a feasible planted instance");
  return ok ? 0 : 1;
}
