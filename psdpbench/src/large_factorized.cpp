// large-factorized: the paper's regime. One many-constraint sparse
// factorized instance, written once as a chunked file and loaded with K
// shards; a closed loop of one calls core::approx_packing with a fixed
// probe budget at the pool's full width, with no serve layer in between.
// The pool is 2 threads wide (workloads.json): at 4, job time on a shared
// 4-vCPU host is dominated by waking pool threads on idle vCPUs and swung
// 2-9 s between runs.
#include <iostream>

#include "apps/generators.hpp"
#include "core/optimize.hpp"
#include "core/penalty_oracle.hpp"
#include "core/solver_engine.hpp"
#include "gates.hpp"
#include "io/chunked.hpp"
#include "layers.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel_plan.hpp"
#include "workloads.hpp"

namespace psdpbench {

using psdp::Index;
namespace core = psdp::core;

namespace {

bool same_payload(const core::PackingOptimum& a, const core::PackingOptimum& b) {
  if (a.lower != b.lower || a.upper != b.upper ||
      a.decision_calls != b.decision_calls ||
      a.total_iterations != b.total_iterations ||
      a.best_x.size() != b.best_x.size()) {
    return false;
  }
  for (Index i = 0; i < a.best_x.size(); ++i) {
    if (a.best_x[i] != b.best_x[i]) return false;
  }
  return true;
}

}  // namespace

void run_large_factorized(const Params& params, const RunConfig& config,
                          Tracer& tracer, Outcome& outcome) {
  const int pool_width = static_cast<int>(params.integer("threads"));
  psdp::apps::FactorizedOptions shape;
  shape.m = params.integer("instance.dim");
  shape.n = params.integer("instance.n");
  shape.rank = params.integer("instance.rank");
  shape.nnz_per_column = params.integer("instance.nnz_per_column");
  // The instance is part of the fixed load definition; the run's seed
  // drives the solver's sketch randomness.
  shape.seed = static_cast<std::uint64_t>(params.integer("instance.seed"));
  const Index shards = params.integer("instance.shards");
  const std::string path = config.work_dir + "/large.chunked";

  core::OptimizeOptions options;
  options.eps = params.num("solver.eps");
  options.decision_eps = params.num("solver.decision_eps");
  // Phased probes throughout the benchmark: one bigDotExp batch per phase,
  // the serving configuration (the plain loop is replayed under --trace).
  options.probe_solver = core::ProbeSolver::kPhased;
  options.max_probes = params.integer("solver.max_probes");
  options.decision.dot_options.sketch_rows_override =
      params.integer("solver.sketch_rows");
  options.decision.dot_options.seed = mix_seed(config.seed, 1);

  // ---- set-up, repeated: generate + write, load K shards, warm up -------
  core::FactorizedPackingInstance generated;
  core::FactorizedPackingInstance instance;
  std::vector<double> setup_s, load_s;
  std::uint64_t index_builds = 0, plan_measurements = 0;
  const long reps = params.integer("setup_reps");
  for (long rep = 0; rep < reps; ++rep) {
    const std::uint64_t builds0 = psdp::sparse::transpose_index_build_count();
    const std::uint64_t plans0 =
        psdp::sparse::global_transpose_plan_cache().stats().misses;
    psdp::sparse::global_transpose_plan_cache().clear();
    const Clock::time_point t0 = Clock::now();
    generated = psdp::apps::random_factorized(shape);
    psdp::io::save_factorized_chunked(path, generated, shards);
    const Clock::time_point l0 = Clock::now();
    {
      Tracer::Scope span(tracer, "io.load");
      instance = psdp::io::load_factorized_chunked(path, {}, shards);
    }
    load_s.push_back(seconds_between(l0, Clock::now()));
    // Warm-up: one oracle round and one lambda_max certificate at the
    // starting weights (pool threads, workspaces, lazy plan state).
    {
      core::SketchedOracleOptions warm;
      warm.eps = options.decision_eps;
      warm.dot_options = options.decision.dot_options;
      core::SketchedTaylorOracle oracle(instance, warm);
      const psdp::linalg::Vector x0 = core::initial_weights(oracle, "warm-up");
      core::PenaltyBatch batch;
      oracle.compute(x0, 0, batch);
      oracle.lambda_max(x0);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    index_builds = psdp::sparse::transpose_index_build_count() - builds0;
    plan_measurements =
        psdp::sparse::global_transpose_plan_cache().stats().misses - plans0;
  }
  const double file_mb = static_cast<double>(file_bytes(path)) / 1e6;
  std::cout << "large-factorized: dim " << instance.dim() << ", "
            << instance.size() << " constraints, " << instance.total_nnz()
            << " nnz, " << instance.shard_count() << " shards, file "
            << file_mb << " MB; set-up " << median(setup_s) << " s (median of "
            << reps << ")\n";

  // ---- timed window: closed loop of one --------------------------------
  std::vector<double> latency;
  std::vector<double> brackets;
  core::PackingOptimum reference;
  const CpuSample cpu0 = cpu_sample();
  const Clock::time_point start = Clock::now();
  long job = 0;
  while (seconds_between(start, Clock::now()) < config.seconds) {
    const Clock::time_point j0 = Clock::now();
    core::PackingOptimum result;
    {
      Tracer::Scope span(tracer, "job", job);
      result = core::approx_packing(instance, options);
    }
    latency.push_back(seconds_between(j0, Clock::now()));
    ++outcome.attempted;
    if (job == 0) {
      reference = result;  // the solo reference at this pool width
    } else if (!same_payload(result, reference)) {
      outcome.fail("job " + std::to_string(job) +
                   " payload differs bitwise from job 0");
    }
    brackets.push_back(result.upper / result.lower);
    ++job;
  }
  const double window = seconds_between(start, Clock::now());
  const CpuSample cpu1 = cpu_sample();
  // Job 0's certificate, checked against the generated (unsharded)
  // instance once the clock has stopped.
  if (std::string why = check_packing(generated, reference); !why.empty()) {
    outcome.fail("job 0 certificate: " + why);
  }
  const double limit = params.num("latency_limit_s");
  long within = 0;
  for (double l : latency) within += l <= limit ? 1 : 0;

  std::cout << job << " jobs in " << window << " s; latency p50 "
            << median(latency) << " s, p90 " << quantile(latency, 0.9)
            << " s (" << latency.size() << " samples); probes "
            << reference.decision_calls << ", iterations "
            << reference.total_iterations << ", bracket "
            << reference.upper / reference.lower << "\n";

  outcome.add_end_to_end(
      setup_s,
      static_cast<double>(outcome.attempted - outcome.failed) / window,
      latency,
      static_cast<double>(within) / static_cast<double>(outcome.attempted),
      brackets);

  if (!tracer.enabled()) return;
  // No serve layer on this workload: its counters are zero by construction.
  for (const char* name :
       {"serve.queue_p90_s", "serve.run_p50_s", "serve.wire_p50_s",
        "serve.generator_lateness_p90_s", "serve.cache.build_s"}) {
    outcome.add_layer(name, 0, "s");
  }
  for (const char* name :
       {"serve.preemptions", "serve.promotions", "serve.demotions",
        "serve.shed", "serve.peak_queue", "serve.cache.lookups",
        "serve.cache.evictions", "serve.cache.workspace_reuses"}) {
    outcome.add_layer(name, 0, "count");
  }
  outcome.add_layer("serve.cache.hit_ratio", 0, "ratio");
  outcome.add_layer("serve.cache.build_share", 0, "ratio");
  outcome.add_layer("io.load_s", median(load_s), "s");
  outcome.add_layer("io.load_mb_per_s", file_mb / median(load_s), "MB/s");
  outcome.add_layer("sparse.index_builds", static_cast<double>(index_builds),
                    "count");
  outcome.add_layer("sparse.plan_measurements",
                    static_cast<double>(plan_measurements), "count");
  outcome.add_layer("core.optimize.probes",
                    static_cast<double>(reference.decision_calls), "count");
  outcome.add_layer("core.optimize.iterations",
                    static_cast<double>(reference.total_iterations), "count");
  add_par_metrics(outcome, cpu0, cpu1, pool_width, job);

  DecompositionConfig decomposition;
  decomposition.decision_eps = options.decision_eps;
  decomposition.sketch_rows = params.integer("solver.sketch_rows");
  decomposition.max_rounds = params.integer("decomposition_rounds");
  decomposition.pool_width = pool_width;
  measure_oracle_layers(instance, decomposition, tracer, outcome);
}

}  // namespace psdpbench
