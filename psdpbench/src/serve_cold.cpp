// serve-cold: a closed loop with at most `lanes` jobs outstanding, sent to
// an in-process BatchScheduler over a catalog of distinct instance files
// (text and chunked factorized files plus covering problems) larger than
// the ArtifactCache. The catalog is visited cyclically in one seeded order,
// so under LRU every job is a miss plus an eviction: the cache's write
// path, the io loaders, transpose-index builds, KernelPlan autotuning and
// covering normalization, inside the bench's own builder closures.
#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <random>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "gates.hpp"
#include "io/chunked.hpp"
#include "io/instance_io.hpp"
#include "layers.hpp"
#include "serve/scheduler.hpp"
#include "sparse/csr.hpp"
#include "workloads.hpp"

namespace psdpbench {

using psdp::Index;
namespace core = psdp::core;
namespace serve = psdp::serve;

namespace {

enum class FileKind { kText, kChunked, kCovering };

struct Entry {
  std::string key;
  std::string path;
  FileKind file = FileKind::kText;
  std::shared_ptr<core::FactorizedPackingInstance> factorized;
  std::shared_ptr<core::CoveringProblem> covering;
};

std::vector<Entry> make_catalog(const Params& params, const RunConfig& config) {
  std::vector<Entry> catalog;
  const Index shards = params.integer("catalog.chunked_shards");
  const auto add_factorized = [&](FileKind file, long count) {
    for (long t = 0; t < count; ++t) {
      Entry e;
      e.file = file;
      e.key = (file == FileKind::kText ? "text-" : "chunked-") +
              std::to_string(t);
      e.path = config.work_dir + "/" + e.key +
               (file == FileKind::kText ? ".psdp" : ".chunked");
      psdp::apps::FactorizedOptions g;
      g.m = params.integer("factorized.m");
      g.n = params.integer("factorized.n");
      g.rank = params.integer("factorized.rank");
      g.nnz_per_column = params.integer("factorized.nnz_per_column");
      g.seed = mix_seed(config.seed, catalog.size());
      e.factorized = std::make_shared<core::FactorizedPackingInstance>(
          psdp::apps::random_factorized(g));
      if (file == FileKind::kText) {
        psdp::io::save_factorized(e.path, *e.factorized);
      } else {
        psdp::io::save_factorized_chunked(e.path, *e.factorized, shards);
      }
      catalog.push_back(std::move(e));
    }
  };
  add_factorized(FileKind::kText, params.integer("catalog.text"));
  add_factorized(FileKind::kChunked, params.integer("catalog.chunked"));
  for (long t = 0; t < params.integer("catalog.covering"); ++t) {
    Entry e;
    e.file = FileKind::kCovering;
    e.key = "covering-" + std::to_string(t);
    e.path = config.work_dir + "/" + e.key + ".psdp";
    psdp::apps::BeamformingOptions g;
    g.users = params.integer("covering.users");
    g.antennas = params.integer("covering.antennas");
    g.seed = mix_seed(config.seed, catalog.size());
    e.covering = std::make_shared<core::CoveringProblem>(
        psdp::apps::beamforming_problem(g));
    psdp::io::save_covering(e.path, *e.covering);
    catalog.push_back(std::move(e));
  }
  return catalog;
}

/// The bench's builder closure for one catalog entry: the io load and the
/// preparation (transpose indexes and KernelPlans through the cache's plan
/// options; covering normalization), traced as "serve.cache.build" >
/// "io.load" under the job's span.
serve::ArtifactCache::Builder builder(const Entry& e, Tracer* tracer,
                                      long job, int job_span) {
  return [path = e.path, file = e.file, tracer, job,
          job_span](const psdp::sparse::TransposePlanOptions& plan) {
    const int build = tracer ? tracer->begin("serve.cache.build", job, job_span)
                             : -1;
    const int load = tracer ? tracer->begin("io.load", job, build) : -1;
    serve::PreparedInstance prepared;
    if (file == FileKind::kCovering) {
      core::CoveringProblem problem = psdp::io::load_covering(path);
      if (tracer) tracer->finish(load);
      prepared = serve::prepare_covering(std::move(problem));
    } else {
      core::FactorizedPackingInstance instance;
      if (file == FileKind::kText) {
        instance = psdp::io::load_factorized(path, plan);
      } else {
        psdp::io::ChunkedLoadOptions options;
        options.plan_options = plan;
        instance = psdp::io::load_factorized_chunked(path, options);
      }
      if (tracer) tracer->finish(load);
      prepared = serve::prepare_factorized(std::move(instance));
    }
    if (tracer) tracer->finish(build);
    return prepared;
  };
}

serve::JobSpec make_spec(const Params& params, const Entry& e, Tracer* tracer,
                         long job, int job_span) {
  serve::JobSpec spec;
  spec.instance = e.key;
  spec.label = e.key;
  spec.kind = e.file == FileKind::kCovering ? serve::JobKind::kCovering
                                            : serve::JobKind::kPackingFactorized;
  spec.builder = builder(e, tracer, job, job_span);
  spec.options.eps = params.num("solver.eps");
  spec.options.decision_eps = params.num("solver.decision_eps");
  spec.options.probe_solver = core::ProbeSolver::kPhased;
  spec.options.max_probes = params.integer("solver.max_probes");
  spec.options.decision.max_iterations_override =
      params.integer("solver.max_iterations");
  spec.options.decision.dot_options.sketch_rows_override =
      params.integer("solver.sketch_rows");
  return spec;
}

}  // namespace

void run_serve_cold(const Params& params, const RunConfig& config,
                    Tracer& tracer, Outcome& outcome) {
  const int pool_width = static_cast<int>(params.integer("threads"));
  const int lanes = static_cast<int>(params.integer("lanes"));
  Tracer* trace = tracer.enabled() ? &tracer : nullptr;

  // ---- set-up, repeated: generate + write the catalog, open a cold
  // scheduler, warm the process (pool, code paths) on a throwaway one -----
  std::vector<Entry> catalog;
  std::unique_ptr<serve::BatchScheduler> scheduler;
  std::vector<double> setup_s;
  const long reps = params.integer("setup_reps");
  for (long rep = 0; rep < reps; ++rep) {
    if (scheduler) scheduler->close();
    scheduler.reset();
    const Clock::time_point t0 = Clock::now();
    catalog = make_catalog(params, config);
    {
      serve::BatchScheduler warm;
      serve::SolveBatch batch;
      batch.add(make_spec(params, catalog.front(), nullptr, -1, -1));
      batch.add(make_spec(params, catalog.back(), nullptr, -1, -1));
      for (const serve::JobResult& r : warm.run(batch)) {
        if (!r.ok) throw std::runtime_error("serve-cold warm-up: " + r.error);
      }
    }
    scheduler = std::make_unique<serve::BatchScheduler>();
    scheduler->open(lanes);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  if (catalog.size() <= scheduler->cache().capacity()) {
    throw std::runtime_error("serve-cold catalog must exceed the cache capacity");
  }

  // ---- timed window: closed loop, <= lanes outstanding, cyclic order ----
  std::vector<std::size_t> order(catalog.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::mt19937_64 rng(mix_seed(config.seed, 11));
  std::shuffle(order.begin(), order.end(), rng);

  std::mutex mutex;  // guards outstanding, done_at
  std::condition_variable cv;
  int outstanding = 0;
  std::vector<Clock::time_point> submitted_at;
  std::map<std::size_t, Clock::time_point> done_at;
  std::vector<std::size_t> entry_of;

  const std::uint64_t builds0 = psdp::sparse::transpose_index_build_count();
  const std::uint64_t plans0 = scheduler->cache().plan_cache().stats().misses;
  const CpuSample cpu0 = cpu_sample();
  const Clock::time_point start = Clock::now();
  std::size_t cursor = 0;
  while (seconds_between(start, Clock::now()) < config.seconds) {
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return outstanding < lanes; });
      ++outstanding;
    }
    const std::size_t k = order[cursor++ % order.size()];
    const long job = static_cast<long>(entry_of.size());
    const int span = tracer.begin("serve.job", job, -1);
    serve::JobSpec spec = make_spec(params, catalog[k], trace, job, span);
    spec.on_complete = [&, span](const serve::JobResult& r) {
      const Clock::time_point now = Clock::now();
      tracer.finish(span);
      std::lock_guard<std::mutex> lock(mutex);
      done_at[r.index] = now;
      --outstanding;
      cv.notify_all();
    };
    entry_of.push_back(k);
    submitted_at.push_back(Clock::now());
    scheduler->submit(std::move(spec));
  }
  const std::vector<serve::JobResult> results = scheduler->close();
  const Clock::time_point end = Clock::now();
  const CpuSample cpu1 = cpu_sample();
  const serve::SchedulerStats sched = scheduler->stats();
  const serve::ArtifactCache::Stats cache = scheduler->cache().stats();
  const std::uint64_t plans1 = scheduler->cache().plan_cache().stats().misses;
  const std::uint64_t builds1 = psdp::sparse::transpose_index_build_count();

  // ---- solo references for every entry served, and their certificates --
  std::map<std::size_t, std::size_t> ref_index;
  serve::SchedulerOptions solo_options;
  solo_options.widening = false;
  serve::BatchScheduler solo(solo_options);
  serve::SolveBatch batch;
  for (std::size_t k : entry_of) {
    if (ref_index.count(k) == 0) {
      ref_index[k] = batch.add(make_spec(params, catalog[k], nullptr, -1, -1));
    }
  }
  const std::vector<serve::JobResult> refs = solo.run(batch);
  std::map<std::size_t, std::string> cert;
  for (const auto& [k, idx] : ref_index) {
    const serve::JobResult& r = refs[idx];
    if (!r.ok) {
      cert[k] = "reference solve failed: " + r.error;
    } else if (catalog[k].covering) {
      cert[k] = check_covering(*catalog[k].covering, r.covering);
    } else {
      cert[k] = check_packing(*catalog[k].factorized, r.packing);
    }
  }

  std::vector<double> latency, queue, run, brackets, probes, iterations;
  const double limit = params.num("latency_limit_s");
  long within = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ++outcome.attempted;
    const serve::JobResult& r = results[i];
    const std::size_t k = entry_of[i];
    const std::string name = "job " + std::to_string(i) + " (" +
                             catalog[k].key + ")";
    if (r.shed) {
      outcome.fail(name + ": shed");
      continue;
    }
    if (!r.ok) {
      outcome.fail(name + ": " + r.error);
      continue;
    }
    if (!serve::payload_bitwise_equal(r, refs[ref_index[k]])) {
      outcome.fail(name + ": payload differs from the solo reference");
      continue;
    }
    if (!cert[k].empty()) {
      outcome.fail(name + ": certificate: " + cert[k]);
      continue;
    }
    const double l = seconds_between(submitted_at[i], done_at[i]);
    latency.push_back(l);
    within += l <= limit ? 1 : 0;
    queue.push_back(r.queue_seconds);
    run.push_back(r.run_seconds);
    const core::PackingOptimum& packing =
        catalog[k].covering ? r.covering.packing : r.packing;
    brackets.push_back(catalog[k].covering
                           ? r.covering.objective / r.covering.lower_bound
                           : r.packing.upper / r.packing.lower);
    probes.push_back(static_cast<double>(packing.decision_calls));
    iterations.push_back(static_cast<double>(packing.total_iterations));
  }
  const double window = seconds_between(start, end);
  const long ok = outcome.attempted - outcome.failed;
  const std::vector<double> build_s = tracer.durations("serve.cache.build");
  const std::vector<double> load_s = tracer.durations("io.load");
  std::cout << "serve-cold: " << catalog.size() << " catalog entries over a "
            << scheduler->cache().capacity() << "-entry cache, " << lanes
            << " lanes x " << pool_width << " threads; set-up "
            << median(setup_s) << " s (median of " << reps << "); "
            << results.size() << " jobs in " << window
            << " s; latency p50 " << median(latency) << " s, p90 "
            << quantile(latency, 0.9) << " s (" << latency.size()
            << " samples); cache " << cache.hits << " hits / " << cache.misses
            << " misses / " << cache.evictions << " evictions\n";

  outcome.add_end_to_end(
      setup_s, static_cast<double>(ok) / window, latency,
      static_cast<double>(within) / static_cast<double>(outcome.attempted),
      brackets);

  if (!tracer.enabled()) return;
  // The whole scheduler lifetime is the timed window here (it opened cold).
  double load_bytes = 0;
  for (std::size_t k : entry_of) {
    load_bytes += static_cast<double>(file_bytes(catalog[k].path));
  }
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  outcome.add_layer("serve.queue_p90_s", quantile(queue, 0.9), "s");
  outcome.add_layer("serve.run_p50_s", median(run), "s");
  outcome.add_layer("serve.wire_p50_s", 0, "s");  // in-process: no wire
  outcome.add_layer("serve.generator_lateness_p90_s", 0, "s");  // closed loop
  outcome.add_layer("serve.cache.build_s", median(build_s), "s");
  // Preparation's share of job time: builder spans over lane run time.
  const double build_share = sum(run) > 0 ? sum(build_s) / sum(run) : 0;
  std::cout << "preparation: " << sum(build_s) << " s of builder spans in "
            << sum(run) << " s of job run time (share " << build_share
            << ")\n";
  outcome.add_layer("serve.cache.build_share", build_share, "ratio");
  outcome.add_layer("serve.preemptions", static_cast<double>(sched.preemptions),
                    "count");
  outcome.add_layer("serve.promotions", static_cast<double>(sched.promotions),
                    "count");
  outcome.add_layer("serve.demotions", static_cast<double>(sched.demotions),
                    "count");
  outcome.add_layer("serve.shed", static_cast<double>(sched.shed), "count");
  outcome.add_layer("serve.peak_queue", static_cast<double>(sched.peak_queue),
                    "count");
  outcome.add_layer("serve.cache.lookups", lookups, "count");
  outcome.add_layer("serve.cache.hit_ratio",
                    lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0,
                    "ratio");
  outcome.add_layer("serve.cache.evictions",
                    static_cast<double>(cache.evictions), "count");
  outcome.add_layer("serve.cache.workspace_reuses",
                    static_cast<double>(cache.workspace_reuses), "count");
  outcome.add_layer("io.load_s", median(load_s), "s");
  outcome.add_layer("io.load_mb_per_s",
                    sum(load_s) > 0 ? load_bytes / 1e6 / sum(load_s) : 0,
                    "MB/s");
  outcome.add_layer("sparse.index_builds",
                    static_cast<double>(builds1 - builds0), "count");
  outcome.add_layer("sparse.plan_measurements",
                    static_cast<double>(plans1 - plans0), "count");
  outcome.add_layer("core.optimize.probes", median(probes), "count");
  outcome.add_layer("core.optimize.iterations", median(iterations), "count");
  add_par_metrics(outcome, cpu0, cpu1, pool_width,
                  static_cast<long>(results.size()));

  DecompositionConfig decomposition;
  decomposition.decision_eps = params.num("solver.decision_eps");
  decomposition.sketch_rows = params.integer("solver.sketch_rows");
  decomposition.max_rounds = params.integer("decomposition_rounds");
  decomposition.pool_width = pool_width;
  measure_oracle_layers(*catalog.front().factorized, decomposition, tracer,
                        outcome);
}

}  // namespace psdpbench
