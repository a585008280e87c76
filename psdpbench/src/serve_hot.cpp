// serve-hot: an open-loop stream at a fixed absolute rate over a small,
// repeated instance catalog, sent through Solverd over the loopback
// transport by one SolverdClient. After warm-up nearly every job is an
// ArtifactCache hit, so the stream stresses queueing (EDF, preemption,
// widening), the wire path and small-panel oracle rounds.
#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "gates.hpp"
#include "io/instance_io.hpp"
#include "layers.hpp"
#include "serve/manifest.hpp"
#include "serve/solverd.hpp"
#include "sparse/csr.hpp"
#include "workloads.hpp"

namespace psdpbench {

namespace core = psdp::core;
namespace serve = psdp::serve;

namespace {

/// eps and decision eps of warm-up jobs. The artifact cache keys on the
/// instance id alone, so a coarse solve fills it as well as a full one,
/// and set-up then times loading and preparing every template rather than
/// solve noise.
constexpr double kWarmEps = 0.9;

/// One catalog entry: a generated instance, its file, and the manifest
/// options every job on it is sent with.
struct Template {
  std::size_t cls = 0;
  std::string key;
  std::string path;
  std::string kind;  ///< manifest kind name
  std::string options;  ///< manifest key=value options
  std::string warm_options;  ///< the same with the warm-up accuracy
  std::shared_ptr<core::FactorizedPackingInstance> factorized;
  std::shared_ptr<core::PackingInstance> dense;
  std::shared_ptr<core::CoveringProblem> covering;
};

struct JobClass {
  std::string name;
  double weight = 0;
  double deadline_ms = 0;  ///< 0 = no deadline
  std::vector<std::size_t> templates;
};

/// What the client observed for one job line.
struct Observed {
  bool received = false;
  bool backpressure = false;
  serve::JobResult result;
  Clock::time_point at;
};

/// A daemon over the loopback transport with one connected client and a
/// reader thread collecting result frames by job id.
class Session {
 public:
  Session(int lanes, Tracer& tracer) : tracer_(tracer) {
    serve::SolverdOptions options;
    options.lanes = lanes;
    options.max_connections = 1;
    daemon_ = std::make_unique<serve::Solverd>(listener_, options);
    client_ = std::make_unique<serve::SolverdClient>(listener_.connect());
    server_ = std::thread([this] { daemon_->serve(); });
    reader_ = std::thread([this] { read_loop(); });
  }
  ~Session() { close(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Send one job line; returns its per-connection id (from 1). `span` is
  /// the job's trace span, finished when its result arrives.
  std::uint64_t send(const std::string& line, int span) {
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      id = ++sent_;
      observed_.resize(sent_);
      spans_.resize(sent_, -1);
      spans_[id - 1] = span;
    }
    if (!client_->submit(line)) {
      std::lock_guard<std::mutex> lock(mutex_);
      errors_.push_back("submit failed: daemon gone");
    }
    return id;
  }

  /// Wait until every id up to `id` has an answer or `timeout_s` passes;
  /// returns false on timeout.
  bool wait_for(std::uint64_t id, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(
        lock, std::chrono::duration<double>(timeout_s), [&] {
          if (done_) return true;
          for (std::uint64_t k = 1; k <= id; ++k) {
            if (!observed_[k - 1].received) return false;
          }
          return true;
        });
  }

  /// Goodbye, drain, join. Idempotent.
  void close() {
    if (closed_) return;
    closed_ = true;
    client_->goodbye();
    reader_.join();
    server_.join();
  }

  std::vector<Observed> observed() {
    std::lock_guard<std::mutex> lock(mutex_);
    return observed_;
  }
  std::vector<std::string> errors() {
    std::lock_guard<std::mutex> lock(mutex_);
    return errors_;
  }
  serve::BatchScheduler& scheduler() { return daemon_->scheduler(); }

 private:
  void read_loop() {
    try {
      while (std::optional<serve::Frame> frame = client_->read()) {
        const Clock::time_point at = Clock::now();
        if (frame->type == serve::FrameType::kDone) break;
        if (frame->type == serve::FrameType::kError) {
          std::lock_guard<std::mutex> lock(mutex_);
          errors_.push_back("daemon error frame: " + frame->payload);
          continue;
        }
        if (frame->type != serve::FrameType::kResult &&
            frame->type != serve::FrameType::kBackpressure) {
          continue;
        }
        serve::WireResult wire = serve::decode_result_line(frame->payload);
        std::lock_guard<std::mutex> lock(mutex_);
        if (wire.id < 1 || wire.id > observed_.size()) {
          errors_.push_back("unknown job id " + std::to_string(wire.id));
          continue;
        }
        Observed& o = observed_[wire.id - 1];
        o.received = true;
        o.backpressure = frame->type == serve::FrameType::kBackpressure;
        o.result = std::move(wire.result);
        o.at = at;
        tracer_.finish(spans_[wire.id - 1]);
        cv_.notify_all();
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mutex_);
      errors_.push_back(std::string("client read failed: ") + e.what());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    cv_.notify_all();
  }

  Tracer& tracer_;
  serve::LoopbackListener listener_;  // outlives the daemon and the client
  std::unique_ptr<serve::Solverd> daemon_;
  std::unique_ptr<serve::SolverdClient> client_;
  std::thread server_;
  std::thread reader_;
  bool closed_ = false;
  std::mutex mutex_;  ///< guards everything below
  std::condition_variable cv_;
  std::uint64_t sent_ = 0;
  std::vector<Observed> observed_;
  std::vector<int> spans_;
  std::vector<std::string> errors_;
  bool done_ = false;
};

std::vector<JobClass> make_classes(const Params& params) {
  std::vector<JobClass> classes;
  for (const std::string& name : params.list("classes")) {
    JobClass c;
    c.name = name;
    c.weight = params.num("class." + name + ".weight");
    c.deadline_ms = params.num("class." + name + ".deadline_ms");
    classes.push_back(c);
  }
  return classes;
}

/// Generate every template of every class and write its file.
/// Deterministic in (catalog_seed, class, template index).
std::vector<Template> make_catalog(const Params& params,
                                   const RunConfig& config,
                                   std::vector<JobClass>& classes) {
  std::vector<Template> catalog;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const std::string p = "class." + classes[c].name + ".";
    classes[c].templates.clear();
    const long count = params.integer(p + "templates");
    for (long t = 0; t < count; ++t) {
      Template tpl;
      tpl.cls = c;
      tpl.key = classes[c].name + "-" + std::to_string(t);
      tpl.path = config.work_dir + "/" + tpl.key + ".psdp";
      tpl.kind = params.text(p + "kind");
      // The catalog is part of the fixed load definition; the run's seed
      // drives the traffic (arrival times, class order).
      const std::uint64_t seed = mix_seed(
          static_cast<std::uint64_t>(params.integer("catalog_seed")),
          100 * c + t);
      if (tpl.kind == "packing-factorized") {
        psdp::apps::FactorizedOptions g;
        g.m = params.integer(p + "m");
        g.n = params.integer(p + "n");
        g.rank = params.integer(p + "rank");
        g.nnz_per_column = params.integer(p + "nnz_per_column");
        g.seed = seed;
        tpl.factorized = std::make_shared<core::FactorizedPackingInstance>(
            psdp::apps::random_factorized(g));
        psdp::io::save_factorized(tpl.path, *tpl.factorized);
      } else if (tpl.kind == "packing-dense") {
        psdp::apps::EllipseOptions g;
        g.m = params.integer(p + "m");
        g.n = params.integer(p + "n");
        g.rank = params.integer(p + "rank");
        g.seed = seed;
        tpl.dense = std::make_shared<core::PackingInstance>(
            psdp::apps::random_ellipses(g));
        psdp::io::save_packing(tpl.path, *tpl.dense);
      } else if (tpl.kind == "covering") {
        psdp::apps::BeamformingOptions g;
        g.users = params.integer(p + "users");
        g.antennas = params.integer(p + "antennas");
        g.seed = seed;
        tpl.covering = std::make_shared<core::CoveringProblem>(
            psdp::apps::beamforming_problem(g));
        psdp::io::save_covering(tpl.path, *tpl.covering);
      } else {
        throw std::runtime_error("unknown job kind " + tpl.kind);
      }
      const auto options = [&](double eps, double decision_eps) {
        std::ostringstream text;
        text.precision(17);
        text << "eps=" << eps << " decision-eps=" << decision_eps
             << " probe=phased"
             << " sketch-rows=" << params.integer("solver.sketch_rows")
             << " id=" << tpl.key;
        return text.str();
      };
      tpl.options = options(params.num(p + "eps"),
                            params.num("solver.decision_eps"));
      tpl.warm_options = options(kWarmEps, kWarmEps);
      classes[c].templates.push_back(catalog.size());
      catalog.push_back(std::move(tpl));
    }
  }
  return catalog;
}

/// A job line for template `t`; `warm` sends it with the warm-up accuracy.
std::string job_line(const Template& t, const std::string& label,
                     double deadline_ms, bool warm = false) {
  std::ostringstream line;
  line.precision(17);
  line << t.kind << " " << t.path << " "
       << (warm ? t.warm_options : t.options) << " label=" << label;
  if (deadline_ms > 0) line << " deadline-ms=" << deadline_ms;
  return line.str();
}

/// upper/lower of a served payload (covering: objective/lower_bound).
double bracket_of(const serve::JobResult& r) {
  if (r.kind == serve::JobKind::kCovering) {
    return r.covering.objective / r.covering.lower_bound;
  }
  return r.packing.upper / r.packing.lower;
}

/// The bracket check a wire result allows: covering results cross the
/// wire with their bounds only (Y stays in the daemon).
std::string check_wire_bracket(const serve::JobResult& r) {
  if (r.kind != serve::JobKind::kCovering) {
    return check_bracket(r.packing.lower, r.packing.upper);
  }
  return r.covering.objective >= r.covering.lower_bound * (1 - 1e-9)
             ? ""
             : "covering objective below its bound";
}

/// Most jobs waiting for their first start at the same time, swept over
/// each job's waiting interval [from, to). Ends sort before starts at equal
/// times, so a job that starts as it arrives never counts.
double peak_waiting(const std::vector<std::pair<double, double>>& intervals) {
  std::vector<std::pair<double, int>> events;
  for (const auto& [from, to] : intervals) {
    if (to <= from) continue;
    events.emplace_back(from, +1);
    events.emplace_back(to, -1);
  }
  std::sort(events.begin(), events.end());
  int waiting = 0, peak = 0;
  for (const auto& event : events) {
    waiting += event.second;
    peak = std::max(peak, waiting);
  }
  return peak;
}

}  // namespace

void run_serve_hot(const Params& params, const RunConfig& config,
                   Tracer& tracer, Outcome& outcome) {
  const int pool_width = static_cast<int>(params.integer("threads"));
  const int lanes = static_cast<int>(params.integer("lanes"));
  std::vector<JobClass> classes = make_classes(params);

  // ---- set-up, repeated: generate + write the catalog, start the daemon,
  // send every template through it once at the warm-up accuracy ---------
  std::vector<Template> catalog;
  std::unique_ptr<Session> session;
  std::vector<double> setup_s;
  const long reps = params.integer("setup_reps");
  for (long rep = 0; rep < reps; ++rep) {
    if (session) session->close();
    session.reset();
    const Clock::time_point t0 = Clock::now();
    catalog = make_catalog(params, config, classes);
    session = std::make_unique<Session>(lanes, tracer);
    std::uint64_t last = 0;
    for (const Template& t : catalog) {
      last = session->send(job_line(t, "warmup-" + t.key, 0, true), -1);
    }
    if (!session->wait_for(last, 120)) {
      throw std::runtime_error("serve-hot warm-up timed out");
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const std::uint64_t warmup_jobs = catalog.size();

  // ---- the arrival stream: fixed rate, exact class proportions ----------
  const double rate = params.num("rate_per_s");
  const std::size_t n_jobs = static_cast<std::size_t>(
      std::max(1.0, std::round(rate * config.seconds)));
  std::mt19937_64 rng(mix_seed(config.seed, 7));
  std::vector<double> at(n_jobs);
  std::uniform_real_distribution<double> uniform(0, config.seconds);
  for (double& a : at) a = uniform(rng);  // Poisson, conditioned on n_jobs
  std::sort(at.begin(), at.end());
  // Class order: consecutive blocks of `mix_block` arrivals each hold the
  // exact class mix, shuffled within the block, so every stretch of the
  // window sees the same mix and heavy jobs cannot bunch up by chance.
  const std::size_t block = static_cast<std::size_t>(params.integer("mix_block"));
  std::vector<std::size_t> deck;
  while (deck.size() < n_jobs) {
    std::vector<std::size_t> part;
    for (std::size_t c = classes.size(); c-- > 0;) {  // rarest first
      const std::size_t count = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(classes[c].weight * block)));
      for (std::size_t k = 0; k < count && part.size() < block; ++k) {
        part.push_back(c);
      }
    }
    while (part.size() < block) part.push_back(0);
    std::shuffle(part.begin(), part.end(), rng);
    deck.insert(deck.end(), part.begin(), part.end());
  }
  deck.resize(n_jobs);
  std::vector<std::size_t> job_template(n_jobs);
  std::vector<std::size_t> next(classes.size(), 0);
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const JobClass& c = classes[deck[i]];
    job_template[i] = c.templates[next[deck[i]]++ % c.templates.size()];
  }

  // ---- timed window ------------------------------------------------------
  serve::BatchScheduler& scheduler = session->scheduler();
  const serve::SchedulerStats sched0 = scheduler.stats();
  const serve::ArtifactCache::Stats cache0 = scheduler.cache().stats();
  const std::uint64_t plans0 = scheduler.cache().plan_cache().stats().misses;
  const std::uint64_t builds0 = psdp::sparse::transpose_index_build_count();
  const CpuSample cpu0 = cpu_sample();
  std::vector<Clock::time_point> sent(n_jobs);
  std::vector<double> lateness(n_jobs);
  const Clock::time_point start = Clock::now();
  std::uint64_t last_id = 0;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(at[i]));
    std::this_thread::sleep_until(due);
    const Template& t = catalog[job_template[i]];
    const int span = tracer.begin("serve.job", static_cast<long>(i), -1);
    sent[i] = Clock::now();
    lateness[i] = seconds_between(due, sent[i]);
    last_id = session->send(
        job_line(t, std::to_string(i), classes[t.cls].deadline_ms), span);
  }
  const bool drained = session->wait_for(last_id, 150);
  const CpuSample cpu1 = cpu_sample();
  const serve::SchedulerStats sched1 = scheduler.stats();
  const serve::ArtifactCache::Stats cache1 = scheduler.cache().stats();
  const std::uint64_t plans1 = scheduler.cache().plan_cache().stats().misses;
  const std::uint64_t builds1 = psdp::sparse::transpose_index_build_count();
  session->close();
  if (!drained) outcome.fail("serve-hot: results still missing after 150 s");
  for (const std::string& e : session->errors()) outcome.fail(e);
  const std::vector<Observed> observed = session->observed();

  // ---- solo references at the same pool width, and their certificates --
  serve::SchedulerOptions solo_options;
  solo_options.widening = false;
  serve::BatchScheduler solo(solo_options);
  serve::SolveBatch batch;
  for (const Template& t : catalog) {
    serve::JobSpec spec;
    psdp::serve::parse_manifest_line(job_line(t, "solo-" + t.key, 0),
                                     "serve-hot", 1, &spec);
    batch.add(std::move(spec));
  }
  const std::vector<serve::JobResult> refs = solo.run(batch);
  std::vector<std::string> cert(catalog.size());
  for (std::size_t k = 0; k < catalog.size(); ++k) {
    const Template& t = catalog[k];
    const serve::JobResult& r = refs[k];
    if (!r.ok) {
      cert[k] = "reference solve failed: " + r.error;
    } else if (t.factorized) {
      cert[k] = check_packing(*t.factorized, r.packing);
    } else if (t.dense) {
      cert[k] = check_packing(*t.dense, r.packing);
    } else {
      cert[k] = check_covering(*t.covering, r.covering);
    }
  }
  // Warm-up payloads (other accuracy, not counted as attempted jobs) must
  // carry valid certificates too, as far as the wire carries them.
  for (std::size_t k = 0; k < warmup_jobs; ++k) {
    const Observed& o = observed[k];
    const Template& t = catalog[k];
    if (!o.received || o.backpressure || !o.result.ok) {
      outcome.fail("warm-up job " + t.key + " missing or failed");
      continue;
    }
    const std::string why =
        t.factorized ? check_packing(*t.factorized, o.result.packing)
        : t.dense    ? check_packing(*t.dense, o.result.packing)
                     : check_wire_bracket(o.result);
    if (!why.empty()) outcome.fail("warm-up job " + t.key + ": " + why);
  }

  // ---- per-job gates and metrics ----------------------------------------
  std::vector<double> latency, queue, run, wire, brackets, probes, iterations;
  std::vector<std::pair<double, double>> waiting;  // timed jobs' queue spans
  std::vector<std::vector<double>> class_latency(classes.size());
  std::vector<long> class_promoted(classes.size(), 0);
  long deadline_jobs = 0, deadline_met = 0;
  long in_window = 0;  // ok jobs answered within the scheduled window
  for (std::size_t i = 0; i < n_jobs; ++i) {
    ++outcome.attempted;
    const std::size_t k = job_template[i];
    const Template& t = catalog[k];
    const bool has_deadline = classes[t.cls].deadline_ms > 0;
    if (has_deadline) ++deadline_jobs;
    const Observed& o = observed[warmup_jobs + i];
    const std::string name = "job " + std::to_string(i) + " (" + t.key + ")";
    if (!o.received) {
      outcome.fail(name + ": no result");
      continue;
    }
    if (o.backpressure || o.result.shed) {
      outcome.fail(name + ": shed");
      continue;
    }
    const double sent_at = seconds_between(start, sent[i]);
    waiting.emplace_back(sent_at, sent_at + o.result.queue_seconds);
    if (!o.result.ok) {
      outcome.fail(name + ": " + o.result.error);
      continue;
    }
    if (!serve::payload_bitwise_equal(o.result, refs[k])) {
      outcome.fail(name + ": payload differs from the solo reference");
      continue;
    }
    const std::string bracket_error = check_wire_bracket(o.result);
    if (!bracket_error.empty() || !cert[k].empty()) {
      outcome.fail(name + ": certificate: " + bracket_error + cert[k]);
      continue;
    }
    const double due = at[i];
    const double l = seconds_between(start, o.at) - due;
    latency.push_back(l);
    class_latency[t.cls].push_back(l);
    class_promoted[t.cls] += o.result.promoted ? 1 : 0;
    queue.push_back(o.result.queue_seconds);
    run.push_back(o.result.run_seconds);
    wire.push_back(seconds_between(sent[i], o.at) - o.result.queue_seconds -
                   o.result.run_seconds);
    brackets.push_back(bracket_of(o.result));
    const core::PackingOptimum& packing =
        t.covering ? refs[k].covering.packing : refs[k].packing;
    probes.push_back(static_cast<double>(packing.decision_calls));
    iterations.push_back(static_cast<double>(packing.total_iterations));
    if (has_deadline && l * 1e3 <= classes[t.cls].deadline_ms) ++deadline_met;
    in_window += seconds_between(start, o.at) <= config.seconds ? 1 : 0;
  }
  const std::size_t beyond_p90 =
      latency.size() - static_cast<std::size_t>(0.9 * latency.size());
  std::cout << "serve-hot: " << n_jobs << " arrivals at " << rate
            << " jobs/s over " << config.seconds << " s, " << catalog.size()
            << " templates, " << lanes << " lanes x " << pool_width
            << " threads; set-up " << median(setup_s) << " s (median of "
            << reps << "); " << in_window << " answered within the window; latency p50 "
            << median(latency) << " s, p90 " << quantile(latency, 0.9)
            << " s (" << latency.size() << " samples, " << beyond_p90
            << " beyond p90); generator lateness p50 " << median(lateness)
            << " s, max " << quantile(lateness, 1.0) << " s; deadline jobs "
            << deadline_met << "/" << deadline_jobs << " in time\n";
  for (std::size_t c = 0; c < classes.size(); ++c) {
    std::cout << "  class " << classes[c].name << ": "
              << class_latency[c].size() << " jobs, latency p50 "
              << median(class_latency[c]) << " s, p90 "
              << quantile(class_latency[c], 0.9) << " s, "
              << class_promoted[c] << " widened\n";
  }

  outcome.add_end_to_end(
      setup_s, static_cast<double>(in_window) / config.seconds, latency,
      deadline_jobs > 0 ? static_cast<double>(deadline_met) /
                              static_cast<double>(deadline_jobs)
                        : 1,
      brackets);

  if (!tracer.enabled()) return;
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  outcome.add_layer("serve.queue_p90_s", quantile(queue, 0.9), "s");
  outcome.add_layer("serve.run_p50_s", median(run), "s");
  outcome.add_layer("serve.wire_p50_s", median(wire), "s");
  outcome.add_layer("serve.generator_lateness_p90_s", quantile(lateness, 0.9),
                    "s");
  outcome.add_layer("serve.cache.build_s", 0, "s");  // no misses after warm-up
  outcome.add_layer("serve.cache.build_share", 0, "ratio");
  outcome.add_layer("serve.preemptions",
                    delta(sched0.preemptions, sched1.preemptions), "count");
  outcome.add_layer("serve.promotions",
                    delta(sched0.promotions, sched1.promotions), "count");
  outcome.add_layer("serve.demotions",
                    delta(sched0.demotions, sched1.demotions), "count");
  outcome.add_layer("serve.shed", delta(sched0.shed, sched1.shed), "count");
  // SchedulerStats::peak_queue is a lifetime maximum that the warm-up burst
  // would dominate; the timed window's peak is rebuilt from its own jobs.
  outcome.add_layer("serve.peak_queue", peak_waiting(waiting), "count");
  const double lookups = delta(cache0.hits + cache0.misses,
                               cache1.hits + cache1.misses);
  outcome.add_layer("serve.cache.lookups", lookups, "count");
  outcome.add_layer("serve.cache.hit_ratio",
                    lookups > 0 ? delta(cache0.hits, cache1.hits) / lookups : 0,
                    "ratio");
  outcome.add_layer("serve.cache.evictions",
                    delta(cache0.evictions, cache1.evictions), "count");
  outcome.add_layer("serve.cache.workspace_reuses",
                    delta(cache0.workspace_reuses, cache1.workspace_reuses),
                    "count");
  outcome.add_layer("io.load_s", 0, "s");  // the daemon loads, not the bench
  outcome.add_layer("io.load_mb_per_s", 0, "MB/s");
  outcome.add_layer("sparse.index_builds", delta(builds0, builds1), "count");
  outcome.add_layer("sparse.plan_measurements", delta(plans0, plans1),
                    "count");
  outcome.add_layer("core.optimize.probes", median(probes), "count");
  outcome.add_layer("core.optimize.iterations", median(iterations), "count");
  add_par_metrics(outcome, cpu0, cpu1, pool_width,
                  static_cast<long>(n_jobs));

  // Oracle-layer decomposition on the first factorized template (the first
  // class is the tiny one: small panels, where fixed per-round costs weigh
  // most).
  const auto target = std::find_if(
      catalog.begin(), catalog.end(),
      [](const Template& t) { return t.factorized != nullptr; });
  if (target == catalog.end()) {
    throw std::runtime_error("serve-hot catalog has no factorized template");
  }
  DecompositionConfig decomposition;
  decomposition.decision_eps = params.num("solver.decision_eps");
  decomposition.sketch_rows = params.integer("solver.sketch_rows");
  decomposition.max_rounds = params.integer("decomposition_rounds");
  decomposition.pool_width = pool_width;
  measure_oracle_layers(*target->factorized, decomposition, tracer, outcome);
}

}  // namespace psdpbench
