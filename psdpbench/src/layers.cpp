#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <vector>

#include "core/bigdotexp.hpp"
#include "core/decision.hpp"
#include "core/penalty_oracle.hpp"
#include "core/solver_engine.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"

namespace psdpbench {

using psdp::Index;
using psdp::Real;
namespace core = psdp::core;
namespace linalg = psdp::linalg;

namespace {

/// PenaltyOracle decorator around SketchedTaylorOracle. Size, traces, noise
/// bound and the lambda_max certificate delegate to the wrapped oracle
/// (lambda_max under a "core.oracle.lambda_max" span). compute() evaluates
/// the round through the public core::big_dot_exp with the same operands
/// the wrapped oracle uses -- Psi = sum_i x_i A_i in matvec and panel form,
/// the round's stream seed, kappa = min(cap, Tr Psi, sum_i x_i
/// lambda_max(A_i)) -- except that the panel operator is the traced BlockOp
/// around FactorizedSet::weighted_apply_block. Spans: "core.oracle.round"
/// > "core.bigdotexp" > "sparse.psi_apply".
class TracedOracle final : public core::PenaltyOracle {
 public:
  TracedOracle(const core::FactorizedPackingInstance& instance,
               const core::SketchedOracleOptions& options, Tracer& tracer)
      : instance_(&instance),
        inner_(instance, options),
        tracer_(&tracer),
        dot_options_(options.dot_options),
        kappa_cap_(options.kappa_cap),
        x_(instance.size()) {
    dot_options_.eps = options.dot_eps > 0 ? options.dot_eps : options.eps / 2;
    const psdp::sparse::FactorizedSet& set = instance.set();
    psi_op_ = [&set, this](const linalg::Vector& v, linalg::Vector& y) {
      set.weighted_apply(x_, v, y);
    };
    psi_block_op_ = [&set, this](const linalg::Matrix& v, linalg::Matrix& y) {
      Tracer::Scope span(*tracer_, "sparse.psi_apply");
      set.weighted_apply_block(x_, v, y, workspace_.factor);
      psi_calls_.fetch_add(1, std::memory_order_relaxed);
    };
  }

  Index size() const override { return inner_.size(); }
  Index dim() const override { return inner_.dim(); }
  Real constraint_trace(Index i) const override {
    return inner_.constraint_trace(i);
  }
  Real noise_bound() const override { return inner_.noise_bound(); }

  void compute(const linalg::Vector& x, std::uint64_t round,
               core::PenaltyBatch& out) override {
    Tracer::Scope span(*tracer_, "core.oracle.round");
    x_ = x;
    Real trace_psi = 0;
    Real lambda_bound = 0;
    for (Index i = 0; i < size(); ++i) {
      trace_psi += x_[i] * instance_->constraint_trace(i);
      lambda_bound += x_[i] * instance_->set()[i].lambda_max_bound();
    }
    const Real runtime = std::max<Real>(0, std::min(trace_psi, lambda_bound));
    const Real kappa =
        kappa_cap_ > 0 ? std::min(kappa_cap_, runtime) : runtime;
    core::BigDotExpOptions round_options = dot_options_;
    round_options.seed = psdp::rand::stream_seed(dot_options_.seed, round);
    {
      Tracer::Scope inner(*tracer_, "core.bigdotexp");
      core::big_dot_exp(psi_op_, psi_block_op_, dim(), kappa,
                        instance_->sharded(), round_options, workspace_,
                        result_);
    }
    out.dots = result_.dots;
    out.trace = result_.trace_exp;
    out.lambda_max_psi = 0;
    out.weight = nullptr;
    out.weight_vec = nullptr;
    degrees_.push_back(static_cast<double>(result_.taylor_degree));
  }

  Real lambda_max(const linalg::Vector& weights) override {
    Tracer::Scope span(*tracer_, "core.oracle.lambda_max");
    return inner_.lambda_max(weights);
  }

  const std::vector<double>& degrees() const { return degrees_; }
  const core::BigDotExpResult& last_result() const { return result_; }
  const linalg::Vector& last_x() const { return x_; }
  long psi_calls() const { return psi_calls_.load(); }

 private:
  const core::FactorizedPackingInstance* instance_;
  core::SketchedTaylorOracle inner_;
  Tracer* tracer_;
  core::BigDotExpOptions dot_options_;
  Real kappa_cap_;
  linalg::Vector x_;
  linalg::SymmetricOp psi_op_;
  linalg::BlockOp psi_block_op_;
  core::SolverWorkspace workspace_;
  core::BigDotExpResult result_;
  std::vector<double> degrees_;
  std::atomic<long> psi_calls_{0};
};

bool same_bits(const core::PenaltyBatch& a, const core::PenaltyBatch& b) {
  if (a.trace != b.trace || a.dots.size() != b.dots.size()) return false;
  for (Index i = 0; i < a.dots.size(); ++i) {
    if (a.dots[i] != b.dots[i]) return false;
  }
  return true;
}

bool same_bits(const linalg::Vector& a, const linalg::Vector& b) {
  if (a.size() != b.size()) return false;
  for (Index i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// The width the load is sized for (a 4-core machine): par.scaling_eff
/// compares one thread against it and the triad runs at it, whatever the
/// run's own pool width.
constexpr int kMachineWidth = 4;

/// Best-of-3 wall seconds of one undecorated oracle round at `threads`.
double round_seconds(const core::FactorizedPackingInstance& instance,
                     const core::SketchedOracleOptions& options,
                     const linalg::Vector& x, int threads) {
  psdp::par::set_num_threads(threads);
  core::SketchedTaylorOracle oracle(instance, options);
  core::PenaltyBatch batch;
  oracle.compute(x, 0, batch);  // warm the workspace
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 1; rep <= 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    oracle.compute(x, static_cast<std::uint64_t>(rep), batch);
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  return best;
}

}  // namespace

void measure_oracle_layers(const core::FactorizedPackingInstance& instance,
                           const DecompositionConfig& config, Tracer& tracer,
                           Outcome& outcome) {
  // The first probe of approx_packing runs at the geometric midpoint of the
  // initial bracket [1/min Tr A_i, dim/min Tr A_i].
  Real min_trace = std::numeric_limits<Real>::infinity();
  for (Index i = 0; i < instance.size(); ++i) {
    min_trace = std::min(min_trace, instance.constraint_trace(i));
  }
  const Real v = std::sqrt(1 / min_trace) *
                 std::sqrt(static_cast<Real>(instance.dim()) / min_trace);
  const core::FactorizedPackingInstance scaled = instance.scaled(v);

  core::DecisionOptions decision;
  decision.eps = config.decision_eps;
  decision.dot_options.sketch_rows_override = config.sketch_rows;
  decision.max_iterations_override = config.max_rounds;
  // Exactly the oracle configuration core::decision_factorized builds.
  core::SketchedOracleOptions oracle_options;
  oracle_options.eps = decision.eps;
  oracle_options.dot_eps = decision.dot_eps;
  oracle_options.dot_options = decision.dot_options;
  oracle_options.kappa_cap =
      core::algorithm_constants(scaled.size(), decision.eps).spectrum_bound;

  // Fidelity gate: the decorator's first round must reproduce the wrapped
  // oracle's bit for bit, or its spans would describe a different solve.
  {
    Tracer off(false);
    TracedOracle traced(scaled, oracle_options, off);
    core::SketchedTaylorOracle plain(scaled, oracle_options);
    const linalg::Vector x0 = core::initial_weights(plain, "psdpbench");
    core::PenaltyBatch expected, got;
    plain.compute(x0, 0, expected);
    traced.compute(x0, 0, got);
    if (!same_bits(expected, got)) {
      outcome.fail("traced oracle round 0 differs from SketchedTaylorOracle");
    }
  }

  // Untraced twin of the traced probe: the tracing-overhead baseline.
  Clock::time_point t0 = Clock::now();
  const core::DecisionResult plain = core::decision_factorized(scaled, decision);
  const double first_plain_s = seconds_between(t0, Clock::now());

  TracedOracle traced(scaled, oracle_options, tracer);
  core::DecisionResult result;
  t0 = Clock::now();
  {
    Tracer::Scope job(tracer, "decomposition.job");
    core::EngineRun run = core::run_decision_loop(traced, decision);
    result = core::finish_decision(std::move(run), traced,
                                   /*dense_primal=*/false);
  }
  const double traced_s = seconds_between(t0, Clock::now());
  // Second untraced run after the traced one, so warm-up order does not
  // bias the overhead estimate; the faster of the two is the baseline.
  t0 = Clock::now();
  core::decision_factorized(scaled, decision);
  const double plain_s = std::min(first_plain_s,
                                  seconds_between(t0, Clock::now()));
  const bool identical = result.iterations == plain.iterations &&
                         same_bits(result.dual_x_tight, plain.dual_x_tight);

  const double job_s = median(tracer.durations("decomposition.job"));
  const double loop_self = median(tracer.self_times("decomposition.job"));
  const std::vector<double> rounds = tracer.durations("core.oracle.round");
  const std::vector<double> round_self = tracer.self_times("core.oracle.round");
  const std::vector<double> lambda = tracer.durations("core.oracle.lambda_max");
  const std::vector<double> big_self = tracer.self_times("core.bigdotexp");
  const std::vector<double> psi = tracer.durations("sparse.psi_apply");
  const double oracle_self_total = sum(round_self) + sum(lambda);
  const double accounted =
      loop_self + oracle_self_total + sum(big_self) + sum(psi);

  // Computed (not measured) kernel counts of one Psi panel application of
  // width b: the factor sweeps touch every nonzero twice per column
  // (Q_i^T V, then Q_i (Q_i^T V)); the accumulate adds a dense dim x b
  // contribution per constraint into Y. Bytes: 12 per nonzero visit
  // (value + index) plus a panel row of b doubles gathered or scattered per
  // visit; the accumulate zeroes, reads and read-modify-writes dim x b
  // doubles per constraint (32 bytes per entry).
  const double b = static_cast<double>(traced.last_result().block_size);
  const double nnz = static_cast<double>(scaled.total_nnz());
  const double n = static_cast<double>(scaled.size());
  const double d = static_cast<double>(scaled.dim());
  const double flops_nnz = 4 * nnz * b;
  const double flops_accum = 2 * n * d * b;
  const double bytes_nnz = 2 * nnz * (12 + 8 * b);
  const double bytes_accum = 32 * n * d * b;
  const double psi_total = sum(psi);
  const double calls = static_cast<double>(psi.size());

  std::cout << "decomposition: " << rounds.size() << " oracle rounds, "
            << psi.size() << " Psi panel applications, job " << job_s
            << " s = loop self " << loop_self << " + oracle self "
            << oracle_self_total << " + bigdotexp self " << sum(big_self)
            << " + sparse " << psi_total << " (sum " << accounted
            << " s); untraced twin " << plain_s << " s, traced " << traced_s
            << " s, results " << (identical ? "identical" : "differ")
            << "\n";
  std::cout << "Psi apply computed counts per call (b=" << b << "): flops "
            << flops_nnz << " nnz-term + " << flops_accum
            << " accumulate-term; bytes " << bytes_nnz << " + " << bytes_accum
            << "\n";

  outcome.add_layer("core.oracle.round_s", median(rounds), "s");
  outcome.add_layer("core.oracle.self_s", median(round_self), "s");
  outcome.add_layer("core.oracle.lambda_max_s", median(lambda), "s");
  outcome.add_layer("core.oracle.share",
                    job_s > 0 ? (sum(rounds) + sum(lambda)) / job_s : 0,
                    "ratio");
  outcome.add_layer("core.bigdotexp.self_s", median(big_self), "s");
  outcome.add_layer("core.taylor_degree", median(traced.degrees()), "count");
  outcome.add_layer("core.sketch_rows",
                    static_cast<double>(traced.last_result().sketch_rows),
                    "count");
  outcome.add_layer("core.loop.self_share", job_s > 0 ? loop_self / job_s : 0,
                    "ratio");
  outcome.add_layer("core.oracle.self_share",
                    job_s > 0 ? oracle_self_total / job_s : 0, "ratio");
  outcome.add_layer("core.bigdotexp.self_share",
                    job_s > 0 ? sum(big_self) / job_s : 0, "ratio");
  outcome.add_layer("sparse.psi_apply_share",
                    job_s > 0 ? psi_total / job_s : 0, "ratio");
  outcome.add_layer("sparse.psi_apply_s", median(psi), "s");
  outcome.add_layer("sparse.psi_apply_calls",
                    rounds.empty() ? 0 : calls / static_cast<double>(rounds.size()),
                    "count");
  outcome.add_layer("sparse.psi_apply_flops_nnz_term", flops_nnz, "count");
  outcome.add_layer("sparse.psi_apply_flops_accum_term", flops_accum, "count");
  outcome.add_layer("sparse.psi_apply_bytes_nnz_term", bytes_nnz, "B");
  outcome.add_layer("sparse.psi_apply_bytes_accum_term", bytes_accum, "B");
  outcome.add_layer(
      "sparse.psi_apply_gflops_computed",
      psi_total > 0 ? calls * (flops_nnz + flops_accum) / psi_total / 1e9 : 0,
      "GFLOP/s");
  outcome.add_layer(
      "sparse.psi_apply_gbps_computed",
      psi_total > 0 ? calls * (bytes_nnz + bytes_accum) / psi_total / 1e9 : 0,
      "GB/s");
  outcome.add_layer("trace.residual_share",
                    job_s > 0 ? std::abs(job_s - accounted) / job_s : 0,
                    "ratio");
  outcome.add_layer("trace.overhead_frac",
                    plain_s > 0 ? (traced_s - plain_s) / plain_s : 0, "ratio");
  outcome.add_layer("trace.decorated_identical", identical ? 1 : 0, "bool");

  // par.scaling_eff: one undecorated oracle round at the last replayed
  // weights, 1 thread vs the machine-sized width, whatever the run's pool
  // width; the run's width is restored afterwards.
  const linalg::Vector x = traced.last_x();
  const double one = round_seconds(scaled, oracle_options, x, 1);
  const double wide =
      round_seconds(scaled, oracle_options, x, kMachineWidth);
  psdp::par::set_num_threads(config.pool_width);
  std::cout << "oracle round: " << one << " s at 1 thread, " << wide
            << " s at " << kMachineWidth << " threads\n";
  outcome.add_layer("par.scaling_eff",
                    wide > 0 ? one / (kMachineWidth * wide) : 0, "ratio");
}

namespace {

/// Last-level cache size in bytes from sysfs (0 when unknown).
double llc_bytes() {
  double best = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(dir + "/level");
    std::ifstream size_file(dir + "/size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) {
      continue;
    }
    double value = std::atof(size.c_str());
    const char unit = size.back();
    if (unit == 'K') value *= 1024;
    if (unit == 'M') value *= 1024 * 1024;
    if (unit == 'G') value *= 1024.0 * 1024 * 1024;
    if (level >= 2) best = std::max(best, value);
  }
  return best;
}

}  // namespace

void measure_machine(Outcome& outcome) {
  const double llc = llc_bytes();
  const double cache = llc > 0 ? llc : 32.0 * 1024 * 1024;
  // Three arrays totalling four times the cache.
  const Index n = static_cast<Index>(std::ceil(4 * cache / (3 * 8)));
  std::vector<double> a(static_cast<std::size_t>(n));
  std::vector<double> bv(static_cast<std::size_t>(n), 1.0);
  std::vector<double> c(static_cast<std::size_t>(n), 2.0);
  const auto triad = [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      a[static_cast<std::size_t>(i)] =
          bv[static_cast<std::size_t>(i)] + 3.0 * c[static_cast<std::size_t>(i)];
    }
  };
  const int run_width = psdp::par::num_threads();
  psdp::par::set_num_threads(kMachineWidth);
  psdp::par::parallel_for_chunked(0, n, triad, 1 << 16);  // first touch of a
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    psdp::par::parallel_for_chunked(0, n, triad, 1 << 16);
    best = std::min(best, seconds_between(t0, Clock::now()));
  }
  psdp::par::set_num_threads(run_width);
  if (a[static_cast<std::size_t>(n / 2)] != 7.0) {
    outcome.fail("triad produced a wrong value");
  }
  const double array_mb = 3 * 8 * static_cast<double>(n) / (1024 * 1024);
  const double gbps = 3 * 8 * static_cast<double>(n) / best / 1e9;
  std::cout << "triad: " << gbps << " GB/s over 3 arrays totalling "
            << array_mb << " MiB (LLC " << cache / (1024 * 1024) << " MiB"
            << (llc > 0 ? "" : ", unknown: assumed") << ")\n";
  outcome.add_layer("machine.triad_gbps", gbps, "GB/s");
  outcome.add_layer("machine.triad_arrays_mb", array_mb, "MiB");
  outcome.add_layer("machine.llc_mb", cache / (1024 * 1024), "MiB");
}

}  // namespace psdpbench
