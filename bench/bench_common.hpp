// Shared helpers for the experiment harness binaries (E1..E10).
//
// Every experiment prints: a header identifying the paper claim it
// regenerates, a table of measurements, and a one-line verdict comparing
// the measured shape with the claim (EXPERIMENTS.md records these).
#pragma once

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/penalty_oracle.hpp"
#include "core/solver_engine.hpp"
#include "util/common.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace psdp::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "\n=== " << id << " ===\n" << claim << "\n\n";
}

inline void print_verdict(bool ok, const std::string& text) {
  std::cout << "\n[" << (ok ? "SHAPE OK" : "SHAPE MISMATCH") << "] " << text
            << "\n";
}

/// Result of the steady-state-allocation guard (see run_steady_state_allocs
/// below; the ISSUE acceptance bar is allocations == 0).
struct SteadyStateAllocReport {
  Index warmup_iterations = 0;
  Index measured_iterations = 0;
  std::uint64_t allocations = 0;
};

/// Drive the factorized plain decision loop (oracle evaluation + coordinate
/// update, the paper's per-iteration primitive, then the probe epilogue's
/// lambda_max certificate) on a shared SolverWorkspace and count heap
/// allocations across the post-warmup iterations. `counter`
/// reads the binary's counting allocator (bench/alloc_counter.hpp must be
/// included by the binary's main translation unit).
template <typename CounterFn>
SteadyStateAllocReport run_steady_state_allocs(
    const core::FactorizedPackingInstance& instance, Real eps, Index warmup,
    Index measured, CounterFn&& counter) {
  core::SketchedOracleOptions oracle_options;
  oracle_options.eps = eps;
  core::SolverWorkspace workspace;
  oracle_options.workspace = &workspace;
  core::SketchedTaylorOracle oracle(instance, oracle_options);
  const core::AlgorithmConstants c =
      core::algorithm_constants(oracle.size(), eps);
  core::SolverState state = core::initial_state(oracle, "alloc-guard");
  core::PenaltyBatch batch;

  SteadyStateAllocReport report;
  report.warmup_iterations = warmup;
  report.measured_iterations = measured;
  for (Index t = 1; t <= warmup; ++t) {
    oracle.compute(state.x, static_cast<std::uint64_t>(t), batch);
    core::apply_update(state, batch, eps, c.alpha);
    oracle.lambda_max(state.x);
  }
  const std::uint64_t before = counter();
  for (Index t = warmup + 1; t <= warmup + measured; ++t) {
    oracle.compute(state.x, static_cast<std::uint64_t>(t), batch);
    core::apply_update(state, batch, eps, c.alpha);
    oracle.lambda_max(state.x);
  }
  report.allocations = counter() - before;
  return report;
}

/// Fitted power-law exponent of ys in xs, reported with R^2.
inline util::LinearFit report_exponent(const std::string& what,
                                       const std::vector<Real>& xs,
                                       const std::vector<Real>& ys) {
  const util::LinearFit fit = util::fit_loglog(xs, ys);
  std::cout << what << ": fitted exponent " << fit.slope
            << " (R^2 = " << fit.r_squared << ")\n";
  return fit;
}

/// Splice `section` into the JSON file at `path` as its `name` member,
/// replacing a previous one and preserving everything else (so e.g. the
/// "latency" and "daemon" sections coexist in BENCH_serve.json, and the
/// "sharding" section survives a bench_kernels rewrite-in-between only if
/// bench_shard runs after it). Falls back to a fresh standalone object
/// tagged `{"bench": root_label}` when the file is absent or unreadable.
inline void splice_json_section(const std::string& path,
                                const std::string& root_label,
                                const std::string& name,
                                const std::string& section) {
  std::string text;
  {
    std::ifstream in(path);
    if (in.is_open()) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
    }
  }
  const std::size_t close = text.rfind('}');
  if (close == std::string::npos) {
    text = str("{\n  \"bench\": \"", root_label, "\",\n  \"", name,
               "\": ", section, "\n}\n");
  } else {
    const std::size_t key = text.find(str("\"", name, "\""));
    if (key != std::string::npos) {
      // Erase from the comma before the key through the member's matching
      // closing brace.
      std::size_t begin = text.rfind(',', key);
      if (begin == std::string::npos) begin = key;
      std::size_t i = text.find('{', key);
      int depth = 0;
      while (i < text.size()) {
        if (text[i] == '{') ++depth;
        if (text[i] == '}' && --depth == 0) break;
        ++i;
      }
      PSDP_CHECK(i < text.size(), str(path, ": unbalanced braces in existing ",
                                      name, " section"));
      text.erase(begin, i + 1 - begin);
    }
    const std::size_t tail = text.rfind('}');
    text.insert(tail, str(",\n  \"", name, "\": ", section, "\n"));
  }
  std::ofstream out(path);
  out << text;
  out.flush();
  PSDP_CHECK(out.good(), str("cannot write ", path));
}

}  // namespace psdp::bench
