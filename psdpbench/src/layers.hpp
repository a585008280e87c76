// Per-layer measurements made from outside the library: a traced replay of
// one decision probe through two bench-side decorators, the 1-vs-4 thread
// scaling of one oracle round, computed kernel counts of the Psi panel
// application, and the machine's sustainable memory bandwidth.
#pragma once

#include "core/instance.hpp"
#include "harness.hpp"

namespace psdpbench {

struct DecompositionConfig {
  double decision_eps = 0.25;  ///< eps of the replayed decision probe
  long sketch_rows = 16;       ///< BigDotExpOptions::sketch_rows_override
  long max_rounds = 40;        ///< round budget of the replayed probe
  int pool_width = 4;          ///< the run's pool width, restored after
};

/// Replays the first probe of approx_packing on `instance` (the instance
/// scaled to the initial bracket midpoint) as core::decision_factorized
/// would run it, but through a traced PenaltyOracle decorator around
/// SketchedTaylorOracle driven by core::run_decision_loop, whose rounds
/// call core::big_dot_exp with a traced BlockOp around
/// FactorizedSet::weighted_apply_block. Adds the core.*, sparse.psi_apply*,
/// trace.* and par.scaling_eff per-layer metrics; a decorator whose first
/// round differs from the undecorated oracle's counts as a failure.
void measure_oracle_layers(const psdp::core::FactorizedPackingInstance& instance,
                           const DecompositionConfig& config, Tracer& tracer,
                           Outcome& outcome);

/// STREAM-style triad a = b + s c over arrays totalling at least four times
/// the last-level cache, at the machine-sized width of 4 threads. Adds
/// machine.* metrics.
void measure_machine(Outcome& outcome);

}  // namespace psdpbench
