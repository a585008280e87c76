// The three workloads. Each fills `outcome` with its tallies, its
// end-to-end metrics and -- when the tracer is enabled -- the per-layer
// metrics derived from the outside-in trace. See README.md for why each
// workload exists and which layers it stresses.
#pragma once

#include "harness.hpp"

namespace psdpbench {

/// Open-loop Poisson stream at a fixed rate over a small repeated catalog,
/// through Solverd over the loopback transport with one SolverdClient.
void run_serve_hot(const Params& params, const RunConfig& config,
                   Tracer& tracer, Outcome& outcome);

/// Closed loop (at most `lanes` outstanding) over a catalog of distinct
/// instance files larger than the ArtifactCache, on an in-process
/// BatchScheduler.
void run_serve_cold(const Params& params, const RunConfig& config,
                    Tracer& tracer, Outcome& outcome);

/// Closed loop of one: repeated core::approx_packing with a fixed probe
/// budget on one many-constraint instance loaded from a chunked file.
void run_large_factorized(const Params& params, const RunConfig& config,
                          Tracer& tracer, Outcome& outcome);

}  // namespace psdpbench
