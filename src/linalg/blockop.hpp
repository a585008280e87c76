// Block (multi-vector) operators: the SpMM-style counterpart of SymmetricOp.
//
// A BlockOp applies a symmetric operator to a row-major n x b *panel* of b
// vectors at once (panel column t is vector t). Streaming the operator's
// data once per panel instead of once per vector amortizes the sparse-matrix
// traversal across all b right-hand sides and turns the inner loops into
// contiguous length-b dense updates -- the single biggest constant-factor
// lever in bigDotExp, whose r sketch rows are exactly such a panel.
//
// Panels are plain linalg::Matrix (row-major, so row i holds the i-th
// coordinate of all b vectors contiguously). Operators must accept any
// panel width; callers pick the width (the block size) to trade cache
// footprint against traversal amortization.
//
// This header also hosts the panel-kernel timing primitive
// (time_block_kernel) shared by the KernelPlan autotuner
// (sparse/kernel_plan.hpp) and the bench_kernels sweeps: both answer the
// same question -- "which panel kernel is fastest on this data?" -- and
// must answer it the same way.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/power.hpp"

namespace psdp::linalg {

/// A symmetric linear operator applied to a row-major n x b panel:
/// y(:, t) = A x(:, t) for every column t. Implementations may assume
/// x and y do not alias and must resize y to x's shape if needed.
using BlockOp = std::function<void(const Matrix& x, Matrix& y)>;

/// Fallback adapter: applies a single-vector operator column by column.
/// Correct for any SymmetricOp but amortizes nothing; real data structures
/// (Csr::apply_block, FactorizedSet::weighted_apply_block) provide native
/// panel kernels instead.
BlockOp block_op_from_symmetric(SymmetricOp op, Index dim);

/// Copies column `col` of a panel into a vector (resizing it).
void panel_column(const Matrix& panel, Index col, Vector& out);

/// Writes a vector into column `col` of a panel.
void set_panel_column(Matrix& panel, Index col, const Vector& in);

/// Knobs of time_block_kernel: how many repetitions, how many untimed
/// warmup runs before them, and a wall-clock floor below which extra
/// repetitions keep running. The defaults reproduce the original
/// best-of-2, no-warmup behavior; the KernelPlan autotuner raises them
/// (AutotuneOptions::warmup / min_sample_seconds) so its decisions are
/// stable on noisy or shared machines.
struct TimingOptions {
  /// Minimum timed repetitions; the best (minimum) is returned.
  int reps = 2;
  /// Untimed warmup runs before the first timed one (cache/branch-predictor
  /// priming; also absorbs first-touch page faults of fresh buffers).
  int warmup = 0;
  /// Keep timing additional repetitions until the *total* timed wall clock
  /// reaches this floor (0 = no floor). Capped at 64 repetitions overall so
  /// a mis-sized floor cannot hang a tuner.
  double min_elapsed_seconds = 0;
};

/// Best-of-N wall-clock seconds of a panel-kernel thunk under `options`.
/// The minimum over repetitions (not the mean) is what both the KernelPlan
/// autotuner and the bench_kernels sweeps record: kernel selection wants
/// the noise-free cost, and the floor of a few reps is the cheapest robust
/// estimate of it.
double time_block_kernel(const TimingOptions& options,
                         const std::function<void()>& body);

/// time_block_kernel with {reps, no warmup, no elapsed floor}.
double time_block_kernel(int reps, const std::function<void()>& body);

/// Best-of-N seconds of several competing kernel thunks, timed interleaved:
/// after every thunk's warmups, each round times every thunk once, in
/// order, so a slow spell on a shared machine hits all candidates alike
/// instead of deciding which one looks fastest. Rounds run until `reps`
/// are done and every thunk's timed total reaches the elapsed floor
/// (capped at 64 rounds). Entry k is thunk k's best round; for one thunk
/// this is exactly time_block_kernel.
std::vector<double> time_block_kernels(
    const TimingOptions& options,
    std::span<const std::function<void()>> bodies);

}  // namespace psdp::linalg
