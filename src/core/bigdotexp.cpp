#include "core/bigdotexp.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "linalg/power.hpp"
#include "linalg/taylor.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "rand/jl.hpp"
#include "simd/simd.hpp"

namespace psdp::core {

namespace {

using linalg::Matrix;

/// Lemma 4.2 is applied to B = Phi/2: the blocked kernels fold the 1/2 into
/// the Taylor recurrence's per-step scale (bitwise identical -- powers of
/// two scale exactly -- and saves the per-call wrapper closure the old
/// half-operator needed); the single-vector reference path below keeps the
/// explicit wrapper.
inline constexpr Real kHalfScale = 0.5;

/// Shard partition threaded through the sweeps: empty (or the trivial
/// {0, n}) means the legacy unsharded code path, byte-for-byte. More than
/// one shard engages the deterministic mode -- the per-constraint sweep
/// runs shard-by-shard in fixed order, and every cross-constraint
/// floating-point reduction switches from parallel_sum (whose chunking
/// follows the pool width) to par::deterministic_sum (fixed chunking).
struct ShardSpan {
  std::span<const Index> offsets;

  bool deterministic() const { return offsets.size() > 2; }

  /// Fold `body(k)` over [0, n): the legacy pool-width-chunked reduction in
  /// the unsharded mode, the fixed-chunk one in deterministic mode.
  template <typename Body>
  Real sum(Index n, Body&& body) const {
    return deterministic() ? par::deterministic_sum(0, n, body)
                           : par::parallel_sum(0, n, body);
  }

  /// Run `body(i)` for every constraint, grain 1. Deterministic mode issues
  /// one parallel_for per shard, in shard order -- each constraint's work
  /// is serial either way, so this only pins the sweep boundaries (and the
  /// metered shape) to the partition, never the bits of dots_i themselves.
  template <typename Body>
  void for_each_constraint(Index n, Body&& body) const {
    if (!deterministic()) {
      par::parallel_for(0, n, body, /*grain=*/1);
      return;
    }
    for (std::size_t k = 0; k + 1 < offsets.size(); ++k) {
      par::parallel_for(offsets[k], offsets[k + 1], body, /*grain=*/1);
    }
  }
};

/// Rows of S = Pi * p_hat(Phi/2), stored row-major (r x m). Row j is
/// p_hat(Phi/2)^T pi_j = p_hat(Phi/2) pi_j (Phi symmetric), one truncated-
/// Taylor application per row, all rows in parallel. This is the
/// single-vector reference path (block_size 1), kept verbatim as the
/// correctness baseline for the blocked kernels.
std::vector<Real> sketch_times_exp_half(const linalg::SymmetricOp& phi,
                                        Index dim, Index rows, Index degree,
                                        std::uint64_t seed, bool exact) {
  std::vector<Real> s(static_cast<std::size_t>(rows * dim));
  // Half-scaled operator: Lemma 4.2 is applied to B = Phi/2.
  const linalg::SymmetricOp half = [&phi](const Vector& x, Vector& y) {
    phi(x, y);
    y.scale(0.5);
  };
  std::optional<rand::GaussianSketch> pi;
  if (!exact) pi.emplace(rows, dim, seed);

  par::global_pool();  // warm up outside the loop (lazy init)
  par::parallel_for(0, rows, [&](Index j) {
    Vector x(dim);
    if (exact) {
      x[j] = 1;  // identity sketch: row j of p_hat itself
    } else {
      const auto row = pi->row(j);
      for (Index i = 0; i < dim; ++i) x[i] = row[static_cast<std::size_t>(i)];
    }
    Vector y(dim);
    linalg::apply_exp_taylor(half, degree, x, y);
    Real* out = s.data() + j * dim;
    for (Index i = 0; i < dim; ++i) out[i] = y[i];
  }, /*grain=*/1);
  return s;
}

/// Fill x_panel with sketch rows [j0, j0 + b): identity columns when the
/// sketch is exact (exactness implies rows == dim, so j0 + t < dim),
/// deferred Gaussian rows otherwise. Reuses x_panel's storage (capacity-
/// preserving reshape).
void fill_sketch_panel(const std::optional<rand::GaussianSketch>& pi,
                       bool exact, Index dim, Index j0, Index b,
                       Matrix& x_panel) {
  if (exact) {
    x_panel.reshape(dim, b);
    x_panel.fill(0);
    for (Index t = 0; t < b; ++t) x_panel(j0 + t, t) = 1;
  } else {
    pi->fill_block(j0, b, x_panel);
  }
}

/// dots_i = ||S Q_i||_F^2 from the reference r x m layout: entry
/// (row, c, v) of Q_i adds v * S[:, row] (stride dim) to output column c.
void accumulate_dots_reference(const std::vector<Real>& s, Index dim, Index r,
                               const sparse::FactorizedSet& as,
                               Vector& dots) {
  par::parallel_for(0, as.size(), [&](Index i) {
    const sparse::Csr& q = as[i].q();
    const Index k = q.cols();
    std::vector<Real> sq_cols(static_cast<std::size_t>(r * k), 0.0);
    for (Index row = 0; row < q.rows(); ++row) {
      const auto cols = q.row_cols(row);
      const auto vals = q.row_vals(row);
      for (std::size_t e = 0; e < cols.size(); ++e) {
        const Index c = cols[e];
        const Real v = vals[e];
        for (Index j = 0; j < r; ++j) {
          sq_cols[static_cast<std::size_t>(j * k + c)] +=
              v * s[static_cast<std::size_t>(j * dim + row)];
        }
      }
    }
    Real acc = 0;
    for (const Real v : sq_cols) acc += v * v;
    dots[i] = acc;
    par::CostMeter::add_work(
        static_cast<std::uint64_t>(r * (2 * q.nnz() + 2 * k)));
  }, /*grain=*/1);
}

/// Fused blocked path (the ROADMAP "one pass over S" item): panels of
/// `block` sketch rows go through the Taylor recurrence and their
/// contribution to every dots_i and to the trace is accumulated as soon as
/// the panel's last Taylor step finishes, while the panel is cache-hot.
/// Per panel and constraint, entry (row, c, v) of Q_i performs a contiguous
/// length-b AXPY from the panel row into a k x b accumulator whose squared
/// entries are the panel's share of ||S Q_i||_F^2. Nothing m x r is ever
/// materialized, and S is neither written back nor re-read. All scratch --
/// panels, Taylor recurrence, per-constraint accumulators -- lives in the
/// caller-owned workspace, so repeated calls allocate nothing once warm.
/// Returns the trace estimate ||S||_F^2; `dots` must be zero-initialized.
Real sketch_exp_dots_fused(const linalg::BlockOp& phi_block, Index dim,
                           Index rows, Index degree, std::uint64_t seed,
                           bool exact, Index block,
                           const sparse::FactorizedSet& as, ShardSpan shards,
                           SolverWorkspace& ws, Vector& dots) {
  std::optional<rand::GaussianSketch> pi;
  if (!exact) pi.emplace(rand::GaussianSketch::deferred(rows, dim, seed));

  // One k_i x b accumulator per constraint, recycled across panels and
  // across calls (assign() reuses capacity), so the hot parallel_for
  // performs no heap traffic once the workspace has seen this instance.
  if (static_cast<Index>(ws.accumulators.size()) < as.size()) {
    ws.accumulators.resize(static_cast<std::size_t>(as.size()));
  }
  Real trace = 0;
  par::global_pool();  // warm up outside the loop (lazy init)
  for (Index j0 = 0; j0 < rows; j0 += block) {
    const Index b = std::min(block, rows - j0);
    fill_sketch_panel(pi, exact, dim, j0, b, ws.x_panel);
    linalg::apply_exp_taylor_block(phi_block, degree, ws.x_panel, ws.y_panel,
                                   ws, kHalfScale);
    // Tr[exp(Phi)] ~ ||S||_F^2, one panel's rows at a time.
    trace += shards.sum(dim * b, [&](Index k) {
      return sq(ws.y_panel.data()[static_cast<std::size_t>(k)]);
    });
    // Per constraint: the panel's rows scatter into a k_i x b accumulator
    // through the dispatch seam (the scatter kernel is exactly this AXPY
    // loop; its scalar backend is the verbatim pre-seam loop), then the
    // accumulator's squared mass -- the panel's share of ||S Q_i||_F^2 --
    // reduces through the same seam.
    const simd::KernelTable& kt = simd::active_kernels();
    shards.for_each_constraint(as.size(), [&](Index i) {
      const sparse::Csr& q = as[i].q();
      const Index k = q.cols();
      std::vector<Real>& acc = ws.accumulators[static_cast<std::size_t>(i)];
      acc.assign(static_cast<std::size_t>(k * b), 0.0);
      kt.scatter_rows(q.row_offsets().data(), q.col_indices().data(),
                      q.values().data(), 0, q.rows(), b, ws.y_panel.data(),
                      acc.data());
      dots[i] += kt.sum_sq(acc.data(), k * b);
      par::CostMeter::add_work(
          static_cast<std::uint64_t>(b * (2 * q.nnz() + 2 * k)));
    });
    // Critical path of this panel beyond the Taylor sweep (which charges
    // its own depth): the trace reduction and the constraint sweep both
    // finish before the next panel starts, so they stack across the
    // ceil(r/block) sequential panels.
    par::CostMeter::add_depth(par::reduction_depth(dim * b) +
                              par::reduction_depth(as.size()));
  }
  return trace;
}

/// Shared implementation of the two workspace-form entry points. An empty
/// (or single-shard) `shards` runs the pre-sharding code byte-for-byte;
/// K > 1 pins every cross-constraint reduction order (see ShardSpan).
void big_dot_exp_impl(const linalg::SymmetricOp& phi,
                      const linalg::BlockOp& phi_block, Index dim, Real kappa,
                      const sparse::FactorizedSet& as, ShardSpan shards,
                      const BigDotExpOptions& options,
                      SolverWorkspace& workspace, BigDotExpResult& result) {
  PSDP_CHECK(dim >= 1, "big_dot_exp: dimension must be positive");
  PSDP_CHECK(as.dim() == dim, "big_dot_exp: constraint dimension mismatch");
  PSDP_CHECK(kappa >= 0, "big_dot_exp: kappa must be non-negative");
  PSDP_CHECK(options.eps > 0 && options.eps < 1,
             "big_dot_exp: eps must lie in (0,1)");
  PSDP_CHECK(options.block_size >= 0,
             "big_dot_exp: block_size must be non-negative");

  // Per-call plan override: the workspace-held plan (a shared workspace may
  // pin one for every solve that borrows it) yields to an explicit
  // options.kernel_plan *for this call only* -- the RAII guard restores the
  // pinned pointer on every exit path, so the override is never sticky and
  // a caller's stack-local plan never outlives the call inside the
  // workspace. Pointer copies only: the zero-allocation steady state is
  // preserved.
  struct PlanOverride {
    sparse::FactorizedSet::BlockWorkspace* factor;
    const sparse::KernelPlan* saved;
    PlanOverride(sparse::FactorizedSet::BlockWorkspace& f,
                 const sparse::KernelPlan* plan)
        : factor(&f), saved(f.plan) {
      if (plan != nullptr) f.plan = plan;
    }
    ~PlanOverride() { factor->plan = saved; }
  } plan_override(workspace.factor, options.kernel_plan);

  // Error budget: the Taylor truncation contributes up to 2*eps_t relative
  // error to ||p_hat Q||^2 (p_hat and exp commute, both PSD), the sketch
  // contributes +-eps_jl; split the target eps between them.
  const Real eps_taylor = options.eps / 4;
  const Real eps_jl = options.eps / 2;

  // Lemma 4.2 degree for B = Phi/2 (norm kappa/2); Theorem 4.1 uses
  // kappa >= max(1, ||Phi||_2), enforce the max(1, .) here.
  const Real kappa_half = std::max<Real>(1, kappa) / 2;
  result.taylor_degree =
      options.taylor_degree_override > 0
          ? options.taylor_degree_override
          : linalg::taylor_exp_degree(kappa_half, eps_taylor);

  // The identity "sketch" is exact and cheaper whenever the JL formula asks
  // for at least m rows (small instances); an explicit override is honored
  // verbatim so experiments can study sketching at any row count.
  if (options.sketch_rows_override > 0) {
    result.exact_sketch = false;
    result.sketch_rows = options.sketch_rows_override;
  } else {
    const Index jl = rand::jl_rows(dim, eps_jl, options.delta);
    result.exact_sketch = jl >= dim;
    result.sketch_rows = result.exact_sketch ? dim : jl;
  }
  const Index r = result.sketch_rows;

  Index block = options.block_size > 0
                    ? options.block_size
                    : std::min<Index>(kDefaultBlockSize, r);
  block = std::min(block, r);
  result.block_size = block;

  result.dots.resize(as.size());
  if (block == 1) {
    // Reference path: r independent Taylor matvec chains, r x m layout.
    const std::vector<Real> s = sketch_times_exp_half(
        phi, dim, r, result.taylor_degree, options.seed, result.exact_sketch);
    // Tr[exp(Phi)] = ||exp(Phi/2)||_F^2 ~ ||S||_F^2. (The reference dots
    // sweep below writes each dots_i from serial per-constraint work, so
    // this trace reduction is the path's only pool-width-sensitive fold.)
    result.trace_exp = shards.sum(
        r * dim, [&](Index k) { return sq(s[static_cast<std::size_t>(k)]); });
    accumulate_dots_reference(s, dim, r, as, result.dots);
    // Critical path of the r concurrent Taylor chains: one chain of k-1
    // matvecs (worker-side depth charges are dropped by the meter; the
    // blocked path's chains charge their own depth from the driver).
    par::CostMeter::add_depth(
        static_cast<std::uint64_t>(result.taylor_degree - 1) *
        (par::reduction_depth(dim) + 1));
    // The trace reduction and the dots pass run one after the other.
    par::CostMeter::add_depth(par::reduction_depth(dim) +
                              par::reduction_depth(as.size()));
  } else {
    // Fused blocked path: dots and trace accumulate per panel, right after
    // the panel's Taylor sweep -- no m x r buffer, no second pass over S --
    // and the sweep charges its own per-panel reduction depth.
    result.dots.fill(0);
    result.trace_exp = sketch_exp_dots_fused(
        phi_block, dim, r, result.taylor_degree, options.seed,
        result.exact_sketch, block, as, shards, workspace, result.dots);
  }
  // Frobenius reduction for the trace; the Phi applications, Taylor panel
  // arithmetic, sketch generation, and dots streaming charge themselves.
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * r * dim));
}

}  // namespace

void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::FactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result) {
  big_dot_exp_impl(phi, phi_block, dim, kappa, as, ShardSpan{}, options,
                   workspace, result);
}

void big_dot_exp(const linalg::SymmetricOp& phi,
                 const linalg::BlockOp& phi_block, Index dim, Real kappa,
                 const sparse::ShardedFactorizedSet& as,
                 const BigDotExpOptions& options, SolverWorkspace& workspace,
                 BigDotExpResult& result) {
  // A single-shard partition hands ShardSpan the trivial {0, n} offsets,
  // which it treats as "no partition" -- the legacy path, bit-identical.
  big_dot_exp_impl(phi, phi_block, dim, kappa, as.set(),
                   ShardSpan{as.shard_offsets()}, options, workspace, result);
}

BigDotExpResult big_dot_exp(const linalg::SymmetricOp& phi,
                            const linalg::BlockOp& phi_block, Index dim,
                            Real kappa, const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options) {
  SolverWorkspace workspace;
  BigDotExpResult result;
  big_dot_exp(phi, phi_block, dim, kappa, as, options, workspace, result);
  return result;
}

BigDotExpResult big_dot_exp(const linalg::SymmetricOp& phi, Index dim,
                            Real kappa, const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options) {
  // No native panel kernel: auto block size resolves to the reference path
  // (column-by-column blocking would amortize nothing); an explicit
  // block_size > 1 still exercises the blocked code via the adapter.
  BigDotExpOptions resolved = options;
  if (resolved.block_size == 0) resolved.block_size = 1;
  return big_dot_exp(phi, linalg::block_op_from_symmetric(phi, dim), dim,
                     kappa, as, resolved);
}

BigDotExpResult big_dot_exp(const sparse::Csr& phi, Real kappa,
                            const sparse::FactorizedSet& as,
                            const BigDotExpOptions& options) {
  PSDP_CHECK(phi.rows() == phi.cols(), "big_dot_exp: Phi must be square");
  const linalg::SymmetricOp op = [&phi](const Vector& x, Vector& y) {
    phi.apply(x, y);
  };
  const linalg::BlockOp block_op = [&phi](const linalg::Matrix& x,
                                          linalg::Matrix& y) {
    phi.apply_block(x, y);
  };
  Real k = kappa;
  if (k <= 0) {
    k = linalg::lambda_max_upper_bound(op, phi.rows());
  }
  return big_dot_exp(op, block_op, phi.rows(), k, as, options);
}

}  // namespace psdp::core
