// Factorized PSD matrices: A = Q Q^T with Q sparse (m x k).
//
// This is the "prefactored" input format of Theorem 4.1 / Corollary 1.2.
// Everything the width-independent solver needs from A_i is available
// without ever forming the m x m product:
//   trace(A)      = ||Q||_F^2
//   A x           = Q (Q^T x)
//   exp(Phi) . A  = ||exp(Phi/2) Q||_F^2    (the bigDotExp identity)
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace psdp::sparse {

/// Aspect ratio rows/cols at which a factor counts as "tall" and gets the
/// cached transpose index at construction: the per-output-row CSC gather
/// then replaces the owned-column scatter in every Q^T application (see
/// Csr::build_transpose_index). Below this the extra copy of the nonzeros
/// buys little; the solvers' factors (m x k with k small) are far above it.
inline constexpr Index kTransposeIndexAspect = 4;

/// One PSD matrix in factorized form.
class FactorizedPsd {
 public:
  FactorizedPsd() = default;

  /// Takes Q (m x k). The represented matrix is Q Q^T, of dimension m.
  /// Tall factors (rows >= kTransposeIndexAspect * cols) get the cached
  /// transpose index built here, so their Q^T kernels run the gather path.
  explicit FactorizedPsd(Csr q);

  /// As above, but the transpose index (and with it the segment grid and
  /// the KernelPlan) is built under the caller's options -- in particular
  /// TransposePlanOptions::autotune.plan_cache, which is how the serve
  /// layer's ArtifactCache routes plan memoization of the instances it
  /// prepares into its own owned cache instead of the process-wide one.
  FactorizedPsd(Csr q, const TransposePlanOptions& plan_options);

  /// Rank-1 special case A = v v^T (beamforming channels, graph edges).
  static FactorizedPsd rank_one(const Vector& v, Real drop_tol = 0);

  /// Factor a dense PSD matrix via its eigendecomposition:
  /// Q = V diag(sqrt(lambda)) restricted to the numerical rank.
  static FactorizedPsd from_dense_psd(const Matrix& a, Real tol = 1e-10);

  const Csr& q() const { return q_; }

  /// Build (idempotently) the factor's transpose index regardless of the
  /// aspect gate. The sharded sets call this for every factor when K > 1:
  /// the CSC gather kernels are thread-count deterministic, the fallback
  /// owned-column scatter is not.
  void ensure_transpose_index(const TransposePlanOptions& plan_options) {
    q_.build_transpose_index(plan_options);
  }

  Index dim() const { return q_.rows(); }
  Index factor_cols() const { return q_.cols(); }
  Index nnz() const { return q_.nnz(); }

  /// trace(Q Q^T) = ||Q||_F^2.
  Real trace() const { return q_.frobenius_norm2(); }

  /// Cached upper bound on lambda_max(Q Q^T), computed once at
  /// construction: the exact top eigenvalue of the k x k Gram matrix for
  /// small factor ranks (inflated a hair so eigensolver rounding cannot
  /// under-report a spectral norm), the trace for large ones. Always
  /// <= trace(), so bounds summed over a weighted set can never be looser
  /// than the trace-only bound. scaled() rescales the cached value, so
  /// probe searches over scaled instances pay the eigensolve only once.
  Real lambda_max_bound() const { return lambda_bound_; }

  /// Copy representing s * Q Q^T (factor scaled by sqrt(s), s >= 0),
  /// carrying the cached transpose index and lambda_max bound along
  /// instead of recomputing them.
  FactorizedPsd scaled(Real s) const;

  /// y = (Q Q^T) x via two SpMVs. Thread-safe (no shared scratch).
  void apply(const Vector& x, Vector& y) const;

  /// Y = (Q Q^T) X for a row-major dim() x b panel, via two SpMMs through
  /// the caller-provided k x b scratch panel (resized as needed).
  void apply_block(const Matrix& x, Matrix& y, Matrix& scratch) const;

  /// As above, recycling `partial` for the owned-column scatter when the
  /// factor has no transpose index (no-op scratch on the gather path); with
  /// caller-owned buffers the whole application is allocation-free once
  /// warm.
  void apply_block(const Matrix& x, Matrix& y, Matrix& scratch,
                   std::vector<Real>& partial) const;

  /// As above under a caller-provided transpose KernelPlan (nullptr or
  /// empty = this factor's own plan, built with its transpose index).
  void apply_block(const Matrix& x, Matrix& y, Matrix& scratch,
                   std::vector<Real>& partial, const KernelPlan* plan) const;

  /// (Q Q^T) . S for a dense symmetric S: sum of column quadratic forms.
  Real dot_dense(const Matrix& s) const;

  /// Dense copy Q Q^T.
  Matrix to_dense() const;

 private:
  Csr q_;
  Real lambda_bound_ = 0;  ///< cached lambda_max(Q Q^T) upper bound
};

/// The constraint set {A_i = Q_i Q_i^T}, plus totals used in the cost bounds
/// (q = total nnz across factors).
///
/// The weighted applies (Psi V with Psi = sum_i x_i A_i, never formed) run
/// in two phases whose cost follows the factor nonzeros, O(nnz b + sum_i
/// k_i b + dim b) per width-b panel:
///  * Phase A computes T_i = Q_i^T V (k_i x b) for every constraint with
///    nonzero weight, through the Csr transpose kernels and KernelPlan, into
///    its slice of a stacked workspace panel.
///  * Phase B zeroes each output row once and, for every constraint whose
///    factor has nonzeros in that row (ascending i), adds x_i (Q_i T_i)(r,:)
///    -- the rows computed by the same spmm_rows kernel Csr::apply_block
///    runs, the add the same uncontracted y += w * s as Matrix::add_scaled.
///    One row-chunked parallel region; inside a chunk each factor's runs of
///    consecutive non-empty rows go through the kernel in one call.
/// The stacked panel holds at most max(dim, k_i) rows: when sum_i k_i
/// exceeds dim() (many short factors), constraints are taken in ascending
/// groups that fit, one Phase A + Phase B pass each, so the workspace never
/// outgrows the output panel. Rows outside a factor's support contribute
/// x_i * 0 to a Y that starts at +0, so skipping them is bitwise identical
/// (for finite weights) to the per-constraint sum_i apply_block +
/// add_scaled the tests keep as their reference.
class FactorizedSet {
 public:
  FactorizedSet() = default;
  explicit FactorizedSet(std::vector<FactorizedPsd> items);

  Index size() const { return static_cast<Index>(items_.size()); }
  Index dim() const { return dim_; }
  Index total_nnz() const { return total_nnz_; }

  const FactorizedPsd& operator[](Index i) const;

  const std::vector<FactorizedPsd>& items() const { return items_; }

  /// Build (idempotently) every factor's transpose index under
  /// `plan_options` (FactorizedPsd::ensure_transpose_index); the sharded
  /// sets' K > 1 determinism leg. Factor supports are untouched.
  void ensure_transpose_indexes(const TransposePlanOptions& plan_options);

  /// Psi = sum_i x_i A_i as a sparse CSR matrix (union of factor supports).
  /// Entries with weight zero are skipped.
  Csr weighted_sum(const Vector& x) const;

  /// y = (sum_i x_i A_i) v without forming the sum: the two-phase apply at
  /// width 1 (see the class comment), bitwise equal to sum_i
  /// FactorizedPsd::apply + Vector::add_scaled in ascending i. Its stacked
  /// Q_i^T v scratch is per-thread and recycled, so steady-state calls
  /// allocate nothing.
  void weighted_apply(const Vector& x, const Vector& v, Vector& y) const;

  /// Scratch of the panel applies below; resized on first use and reusable
  /// across calls (capacity-preserving, so the steady state allocates
  /// nothing).
  struct BlockWorkspace {
    /// Phase A's stacked panel: the T_i = Q_i^T V (k_i x b) of one
    /// constraint group, back to back in constraint order, row-major.
    std::vector<Real> factor_panel;
    /// Phase B's per-chunk block of (Q_i T_i) rows.
    std::vector<Real> row_scratch;
    /// Per-chunk accumulators of the owned-column transpose scatter
    /// (unused by factors with a transpose index); recycled across calls.
    std::vector<Real> transpose_partial;
    /// Caller-provided transpose KernelPlan applied to every factor's Q^T
    /// panels (nullptr = each factor's own plan). big_dot_exp wires
    /// BigDotExpOptions::kernel_plan through here; holding a plan is a
    /// pointer copy, so the zero-allocation steady state is unaffected.
    const KernelPlan* plan = nullptr;

  };

  /// Y = (sum_i x_i A_i) V for a row-major dim() x b panel V: the two-phase
  /// apply (see the class comment). Column t is bit-identical to
  /// weighted_apply on column t whenever the factors' transpose kernels
  /// agree across widths (always with a transpose index).
  void weighted_apply_block(const Vector& x, const Matrix& v, Matrix& y,
                            BlockWorkspace& workspace) const;

 private:
  /// The shared two-phase body. `transpose(i, t)` writes T_i into its
  /// stacked slice `t`.
  template <typename Transpose>
  void apply_two_phase(const Vector& x, Index b, Real* y,
                       std::vector<Real>& stack,
                       std::vector<Real>& row_scratch,
                       const Transpose& transpose) const;

  std::vector<FactorizedPsd> items_;
  Index dim_ = 0;
  Index total_nnz_ = 0;
  /// Stacked-panel row offsets: factor i's T_i sits c_i = col_offsets_[i]
  /// rows into the sum_i k_i stacked rows (size() + 1 entries).
  std::vector<Index> col_offsets_;
  /// Gaps of at most this many empty rows inside a factor's support are
  /// bridged into one run: an empty row adds x_i * (+0), bitwise free, and
  /// one longer kernel call beats two short ones.
  static constexpr Index kRunGap = 4;
  /// A run [begin, end) of factor rows: non-empty at both ends, no gap
  /// longer than kRunGap inside. 32-bit rows keep the index small on
  /// many-factor instances.
  struct RowRun {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };
  /// Row support of every factor as ascending runs: factor i's runs are
  /// runs_[run_offsets_[i] .. run_offsets_[i+1]). Phase B touches only
  /// these rows, in calls as long as the runs.
  std::vector<RowRun> runs_;
  std::vector<Index> run_offsets_;
};

}  // namespace psdp::sparse
