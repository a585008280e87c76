#include "sparse/factorized.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/eig.hpp"
#include "linalg/matfunc.hpp"
#include "par/cost_meter.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"

namespace psdp::sparse {

namespace {

/// Factor ranks above this skip the exact Gram eigenvalue and fall back to
/// the trace bound (the k x k eigensolve would cost O(k^3) at setup).
constexpr Index kGramEigMaxRank = 128;

/// Upper bound on lambda_max(Q Q^T) = lambda_max(Q^T Q); see
/// FactorizedPsd::lambda_max_bound.
Real factor_lambda_max_bound(const Csr& q) {
  const Real trace = q.frobenius_norm2();
  const Index k = q.cols();
  if (k > kGramEigMaxRank) return trace;
  Matrix gram(k, k);
  for (Index row = 0; row < q.rows(); ++row) {
    const auto cols = q.row_cols(row);
    const auto vals = q.row_vals(row);
    for (std::size_t a = 0; a < cols.size(); ++a) {
      for (std::size_t b = 0; b < cols.size(); ++b) {
        gram(cols[a], cols[b]) += vals[a] * vals[b];
      }
    }
  }
  const Real lmax = linalg::lambda_max_exact(gram) * (1 + 1e-9);
  return std::min(std::max<Real>(lmax, 0), trace);
}

}  // namespace

FactorizedPsd::FactorizedPsd(Csr q)
    : FactorizedPsd(std::move(q), TransposePlanOptions{}) {}

FactorizedPsd::FactorizedPsd(Csr q, const TransposePlanOptions& plan_options)
    : q_(std::move(q)) {
  PSDP_CHECK(q_.rows() >= 1, "factorized PSD: Q must have at least one row");
  // Tall factors get the cached CSC view: every Q^T application (two per
  // Taylor step on the sketched hot path) then runs the gather kernel
  // instead of the owned-column scatter.
  if (q_.rows() >=
      kTransposeIndexAspect * std::max<Index>(1, q_.cols())) {
    q_.build_transpose_index(plan_options);
  }
  lambda_bound_ = factor_lambda_max_bound(q_);
}

FactorizedPsd FactorizedPsd::scaled(Real s) const {
  PSDP_CHECK(s >= 0 && std::isfinite(s),
             "factorized PSD: scale must be non-negative finite");
  FactorizedPsd out = *this;  // keeps the transpose index
  out.q_.scale(std::sqrt(s));
  // lambda_max(s Q Q^T) = s lambda_max(Q Q^T); the cached bound's 1e-9
  // inflation dwarfs the sqrt's rounding, so scaling the bound (instead of
  // re-running the Gram eigensolve per probe) stays sound.
  out.lambda_bound_ = lambda_bound_ * s;
  return out;
}

FactorizedPsd FactorizedPsd::rank_one(const Vector& v, Real drop_tol) {
  std::vector<Triplet> triplets;
  for (Index i = 0; i < v.size(); ++i) {
    if (std::abs(v[i]) > drop_tol) triplets.push_back({i, 0, v[i]});
  }
  return FactorizedPsd(Csr::from_triplets(v.size(), 1, std::move(triplets)));
}

FactorizedPsd FactorizedPsd::from_dense_psd(const Matrix& a, Real tol) {
  const linalg::EigResult eig = linalg::sym_eig(a);
  const Real lmax = std::max(eig.eigenvalues[0], Real{0});
  const Real cutoff = tol * std::max(lmax, Real{1});
  PSDP_CHECK(eig.eigenvalues[eig.eigenvalues.size() - 1] >= -cutoff,
             "from_dense_psd: matrix is not PSD");
  std::vector<Triplet> triplets;
  Index k = 0;
  for (Index c = 0; c < eig.eigenvalues.size(); ++c) {
    if (eig.eigenvalues[c] <= cutoff) continue;
    const Real s = std::sqrt(eig.eigenvalues[c]);
    for (Index r = 0; r < a.rows(); ++r) {
      const Real v = s * eig.eigenvectors(r, c);
      if (v != 0) triplets.push_back({r, k, v});
    }
    ++k;
  }
  if (k == 0) k = 1;  // zero matrix: keep a valid empty m x 1 factor
  return FactorizedPsd(Csr::from_triplets(a.rows(), k, std::move(triplets)));
}

void FactorizedPsd::apply(const Vector& x, Vector& y) const {
  Vector scratch(q_.cols());
  q_.apply_transpose(x, scratch);
  q_.apply(scratch, y);
}

void FactorizedPsd::apply_block(const Matrix& x, Matrix& y,
                                Matrix& scratch) const {
  q_.apply_transpose_block(x, scratch);
  q_.apply_block(scratch, y);
}

void FactorizedPsd::apply_block(const Matrix& x, Matrix& y, Matrix& scratch,
                                std::vector<Real>& partial) const {
  q_.apply_transpose_block(x, scratch, partial);
  q_.apply_block(scratch, y);
}

void FactorizedPsd::apply_block(const Matrix& x, Matrix& y, Matrix& scratch,
                                std::vector<Real>& partial,
                                const KernelPlan* plan) const {
  q_.apply_transpose_block(x, scratch, partial, plan);
  q_.apply_block(scratch, y);
}

Real FactorizedPsd::dot_dense(const Matrix& s) const {
  PSDP_CHECK(s.rows() == dim() && s.cols() == dim(),
             "dot_dense: dimension mismatch");
  // (Q Q^T) . S = sum_c q_c^T S q_c over columns q_c of Q. Work it row-wise:
  // sum_{i,j} S_ij (Q Q^T)_ij done as sum_i <row_i(Q), t_i> where
  // t = S Q columnwise is O(m^2 k); for sparse Q iterate entries directly.
  Real acc = 0;
  for (Index i = 0; i < q_.rows(); ++i) {
    const auto ci = q_.row_cols(i);
    const auto vi = q_.row_vals(i);
    if (ci.empty()) continue;
    for (Index j = 0; j < q_.rows(); ++j) {
      const auto cj = q_.row_cols(j);
      const auto vj = q_.row_vals(j);
      if (cj.empty()) continue;
      // (Q Q^T)_{ij} = <row_i, row_j> via sorted-merge.
      Real qij = 0;
      std::size_t a = 0, b = 0;
      while (a < ci.size() && b < cj.size()) {
        if (ci[a] == cj[b]) {
          qij += vi[a] * vj[b];
          ++a;
          ++b;
        } else if (ci[a] < cj[b]) {
          ++a;
        } else {
          ++b;
        }
      }
      acc += qij * s(i, j);
    }
  }
  return acc;
}

Matrix FactorizedPsd::to_dense() const {
  const Matrix qd = q_.to_dense();
  Matrix result = linalg::gemm(qd, qd.transposed());
  result.symmetrize();
  return result;
}

FactorizedSet::FactorizedSet(std::vector<FactorizedPsd> items)
    : items_(std::move(items)) {
  PSDP_CHECK(!items_.empty(), "factorized set must be non-empty");
  dim_ = items_[0].dim();
  PSDP_CHECK(dim_ < (Index{1} << 32) - kRunGap,
             "factorized set: dimension exceeds the 32-bit row runs");
  // Support runs of factor i, ascending: consecutive non-empty rows,
  // bridging gaps of up to kRunGap empty rows (see RowRun). Counted in a
  // first pass so runs_ is allocated once, at its exact size -- on
  // many-factor instances a growing vector would leave its discarded
  // buffers behind as heap slack.
  const auto for_each_run = [this](const FactorizedPsd& item,
                                   const auto& emit) {
    const auto offsets = item.q().row_offsets();
    RowRun run{0, 0};
    for (Index r = 0; r < dim_; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      if (offsets[ur] == offsets[ur + 1]) continue;
      const auto row = static_cast<std::uint32_t>(r);
      if (run.end > run.begin && row - run.end > kRunGap) {
        emit(run);
        run.begin = row;
      } else if (run.end == run.begin) {
        run.begin = row;
      }
      run.end = row + 1;
    }
    if (run.end > run.begin) emit(run);
  };
  col_offsets_.assign(items_.size() + 1, 0);
  run_offsets_.assign(items_.size() + 1, 0);
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const FactorizedPsd& item = items_[i];
    PSDP_CHECK(item.dim() == dim_, "factorized set: inconsistent dimensions");
    total_nnz_ += item.nnz();
    col_offsets_[i + 1] = col_offsets_[i] + item.factor_cols();
    Index count = 0;
    for_each_run(item, [&](const RowRun&) { ++count; });
    run_offsets_[i + 1] = run_offsets_[i] + count;
  }
  runs_.reserve(static_cast<std::size_t>(run_offsets_.back()));
  for (const FactorizedPsd& item : items_) {
    for_each_run(item, [&](const RowRun& run) { runs_.push_back(run); });
  }
}

const FactorizedPsd& FactorizedSet::operator[](Index i) const {
  PSDP_CHECK(i >= 0 && i < size(), "factorized set: index out of range");
  return items_[static_cast<std::size_t>(i)];
}

void FactorizedSet::ensure_transpose_indexes(
    const TransposePlanOptions& plan_options) {
  for (FactorizedPsd& item : items_) {
    item.ensure_transpose_index(plan_options);
  }
}

Csr FactorizedSet::weighted_sum(const Vector& x) const {
  PSDP_CHECK(x.size() == size(), "weighted_sum: weight length mismatch");
  std::vector<Triplet> triplets;
  for (Index idx = 0; idx < size(); ++idx) {
    const Real w = x[idx];
    if (w == 0) continue;
    const Csr& q = items_[static_cast<std::size_t>(idx)].q();
    // Contribute w * Q Q^T entry-wise: for each pair of entries in the same
    // factor column. To stay near-linear we expand by factor column: column c
    // of Q contributes w * q_c q_c^T restricted to its nonzeros.
    // Gather columns once.
    std::vector<std::vector<std::pair<Index, Real>>> by_col(
        static_cast<std::size_t>(q.cols()));
    for (Index r = 0; r < q.rows(); ++r) {
      const auto cols = q.row_cols(r);
      const auto vals = q.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        by_col[static_cast<std::size_t>(cols[k])].push_back({r, vals[k]});
      }
    }
    for (const auto& col : by_col) {
      for (const auto& [r1, v1] : col) {
        for (const auto& [r2, v2] : col) {
          triplets.push_back({r1, r2, w * v1 * v2});
        }
      }
    }
  }
  if (triplets.empty()) {
    return Csr::from_triplets(dim_, dim_, {});
  }
  return Csr::from_triplets(dim_, dim_, std::move(triplets));
}

namespace {

/// Entry updates one Phase B chunk should carry before the row sweep is
/// worth a pool dispatch. Smaller sweeps run inline: on the paper-regime
/// instances (a few tens of thousands of updates per panel) a 2-way split
/// measured slower than the inline sweep, the wake-ups costing more than
/// the halved work.
constexpr Index kPhaseBChunkWork = Index{1} << 16;

/// Rows of one Phase B kernel call: longer support runs are cut into
/// pieces of this height, which bounds the per-chunk row buffer.
constexpr Index kPhaseBRowBlock = 64;

}  // namespace

template <typename Transpose>
void FactorizedSet::apply_two_phase(const Vector& x, Index b, Real* y,
                                    std::vector<Real>& stack,
                                    std::vector<Real>& row_scratch,
                                    const Transpose& transpose) const {
  const simd::KernelTable& kt = simd::active_kernels();
  Index active_nnz = 0;
  for (Index i = 0; i < size(); ++i) {
    if (x[i] != 0) active_nnz += items_[static_cast<std::size_t>(i)].nnz();
  }
  // Phase B's row chunking depends only on the shape, never on which
  // thread runs a chunk; rows are independent, so neither changes a bit.
  const Index chunks = std::clamp<Index>(
      ((dim_ + active_nnz) * b + kPhaseBChunkWork - 1) / kPhaseBChunkWork, 1,
      std::min<Index>(dim_, par::num_threads()));
  const Index chunk_rows = (dim_ + chunks - 1) / chunks;
  const Index block_rows = std::min(chunk_rows, kPhaseBRowBlock);
  const auto scratch_size = static_cast<std::size_t>(chunks * block_rows * b);
  if (row_scratch.size() < scratch_size) row_scratch.resize(scratch_size);

  // Constraints go through in groups whose stacked T_i fit in dim() rows,
  // so the workspace never outgrows the output panel. A group holds every
  // constraint whenever sum_i k_i <= dim() -- the tall-factor regime --
  // and then the apply is exactly one Phase A and one Phase B region.
  Index group_end = 0;
  for (Index group = 0; group < size(); group = group_end) {
    const Index base = col_offsets_[static_cast<std::size_t>(group)];
    group_end = group + 1;
    while (group_end < size() &&
           col_offsets_[static_cast<std::size_t>(group_end) + 1] - base <=
               dim_) {
      ++group_end;
    }
    const auto stack_size = static_cast<std::size_t>(
        (col_offsets_[static_cast<std::size_t>(group_end)] - base) * b);
    if (stack.size() < stack_size) stack.resize(stack_size);

    // Phase A: T_i = Q_i^T V into factor i's slice of the stacked panel,
    // through the Csr transpose kernels exactly as a per-factor apply runs
    // them (same kernels, same plan, same bits).
    bool any_active = false;
    for (Index i = group; i < group_end; ++i) {
      if (x[i] == 0) continue;
      const auto ui = static_cast<std::size_t>(i);
      transpose(ui, stack.data() + (col_offsets_[ui] - base) * b);
      any_active = true;
    }
    if (!any_active && group > 0) continue;

    // Phase B: each chunk zeroes its rows once (first group), then adds
    // x_i (Q_i T_i)(r,:) for every row r of every support run of Q_i it
    // owns, constraints ascending -- so each row still accumulates its
    // terms in ascending i, as the per-constraint sum did.
    const auto sweep = [&](Index c) {
      const Index row_begin = c * chunk_rows;
      const Index row_end = std::min(dim_, row_begin + chunk_rows);
      if (row_begin >= row_end) return;
      if (group == 0) {
        std::fill(y + row_begin * b, y + row_end * b, Real{0});
      }
      Real* s = row_scratch.data() + c * block_rows * b;
      for (Index i = group; i < group_end; ++i) {
        if (x[i] == 0) continue;
        const auto ui = static_cast<std::size_t>(i);
        const Csr& q = items_[ui].q();
        const Real* t_i = stack.data() + (col_offsets_[ui] - base) * b;
        const Real w = x[i];
        const RowRun* run = std::partition_point(
            runs_.data() + run_offsets_[ui], runs_.data() + run_offsets_[ui + 1],
            [&](const RowRun& r) { return Index{r.end} <= row_begin; });
        const RowRun* runs_end = runs_.data() + run_offsets_[ui + 1];
        for (; run != runs_end && Index{run->begin} < row_end; ++run) {
          const Index lo = std::max(Index{run->begin}, row_begin);
          const Index hi = std::min(Index{run->end}, row_end);
          for (Index r0 = lo; r0 < hi; r0 += block_rows) {
            const Index rows = std::min(block_rows, hi - r0);
            // The kernel addresses its output by row index, so hand it the
            // offsets from row r0 on: local row j is Q_i's row r0 + j.
            kt.spmm_rows(q.row_offsets().data() + r0, q.col_indices().data(),
                         q.values().data(), 0, rows, b, t_i, s);
            Real* yr = y + r0 * b;
            for (Index e = 0; e < rows * b; ++e) yr[e] += w * s[e];
          }
        }
      }
    };
    if (chunks == 1) {
      sweep(0);
    } else {
      par::global_pool().run_batch(chunks, sweep);
    }
  }
  // Phase A's kernels metered themselves; Phase B is the nnz term of the
  // Q_i T_i rows plus, in the PRAM model, a reduction over <= n terms.
  par::CostMeter::add_work(static_cast<std::uint64_t>(2 * active_nnz * b));
  par::CostMeter::add_depth(par::reduction_depth(size()));
}

void FactorizedSet::weighted_apply_block(const Vector& x, const Matrix& v,
                                         Matrix& y,
                                         BlockWorkspace& workspace) const {
  PSDP_CHECK(x.size() == size(), "weighted_apply_block: weight length mismatch");
  PSDP_CHECK(v.rows() == dim_, "weighted_apply_block: panel dimension mismatch");
  const Index b = v.cols();
  y.reshape(dim_, b);
  apply_two_phase(
      x, b, y.data(), workspace.factor_panel, workspace.row_scratch,
      [&](std::size_t i, Real* t) {
        items_[i].q().apply_transpose_block(v, t, workspace.transpose_partial,
                                            workspace.plan);
      });
}

void FactorizedSet::weighted_apply(const Vector& x, const Vector& v,
                                   Vector& y) const {
  PSDP_CHECK(x.size() == size(), "weighted_apply: weight length mismatch");
  PSDP_CHECK(v.size() == dim_, "weighted_apply: vector length mismatch");
  if (y.size() != dim_) y = Vector(dim_);
  // Per-thread, capacity-preserving scratch keeps the allocation-free
  // signature the Lanczos certificate and the block_size = 1 path call.
  thread_local std::vector<Real> stack;
  thread_local std::vector<Real> row_scratch;
  apply_two_phase(x, 1, y.data(), stack, row_scratch,
                  [&](std::size_t i, Real* t) {
                    items_[i].q().apply_transpose(v, t);
                  });
}

}  // namespace psdp::sparse
