// The SIMD dispatch seam and its contracts (see src/simd/simd.hpp):
//   * enumeration/forcing: every compiled backend is listed, ScopedIsa
//     forces and restores, names round-trip;
//   * the forced-scalar backend IS the pre-SIMD kernel set -- bitwise
//     identical to inlined copies of the original loops, whatever the
//     width or thread count (the anchor that lets the vector backends
//     evolve without ever moving the reference results);
//   * every vector backend matches the scalar backend to FMA rounding on
//     all kernels, across widths (including non-power-of-two) and thread
//     counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/taylor.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"
#include "simd/simd.hpp"
#include "sparse/csr.hpp"
#include "sparse/kernel_plan.hpp"
#include "test_helpers.hpp"

namespace psdp {
namespace {

using linalg::Matrix;

/// RAII guard: restore the global thread count on scope exit.
struct ThreadGuard {
  int before = par::num_threads();
  ~ThreadGuard() { par::set_num_threads(before); }
};

/// Random rows x cols pattern, ~1.5 entries per row at random columns.
sparse::Csr random_sparse(Index rows, Index cols, std::uint64_t seed) {
  rand::Rng rng(seed);
  std::vector<sparse::Triplet> triplets;
  for (Index i = 0; i < rows; ++i) {
    triplets.push_back(
        {i, static_cast<Index>(rng.uniform_index(cols)), rng.normal()});
    if (i % 2 == 0) {
      triplets.push_back(
          {i, static_cast<Index>(rng.uniform_index(cols)), rng.normal()});
    }
  }
  return sparse::Csr::from_triplets(rows, cols, std::move(triplets));
}

Matrix random_panel(Index rows, Index b, std::uint64_t seed) {
  rand::Rng rng(seed);
  Matrix x(rows, b);
  for (Index i = 0; i < rows; ++i) {
    for (Index t = 0; t < b; ++t) x(i, t) = rng.normal();
  }
  return x;
}

/// Inlined copy of the pre-SIMD apply_block inner loop (row-major SpMM):
/// zero the output row, then one separate multiply+add per entry in entry
/// order. The forced-scalar backend must reproduce this bitwise.
Matrix reference_spmm(const sparse::Csr& a, const Matrix& x) {
  const Index b = x.cols();
  Matrix y(a.rows(), b);
  for (Index i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (Index t = 0; t < b; ++t) y(i, t) = 0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Real v = vals[k];
      for (Index t = 0; t < b; ++t) y(i, t) += v * x(cols[k], t);
    }
  }
  return y;
}

/// Inlined copy of the pre-SIMD transpose-index gather: one serial
/// ascending-row reduction per output row (the CSC index stores each
/// column's entries in ascending row order, so walking the CSR rows in
/// order per output column reproduces the same accumulation chain).
Matrix reference_gather(const sparse::Csr& a, const Matrix& x) {
  const Index b = x.cols();
  Matrix y(a.cols(), b);
  std::vector<Real> acc(static_cast<std::size_t>(b));
  for (Index j = 0; j < a.cols(); ++j) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (Index i = 0; i < a.rows(); ++i) {
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] != j) continue;
        const Real v = vals[k];
        for (Index t = 0; t < b; ++t) acc[static_cast<std::size_t>(t)] += v * x(i, t);
      }
    }
    for (Index t = 0; t < b; ++t) y(j, t) = acc[static_cast<std::size_t>(t)];
  }
  return y;
}

const Index kWidths[] = {1, 2, 3, 4, 5, 8, 16, 31, 32};

TEST(SimdDispatch, EnumeratesBackendsAndRoundTripsNames) {
  const std::vector<simd::Isa> compiled = simd::compiled_isas();
  ASSERT_FALSE(compiled.empty());
  // The scalar reference backend is always compiled in; the list is in
  // dispatch preference order (best first), so scalar closes it.
  EXPECT_EQ(compiled.back(), simd::Isa::kScalar);
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  bool active_listed = false;
  for (const simd::Isa isa : compiled) {
    simd::Isa parsed = simd::Isa::kScalar;
    ASSERT_TRUE(simd::isa_from_name(simd::isa_name(isa), parsed));
    EXPECT_EQ(parsed, isa);
    active_listed = active_listed || isa == simd::active_isa();
  }
  EXPECT_TRUE(active_listed);
  simd::Isa junk = simd::Isa::kScalar;
  EXPECT_FALSE(simd::isa_from_name("mmx", junk));
}

TEST(SimdDispatch, ScopedIsaForcesAndRestores) {
  const simd::Isa before = simd::active_isa();
  for (const simd::Isa isa : simd::compiled_isas()) {
    simd::ScopedIsa forced(isa);
    EXPECT_EQ(simd::active_isa(), isa);
    const simd::KernelTable& table = simd::active_kernels();
    EXPECT_NE(table.spmm_rows, nullptr);
    EXPECT_NE(table.gather_panel, nullptr);
    EXPECT_NE(table.sum_sq, nullptr);
  }
  EXPECT_EQ(simd::active_isa(), before);
}

TEST(SimdKernels, ForcedScalarMatchesReferenceLoopsBitwise) {
  ThreadGuard guard;
  simd::ScopedIsa forced(simd::Isa::kScalar);
  sparse::Csr a = random_sparse(512, 24, 17);
  a.build_transpose_index();
  for (const Index b : kWidths) {
    const Matrix x_cols = random_panel(a.cols(), b, 100 + b);
    const Matrix x_rows = random_panel(a.rows(), b, 200 + b);
    for (const int threads : {1, 3}) {
      par::set_num_threads(threads);
      Matrix y;
      a.apply_block(x_cols, y);
      const Matrix spmm_ref = reference_spmm(a, x_cols);
      for (Index i = 0; i < y.rows(); ++i) {
        for (Index t = 0; t < b; ++t) EXPECT_EQ(y(i, t), spmm_ref(i, t));
      }
      Matrix yt;
      a.apply_transpose_block_indexed(x_rows, yt);
      const Matrix gather_ref = reference_gather(a, x_rows);
      for (Index j = 0; j < yt.rows(); ++j) {
        for (Index t = 0; t < b; ++t) EXPECT_EQ(yt(j, t), gather_ref(j, t));
      }
    }
  }
}

TEST(SimdKernels, VectorBackendsMatchScalarWithinRounding) {
  ThreadGuard guard;
  sparse::Csr a = random_sparse(512, 24, 29);
  a.build_transpose_index();
  // FMA-contraction rounding only: each output element is a short
  // reduction over O(1) terms, so the absolute gap stays near machine eps.
  const Real tol = 1e-9;
  for (const simd::Isa isa : simd::compiled_isas()) {
    simd::ScopedIsa forced(isa);
    for (const Index b : kWidths) {
      const Matrix x_cols = random_panel(a.cols(), b, 300 + b);
      const Matrix x_rows = random_panel(a.rows(), b, 400 + b);
      Matrix y, yt, yseg, yplan;
      std::vector<Real> partial;
      a.apply_block(x_cols, y);
      a.apply_transpose_block_indexed(x_rows, yt);
      if (a.has_segment_index()) a.apply_transpose_block_segmented(x_rows, yseg);
      a.apply_transpose_block(x_rows, yplan, partial);
      Matrix y_ref, yt_ref;
      {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        a.apply_block(x_cols, y_ref);
        a.apply_transpose_block_indexed(x_rows, yt_ref);
      }
      EXPECT_MATRIX_NEAR(y, y_ref, tol);
      EXPECT_MATRIX_NEAR(yt, yt_ref, tol);
      if (a.has_segment_index()) {
        // Within one ISA, the segmented gather stays bitwise identical to
        // the plain gather -- same per-element reduction chain.
        for (Index j = 0; j < yt.rows(); ++j) {
          for (Index t = 0; t < b; ++t) EXPECT_EQ(yseg(j, t), yt(j, t));
        }
      }
      EXPECT_MATRIX_NEAR(yplan, yt, 0.0);  // plan picks among the gathers
    }
    // The fused Taylor sweep through the same dispatch seam.
    for (const int threads : {1, 3}) {
      par::set_num_threads(threads);
      const sparse::Csr sq = random_sparse(96, 96, 31);
      const linalg::BlockOp sq_op = [&sq](const Matrix& x, Matrix& y) {
        sq.apply_block(x, y);
      };
      const Matrix x = random_panel(96, 8, 41);
      Matrix y, y_ref;
      linalg::TaylorBlockWorkspace ws, ws_ref;
      linalg::apply_exp_taylor_block(sq_op, 12, x, y, ws);
      {
        simd::ScopedIsa scalar(simd::Isa::kScalar);
        linalg::apply_exp_taylor_block(sq_op, 12, x, y_ref, ws_ref);
      }
      EXPECT_MATRIX_NEAR(y, y_ref, 1e-9);
    }
  }
}

}  // namespace
}  // namespace psdp
