// The scalar reference backend: the pre-SIMD kernel loops, verbatim.
//
// This translation unit is compiled with the project's default flags (no
// -m arch options), exactly like sparse/csr.cpp was before the simd layer
// existed -- baseline x86-64 / aarch64 codegen has no scalar FMA to
// contract into, so every per-element update is the separate multiply+add
// the pre-SIMD kernels performed, in the same order. Forcing
// Isa::kScalar therefore reproduces the pre-PR solver trajectories
// bit-for-bit (tests/test_simd.cpp pins this against inlined copies of
// the original loops).

#include <algorithm>
#include <cmath>

#include "simd/kernel_table.hpp"

namespace psdp::simd {
namespace scalar {
namespace {

template <int B>
void gather_columns(const Index* offsets, const Index* rows,
                    const double* values, Index jb, Index je, const double* x,
                    double* y) {
  for (Index j = jb; j < je; ++j) {
    double acc[B] = {};
    const Index b0 = offsets[j];
    const Index e0 = offsets[j + 1];
    for (Index e = b0; e < e0; ++e) {
      const double v = values[e];
      const double* in = x + rows[e] * B;
      for (int t = 0; t < B; ++t) acc[t] += v * in[t];
    }
    double* out = y + j * B;
    for (int t = 0; t < B; ++t) out[t] = acc[t];
  }
}

void gather_columns_any(const Index* offsets, const Index* rows,
                        const double* values, Index jb, Index je, Index b,
                        const double* x, double* y) {
  for (Index j = jb; j < je; ++j) {
    double* out = y + j * b;
    std::fill(out, out + b, 0.0);
    const Index b0 = offsets[j];
    const Index e0 = offsets[j + 1];
    for (Index e = b0; e < e0; ++e) {
      const double v = values[e];
      const double* in = x + rows[e] * b;
      for (Index t = 0; t < b; ++t) out[t] += v * in[t];
    }
  }
}

void s_gather_panel(const Index* offsets, const Index* rows,
                    const double* values, Index jb, Index je, Index b,
                    const double* x, double* y) {
  switch (b) {
    case 1: gather_columns<1>(offsets, rows, values, jb, je, x, y); break;
    case 2: gather_columns<2>(offsets, rows, values, jb, je, x, y); break;
    case 4: gather_columns<4>(offsets, rows, values, jb, je, x, y); break;
    case 8: gather_columns<8>(offsets, rows, values, jb, je, x, y); break;
    case 16: gather_columns<16>(offsets, rows, values, jb, je, x, y); break;
    case 32: gather_columns<32>(offsets, rows, values, jb, je, x, y); break;
    default: gather_columns_any(offsets, rows, values, jb, je, b, x, y); break;
  }
}

constexpr Index kGatherPrefetch = 12;

template <int B>
inline void prefetch_panel_row(const double* in) {
#if defined(__GNUC__) || defined(__clang__)
  for (int t = 0; t < B; t += 8) __builtin_prefetch(in + t, 0, 1);
#else
  (void)in;
#endif
}

template <int B>
void gather_columns_window(const Index* seg_starts, Index s0, Index s1,
                           Index cols, const Index* rows,
                           const double* values, Index jb, Index je,
                           const double* x, double* y) {
  for (Index j = jb; j < je; ++j) {
    const Index b0 = seg_starts[s0 * cols + j];
    const Index e0 = seg_starts[s1 * cols + j];
    if (b0 == e0) continue;
    double acc[B];
    double* out = y + j * B;
    for (int t = 0; t < B; ++t) acc[t] = out[t];
    for (Index e = b0; e < e0; ++e) {
      if constexpr (B >= 4) {
        if (e + kGatherPrefetch < e0) {
          prefetch_panel_row<B>(x + rows[e + kGatherPrefetch] * B);
        }
      }
      const double v = values[e];
      const double* in = x + rows[e] * B;
      for (int t = 0; t < B; ++t) acc[t] += v * in[t];
    }
    for (int t = 0; t < B; ++t) out[t] = acc[t];
  }
}

void gather_columns_window_any(const Index* seg_starts, Index s0, Index s1,
                               Index cols, const Index* rows,
                               const double* values, Index jb, Index je,
                               Index b, const double* x, double* y) {
  for (Index j = jb; j < je; ++j) {
    const Index b0 = seg_starts[s0 * cols + j];
    const Index e0 = seg_starts[s1 * cols + j];
    double* out = y + j * b;
    for (Index e = b0; e < e0; ++e) {
      const double v = values[e];
      const double* in = x + rows[e] * b;
      for (Index t = 0; t < b; ++t) out[t] += v * in[t];
    }
  }
}

void s_spmm_rows(const Index* offsets, const Index* cols, const double* values,
                 Index ib, Index ie, Index b, const double* x, double* y) {
  for (Index i = ib; i < ie; ++i) {
    double* out = y + i * b;
    std::fill(out, out + b, 0.0);
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    for (Index e = e0; e < e1; ++e) {
      const double v = values[e];
      const double* in = x + cols[e] * b;
      for (Index t = 0; t < b; ++t) out[t] += v * in[t];
    }
  }
}

void s_scatter_rows(const Index* offsets, const Index* cols,
                    const double* values, Index ib, Index ie, Index b,
                    const double* x, double* y) {
  for (Index i = ib; i < ie; ++i) {
    const double* in = x + i * b;
    const Index e0 = offsets[i];
    const Index e1 = offsets[i + 1];
    for (Index e = e0; e < e1; ++e) {
      double* row = y + cols[e] * b;
      const double v = values[e];
      for (Index t = 0; t < b; ++t) row[t] += v * in[t];
    }
  }
}

void s_taylor_step(double* next, double* y, double scale, Index lo,
                   Index hi) {
  for (Index i = lo; i < hi; ++i) {
    const double v = next[i] * scale;
    next[i] = v;
    y[i] += v;
  }
}

void s_gather_window(const Index* seg_starts, Index s0, Index s1, Index cols,
                     const Index* rows, const double* values, Index jb,
                     Index je, Index b, const double* x, double* y) {
  switch (b) {
    case 1:
      gather_columns_window<1>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 2:
      gather_columns_window<2>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 4:
      gather_columns_window<4>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 8:
      gather_columns_window<8>(seg_starts, s0, s1, cols, rows, values, jb, je,
                               x, y);
      break;
    case 16:
      gather_columns_window<16>(seg_starts, s0, s1, cols, rows, values, jb,
                                je, x, y);
      break;
    case 32:
      gather_columns_window<32>(seg_starts, s0, s1, cols, rows, values, jb,
                                je, x, y);
      break;
    default:
      gather_columns_window_any(seg_starts, s0, s1, cols, rows, values, jb,
                                je, b, x, y);
      break;
  }
}

double s_sum_sq(const double* x, Index n) {
  double acc = 0;
  for (Index i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

}  // namespace
}  // namespace scalar

const KernelTable* scalar_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.spmm_rows = &scalar::s_spmm_rows;
    t.gather_panel = &scalar::s_gather_panel;
    t.gather_window = &scalar::s_gather_window;
    t.scatter_rows = &scalar::s_scatter_rows;
    t.taylor_step = &scalar::s_taylor_step;
    t.sum_sq = &scalar::s_sum_sq;
    return t;
  }();
  return &table;
}

}  // namespace psdp::simd
