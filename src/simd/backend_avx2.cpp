// AVX2 + FMA backend: 256-bit lanes (4 doubles). Compiled with
// -mavx2 -mfma via per-file flags in CMakeLists.txt; only dispatch.cpp
// calls into it, and only after __builtin_cpu_supports confirms the CPU.

#if !defined(__AVX2__) || !defined(__FMA__)
#error "backend_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

#define PSDP_SIMD_NS avx2
#include "simd/vec.hpp"
#include "simd/kernels_impl.hpp"

namespace psdp::simd {

const KernelTable* avx2_kernel_table() {
  static const KernelTable table = avx2::make_kernel_table();
  return &table;
}

}  // namespace psdp::simd
