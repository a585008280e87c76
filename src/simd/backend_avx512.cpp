// AVX-512F backend: 512-bit lanes (8 doubles). Compiled with
// -mavx512f -mavx512dq -mavx512vl -mfma via per-file flags in
// CMakeLists.txt; dispatched only after __builtin_cpu_supports("avx512f").

#if !defined(__AVX512F__)
#error "backend_avx512.cpp must be compiled with -mavx512f"
#endif

#define PSDP_SIMD_NS avx512
#include "simd/vec.hpp"
#include "simd/kernels_impl.hpp"

namespace psdp::simd {

const KernelTable* avx512_kernel_table() {
  static const KernelTable table = avx512::make_kernel_table();
  return &table;
}

}  // namespace psdp::simd
