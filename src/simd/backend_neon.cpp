// NEON backend: 128-bit lanes (2 doubles). Built only on
// aarch64 targets (see CMakeLists.txt), where NEON is architecturally
// guaranteed -- no runtime feature probe needed beyond the platform check.

#if !defined(__aarch64__) && !defined(__ARM_NEON)
#error "backend_neon.cpp must be compiled for an aarch64/NEON target"
#endif

#define PSDP_SIMD_NS neon
#include "simd/vec.hpp"
#include "simd/kernels_impl.hpp"

namespace psdp::simd {

const KernelTable* neon_kernel_table() {
  static const KernelTable table = neon::make_kernel_table();
  return &table;
}

}  // namespace psdp::simd
