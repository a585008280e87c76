// Fixed-width vector wrapper simd::VecD.
//
// Included by each backend translation unit AFTER defining PSDP_SIMD_NS to
// the backend's namespace (avx2, avx512, neon, fallback); the wrapper type
// lands in psdp::simd::<ns> so every backend can be linked into one binary
// without ODR collisions. The implementation is chosen from the
// architecture macros the backend's per-file compile flags set (-mavx2,
// -mavx512f, aarch64 NEON), so the same header serves all of them.
//
// Each variant exposes the same tiny surface: kLanes, load/store
// (unaligned), broadcast, zero, add, mul, fma (fused: one rounding), and
// hsum. The scalar helper fma_s is the single-element twin of
// VecD::fma -- remainder loops use it so a backend applies exactly one
// per-element operation chain everywhere (the determinism contract of
// simd/simd.hpp).
#pragma once

#ifndef PSDP_SIMD_NS
#error "define PSDP_SIMD_NS before including simd/vec.hpp"
#endif

#include <cmath>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace psdp::simd::PSDP_SIMD_NS {

#if defined(__AVX512F__)

struct VecD {
  static constexpr int kLanes = 8;
  __m512d v;
  static VecD load(const double* p) { return {_mm512_loadu_pd(p)}; }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
  static VecD broadcast(double x) { return {_mm512_set1_pd(x)}; }
  static VecD zero() { return {_mm512_setzero_pd()}; }
  static VecD add(VecD a, VecD b) { return {_mm512_add_pd(a.v, b.v)}; }
  static VecD mul(VecD a, VecD b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
    return {_mm512_fmadd_pd(a.v, b.v, c.v)};
  }
  /// Horizontal sum with a fixed halving order (deterministic per ISA;
  /// spelled out because GCC 12's _mm512_reduce_add_pd trips a spurious
  /// -Wuninitialized in its own header).
  double hsum() const {
    alignas(64) double lane[kLanes];
    _mm512_store_pd(lane, v);
    return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
           ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  }
};

inline double fma_s(double a, double b, double c) { return std::fma(a, b, c); }

#elif defined(__AVX2__)

struct VecD {
  static constexpr int kLanes = 4;
  __m256d v;
  static VecD load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }
  static VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD zero() { return {_mm256_setzero_pd()}; }
  static VecD add(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  static VecD mul(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  double hsum() const {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
};

inline double fma_s(double a, double b, double c) { return std::fma(a, b, c); }

#elif defined(__ARM_NEON) || defined(__aarch64__)

struct VecD {
  static constexpr int kLanes = 2;
  float64x2_t v;
  static VecD load(const double* p) { return {vld1q_f64(p)}; }
  void store(double* p) const { vst1q_f64(p, v); }
  static VecD broadcast(double x) { return {vdupq_n_f64(x)}; }
  static VecD zero() { return {vdupq_n_f64(0.0)}; }
  static VecD add(VecD a, VecD b) { return {vaddq_f64(a.v, b.v)}; }
  static VecD mul(VecD a, VecD b) { return {vmulq_f64(a.v, b.v)}; }
  static VecD fma(VecD a, VecD b, VecD c) {
    return {vfmaq_f64(c.v, a.v, b.v)};
  }
  double hsum() const { return vgetq_lane_f64(v, 0) + vgetq_lane_f64(v, 1); }
};

inline double fma_s(double a, double b, double c) { return std::fma(a, b, c); }

#else

/// One-lane stand-in so kernels_impl.hpp compiles on targets with no
/// vector unit; the scalar backend does not use it (it keeps the pre-SIMD
/// loops verbatim), but the generic kernels remain instantiable anywhere.
struct VecD {
  static constexpr int kLanes = 1;
  double v;
  static VecD load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }
  static VecD broadcast(double x) { return {x}; }
  static VecD zero() { return {0.0}; }
  static VecD add(VecD a, VecD b) { return {a.v + b.v}; }
  static VecD mul(VecD a, VecD b) { return {a.v * b.v}; }
  static VecD fma(VecD a, VecD b, VecD c) {
    return {std::fma(a.v, b.v, c.v)};
  }
  double hsum() const { return v; }
};

inline double fma_s(double a, double b, double c) { return std::fma(a, b, c); }

#endif

}  // namespace psdp::simd::PSDP_SIMD_NS
