// Shared helpers for the test suite: random PSD matrix construction,
// matrix comparison assertions and malformed-input checks for the readers.
#pragma once

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "linalg/matrix.hpp"
#include "rand/rng.hpp"
#include "util/common.hpp"

namespace psdp::testing {

/// Random symmetric matrix with entries ~ N(0, 1).
inline linalg::Matrix random_symmetric(Index m, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix a(m, m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = i; j < m; ++j) {
      const Real v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

/// Random PSD matrix G G^T / m with G an m x m Gaussian matrix (full rank
/// almost surely, eigenvalues O(1)).
inline linalg::Matrix random_psd(Index m, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix g(m, m);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < m; ++j) g(i, j) = rng.normal();
  }
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.scale(Real{1} / static_cast<Real>(m));
  a.symmetrize();
  return a;
}

/// Random rank-deficient PSD matrix (rank r < m).
inline linalg::Matrix random_psd_rank(Index m, Index r, std::uint64_t seed) {
  rand::Rng rng(seed);
  linalg::Matrix g(m, r);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < r; ++j) g(i, j) = rng.normal();
  }
  linalg::Matrix a = linalg::gemm(g, g.transposed());
  a.scale(Real{1} / static_cast<Real>(m));
  a.symmetrize();
  return a;
}

/// Expect `read` to raise InvalidArgument on `text` with a message naming
/// the fault.
template <typename Reader>
void expect_rejected(Reader read, const std::string& text,
                     const std::string& needle) {
  std::istringstream in(text);
  try {
    read(in);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what() << "\ninput:\n" << text;
  }
}

#define EXPECT_MATRIX_NEAR(a, b, tol)                                  \
  EXPECT_LE(::psdp::linalg::max_abs_diff((a), (b)), (tol))             \
      << "matrices differ by more than " << (tol)

}  // namespace psdp::testing
