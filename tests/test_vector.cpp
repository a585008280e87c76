#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "par/parallel.hpp"
#include "rand/rng.hpp"
#include "util/wire.hpp"

namespace psdp::linalg {
namespace {

TEST(Vector, ConstructionAndFill) {
  Vector v(5, 2.5);
  EXPECT_EQ(v.size(), 5);
  for (Index i = 0; i < 5; ++i) EXPECT_EQ(v[i], 2.5);
  v.fill(-1);
  for (Index i = 0; i < 5; ++i) EXPECT_EQ(v[i], -1);
}

TEST(Vector, InitializerList) {
  const Vector v{1, 2, 3};
  EXPECT_EQ(v.size(), 3);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
}

TEST(Vector, NegativeSizeRejected) {
  EXPECT_THROW(Vector(-1), InvalidArgument);
}

TEST(Vector, ScaleAndAddScaled) {
  Vector v{1, 2, 3};
  v.scale(2);
  EXPECT_EQ(v[1], 4);
  const Vector w{1, 1, 1};
  v.add_scaled(w, -1);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 5);
}

TEST(Vector, AddScaledSizeMismatchThrows) {
  Vector v{1, 2};
  const Vector w{1, 2, 3};
  EXPECT_THROW(v.add_scaled(w, 1.0), InvalidArgument);
}

TEST(Vector, DotAndNorms) {
  const Vector x{3, 4};
  EXPECT_EQ(dot(x, x), 25);
  EXPECT_EQ(norm2_squared(x), 25);
  EXPECT_EQ(norm2(x), 5);
  EXPECT_EQ(sum(x), 7);
  EXPECT_EQ(max_entry(x), 4);
}

TEST(Vector, DotSizeMismatchThrows) {
  EXPECT_THROW(dot(Vector{1}, Vector{1, 2}), InvalidArgument);
}

TEST(Vector, Norm1HandlesSigns) {
  EXPECT_EQ(norm1(Vector{-1, 2, -3}), 6);
}

TEST(Vector, FinitenessAndNonnegativity) {
  EXPECT_TRUE(all_finite(Vector{0, 1}));
  Vector bad{0, 1};
  bad[1] = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_FALSE(all_finite(bad));
  EXPECT_TRUE(is_nonnegative(Vector{0, 1}));
  EXPECT_FALSE(is_nonnegative(Vector{0, -1}));
  EXPECT_TRUE(is_nonnegative(Vector{-1e-12, 1}, 1e-10));
}

TEST(Vector, LargeParallelReductionMatchesSerial) {
  // Exercises the parallel reduction path (several fixed-length chunks).
  const Index n = 1 << 16;
  rand::Rng rng(3);
  Vector v(n);
  Real expect = 0;
  for (Index i = 0; i < n; ++i) {
    v[i] = rng.uniform();
    expect += v[i];
  }
  EXPECT_NEAR(sum(v), expect, 1e-7 * n);
}

TEST(LinalgReductions, BitwiseAcrossThreadCounts) {
  // Above the parallel grain the reductions split across the pool; their
  // fixed-chunk partition must not depend on its width.
  const Index n = 4096;
  rand::Rng rng(17);
  Vector x(n), y(n);
  for (Index i = 0; i < n; ++i) {
    x[i] = rng.uniform() - 0.3;
    y[i] = rng.uniform() - 0.6;
  }
  Matrix a(64, 64), b(64, 64);
  for (Index i = 0; i < 64; ++i) {
    for (Index j = 0; j < 64; ++j) {
      a(i, j) = x[i * 64 + j];
      b(i, j) = y[i * 64 + j];
    }
  }
  const int before = par::num_threads();
  std::string reference;
  for (const int threads : {1, 2, 4}) {
    par::set_num_threads(threads);
    const std::string got =
        util::hex_bits(dot(x, y)) + util::hex_bits(sum(x)) +
        util::hex_bits(norm1(y)) + util::hex_bits(frobenius_dot(a, b));
    if (reference.empty()) reference = got;
    EXPECT_EQ(got, reference) << threads << " threads";
  }
  par::set_num_threads(before);
}

TEST(Vector, Equality) {
  EXPECT_EQ((Vector{1, 2}), (Vector{1, 2}));
  EXPECT_NE((Vector{1, 2}), (Vector{2, 1}));
}

}  // namespace
}  // namespace psdp::linalg
