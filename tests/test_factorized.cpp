#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/eig.hpp"
#include "par/parallel.hpp"
#include "simd/simd.hpp"
#include "sparse/factorized.hpp"
#include "sparse/sharded.hpp"
#include "test_helpers.hpp"

namespace psdp::sparse {
namespace {

using linalg::Matrix;
using linalg::Vector;
using psdp::testing::random_psd;
using psdp::testing::random_psd_rank;
using psdp::testing::random_symmetric;

TEST(FactorizedPsd, RankOneMatchesOuterProduct) {
  const Vector v{1, -2, 0, 3};
  const FactorizedPsd a = FactorizedPsd::rank_one(v);
  EXPECT_EQ(a.dim(), 4);
  EXPECT_EQ(a.factor_cols(), 1);
  EXPECT_EQ(a.nnz(), 3);  // the zero entry is dropped
  EXPECT_MATRIX_NEAR(a.to_dense(), Matrix::outer(v), 1e-14);
}

TEST(FactorizedPsd, TraceIsFrobeniusNormOfFactor) {
  const Vector v{1, 2, 2};
  const FactorizedPsd a = FactorizedPsd::rank_one(v);
  EXPECT_NEAR(a.trace(), 9.0, 1e-14);  // ||v||^2
  EXPECT_NEAR(a.trace(), linalg::trace(a.to_dense()), 1e-14);
}

TEST(FactorizedPsd, FromDensePsdRoundTrips) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Matrix dense = random_psd(6, seed);
    const FactorizedPsd fact = FactorizedPsd::from_dense_psd(dense);
    EXPECT_MATRIX_NEAR(fact.to_dense(), dense, 1e-8);
  }
}

TEST(FactorizedPsd, FromDensePsdRespectsRank) {
  const Matrix dense = random_psd_rank(8, 3, 5);
  const FactorizedPsd fact = FactorizedPsd::from_dense_psd(dense);
  EXPECT_EQ(fact.factor_cols(), 3);
  EXPECT_MATRIX_NEAR(fact.to_dense(), dense, 1e-8);
}

TEST(FactorizedPsd, FromDensePsdRejectsIndefinite) {
  Matrix bad = Matrix::identity(3);
  bad(2, 2) = -1;
  EXPECT_THROW(FactorizedPsd::from_dense_psd(bad), InvalidArgument);
}

TEST(FactorizedPsd, ApplyMatchesDense) {
  const Matrix dense = random_psd(7, 20);
  const FactorizedPsd fact = FactorizedPsd::from_dense_psd(dense);
  Vector x(7);
  for (Index i = 0; i < 7; ++i) x[i] = static_cast<Real>(i) - 3;
  Vector y;
  fact.apply(x, y);
  const Vector want = linalg::matvec(dense, x);
  for (Index i = 0; i < 7; ++i) EXPECT_NEAR(y[i], want[i], 1e-9);
}

TEST(FactorizedPsd, DotDenseMatchesFrobenius) {
  const Matrix a_dense = random_psd(5, 30);
  const FactorizedPsd a = FactorizedPsd::from_dense_psd(a_dense);
  const Matrix s = random_psd(5, 31);
  EXPECT_NEAR(a.dot_dense(s), linalg::frobenius_dot(a_dense, s), 1e-9);
}

TEST(FactorizedSet, ValidatesDimensions) {
  std::vector<FactorizedPsd> items;
  items.push_back(FactorizedPsd::rank_one(Vector{1, 2}));
  items.push_back(FactorizedPsd::rank_one(Vector{1, 2, 3}));
  EXPECT_THROW(FactorizedSet(std::move(items)), InvalidArgument);
  EXPECT_THROW(FactorizedSet(std::vector<FactorizedPsd>{}), InvalidArgument);
}

TEST(FactorizedSet, TotalNnzSums) {
  std::vector<FactorizedPsd> items;
  items.push_back(FactorizedPsd::rank_one(Vector{1, 2, 0}));
  items.push_back(FactorizedPsd::rank_one(Vector{0, 1, 1}));
  const FactorizedSet set(std::move(items));
  EXPECT_EQ(set.total_nnz(), 4);
  EXPECT_EQ(set.size(), 2);
  EXPECT_EQ(set.dim(), 3);
}

TEST(FactorizedSet, WeightedSumMatchesDenseAccumulation) {
  std::vector<FactorizedPsd> items;
  std::vector<Matrix> dense;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Matrix d = random_psd_rank(5, 2, 40 + seed);
    dense.push_back(d);
    items.push_back(FactorizedPsd::from_dense_psd(d));
  }
  const FactorizedSet set(std::move(items));
  const Vector x{0.5, 0.0, 2.0, 1.5};
  const Csr psi = set.weighted_sum(x);
  Matrix want(5, 5);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    want.add_scaled(dense[i], x[static_cast<Index>(i)]);
  }
  EXPECT_MATRIX_NEAR(psi.to_dense(), want, 1e-8);
}

TEST(FactorizedSet, WeightedApplyMatchesWeightedSum) {
  std::vector<FactorizedPsd> items;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    items.push_back(
        FactorizedPsd::from_dense_psd(random_psd_rank(6, 2, 60 + seed)));
  }
  const FactorizedSet set(std::move(items));
  const Vector x{1.0, 0.25, 3.0};
  Vector v(6);
  for (Index i = 0; i < 6; ++i) v[i] = std::sin(static_cast<Real>(i));
  Vector y;
  set.weighted_apply(x, v, y);
  const Vector want = set.weighted_sum(x).apply(v);
  for (Index i = 0; i < 6; ++i) EXPECT_NEAR(y[i], want[i], 1e-9);
}

TEST(FactorizedSet, IndexOutOfRangeThrows) {
  std::vector<FactorizedPsd> items;
  items.push_back(FactorizedPsd::rank_one(Vector{1}));
  const FactorizedSet set(std::move(items));
  EXPECT_THROW(set[1], InvalidArgument);
  EXPECT_THROW(set[-1], InvalidArgument);
}

TEST(FactorizedPsd, PsdByConstruction) {
  // Whatever sparse Q is used, Q Q^T must be PSD.
  const Csr q = Csr::from_triplets(4, 2, {{0, 0, 1}, {1, 0, -2}, {2, 1, 3}});
  const FactorizedPsd a{q};
  const auto eig = linalg::sym_eig(a.to_dense());
  EXPECT_GE(eig.eigenvalues[3], -1e-12);
}

// ---------------------------------------------------------------------------
// Two-phase Psi apply vs the per-constraint reference, bit for bit.

// Tall enough that wide panels split Phase B over several row chunks.
constexpr Index kPsiDim = 4099;

/// Random m x k factor with about `per_col` entries per column; rows are
/// drawn from [row_lo, row_hi), so every other row of the factor is empty.
Csr random_factor(Index m, Index k, Index per_col, Index row_lo, Index row_hi,
                  std::uint64_t seed) {
  rand::Rng rng(seed);
  std::vector<Triplet> triplets;
  for (Index c = 0; c < k; ++c) {
    for (Index e = 0; e < per_col; ++e) {
      const Index r = row_lo + static_cast<Index>(rng.uniform() *
                                                  static_cast<Real>(row_hi - row_lo));
      triplets.push_back({std::min(r, row_hi - 1), c, rng.normal()});
    }
  }
  return Csr::from_triplets(m, k, std::move(triplets));
}

/// A set mixing every factor shape the apply must handle: tall factors
/// (transpose index, gather), one tall factor with a segment grid small
/// enough that wide panels take the segmented gather, wide factors below
/// the aspect gate (no index: owned-column scatter), factors confined to a
/// row band, a rank-one factor, and an all-empty factor.
FactorizedSet psi_test_set() {
  std::vector<FactorizedPsd> items;
  const Index m = kPsiDim;
  items.emplace_back(random_factor(m, 3, 12, 0, m, 1));
  items.emplace_back(random_factor(m, 2, 6, 400, 900, 2));
  TransposePlanOptions segmented;
  segmented.segment_rows = 512;
  segmented.max_segment_index_ratio = 1e9;
  segmented.window_bytes = 512 * 8;
  segmented.autotune.enable = false;
  items.emplace_back(random_factor(m, 4, 40, 0, m, 3), segmented);
  items.emplace_back(random_factor(m, 1100, 2, 0, m, 4));  // no index
  items.emplace_back(random_factor(m, 1050, 2, 1000, 2000, 5));  // no index
  Vector spike(m);
  for (Index r = 10; r < m; r += 371) spike[r] = 0.5 + static_cast<Real>(r % 7);
  items.push_back(FactorizedPsd::rank_one(spike));
  items.emplace_back(Csr::from_triplets(m, 1, {}));  // all rows empty
  items.emplace_back(random_factor(m, 5, 20, 0, m, 6));
  items.emplace_back(random_factor(m, 3, 9, 2000, m, 7));
  FactorizedSet set(std::move(items));
  EXPECT_FALSE(set[3].q().has_transpose_index());
  EXPECT_TRUE(set[2].q().has_segment_index());
  return set;
}

/// Many short factors (sum_i k_i = 5 x dim): the apply must take the
/// constraints in several stacked groups, zeroing Y only in the first.
FactorizedSet psi_wide_set() {
  constexpr Index m = 24;
  std::vector<FactorizedPsd> items;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Index lo = static_cast<Index>(i % 3) * 6;
    items.emplace_back(random_factor(m, 3, 5, lo, m - lo / 2, 50 + i));
  }
  items.emplace_back(random_factor(m, 30, 20, 0, m, 99));  // k > dim alone
  return FactorizedSet(std::move(items));
}

Vector psi_weights(Index n) {
  rand::Rng rng(11);
  Vector x(n);
  for (Index i = 0; i < n; ++i) x[i] = 0.1 + rng.uniform();
  x[1] = 0;  // zero weights are skipped
  x[4] = 0;
  return x;
}

Matrix psi_panel(Index dim, Index b, std::uint64_t seed) {
  rand::Rng rng(seed);
  Matrix v(dim, b);
  for (Index i = 0; i < dim; ++i) {
    for (Index t = 0; t < b; ++t) v(i, t) = rng.normal();
  }
  return v;
}

/// The dense per-constraint accumulate the two-phase apply replaced:
/// sum_i FactorizedPsd::apply_block + Matrix::add_scaled, ascending i.
Matrix reference_block(const FactorizedSet& set, const Vector& x,
                       const Matrix& v) {
  Matrix y(set.dim(), v.cols());
  Matrix contribution, scratch;
  std::vector<Real> partial;
  for (Index i = 0; i < set.size(); ++i) {
    if (x[i] == 0) continue;
    set[i].apply_block(v, contribution, scratch, partial);
    y.add_scaled(contribution, x[i]);
  }
  return y;
}

/// Matvec twin: sum_i FactorizedPsd::apply + Vector::add_scaled.
Vector reference_apply(const FactorizedSet& set, const Vector& x,
                       const Vector& v) {
  Vector y(set.dim());
  Vector contribution(set.dim());
  for (Index i = 0; i < set.size(); ++i) {
    if (x[i] == 0) continue;
    set[i].apply(v, contribution);
    y.add_scaled(contribution, x[i]);
  }
  return y;
}

bool same_bits(const Real* a, const Real* b, Index n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(Real)) == 0;
}

/// Runs `check(set, label)` over both test sets, K = 1 and K = 4
/// shardings, 1/2/4 threads and every available ISA.
template <typename Check>
void for_each_psi_config(const Check& check) {
  const int saved_threads = par::num_threads();
  for (const FactorizedSet& base : {psi_test_set(), psi_wide_set()}) {
    const ShardedFactorizedSet k1(base);
    const ShardedFactorizedSet k4(base, 4);
    ASSERT_EQ(k4.shard_count(), 4);
    for (const ShardedFactorizedSet* sharded : {&k1, &k4}) {
      for (const int threads : {1, 2, 4}) {
        par::set_num_threads(threads);
        for (const simd::Isa isa : simd::compiled_isas()) {
          if (!simd::isa_available(isa)) continue;
          const simd::ScopedIsa scoped(isa);
          check(sharded->set(),
                str("dim=", base.dim(), " K=", sharded->shard_count(),
                    " threads=", threads, " isa=", simd::isa_name(isa)));
        }
      }
    }
  }
  par::set_num_threads(saved_threads);
}

TEST(PsiApply, BlockMatchesPerConstraintReferenceBitwise) {
  for_each_psi_config([](const FactorizedSet& set, const std::string& label) {
    const Vector x = psi_weights(set.size());
    FactorizedSet::BlockWorkspace workspace;  // reused across widths
    for (const Index b : {1, 2, 3, 8, 16, 17, 32}) {
      const Matrix v =
          psi_panel(set.dim(), b, 100 + static_cast<std::uint64_t>(b));
      Matrix y;
      set.weighted_apply_block(x, v, y, workspace);
      const Matrix want = reference_block(set, x, v);
      ASSERT_EQ(y.rows(), set.dim());
      ASSERT_EQ(y.cols(), b);
      EXPECT_TRUE(same_bits(y.data(), want.data(), set.dim() * b))
          << label << " b=" << b;
    }
  });
}

TEST(PsiApply, MatvecMatchesPerConstraintReferenceBitwise) {
  for_each_psi_config([](const FactorizedSet& set, const std::string& label) {
    const Vector x = psi_weights(set.size());
    const Matrix panel = psi_panel(set.dim(), 1, 300);
    Vector v(set.dim());
    for (Index i = 0; i < set.dim(); ++i) v[i] = panel(i, 0);
    Vector y;
    set.weighted_apply(x, v, y);
    const Vector want = reference_apply(set, x, v);
    EXPECT_TRUE(same_bits(y.data(), want.data(), set.dim())) << label;
  });
}

TEST(PsiApply, AllZeroWeightsGiveZero) {
  for (const FactorizedSet& set : {psi_test_set(), psi_wide_set()}) {
    const Vector x(set.size());
    const Matrix v = psi_panel(set.dim(), 3, 400);
    Matrix y(set.dim(), 3, 7.0);  // stale contents must be overwritten
    FactorizedSet::BlockWorkspace workspace;
    set.weighted_apply_block(x, v, y, workspace);
    for (Index e = 0; e < set.dim() * 3; ++e) {
      EXPECT_FALSE(std::signbit(y.data()[e]));
      EXPECT_EQ(y.data()[e], 0.0);
    }
  }
}

}  // namespace
}  // namespace psdp::sparse
