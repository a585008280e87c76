#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "io/matrix_market.hpp"
#include "test_helpers.hpp"

namespace psdp::io {
namespace {

using linalg::Matrix;
using psdp::testing::random_psd;
using sparse::Csr;
using sparse::Triplet;

Csr sample_sparse() {
  std::vector<Triplet> triplets{
      {0, 0, 1.5}, {0, 2, -2.25}, {1, 1, 3.0}, {2, 0, 0.125}};
  return Csr::from_triplets(3, 4, std::move(triplets));
}

TEST(MatrixMarket, SparseRoundTripGeneral) {
  const Csr original = sample_sparse();
  std::stringstream buffer;
  write_matrix_market(buffer, original);
  const Csr back = read_matrix_market_sparse(buffer);
  ASSERT_EQ(back.rows(), original.rows());
  ASSERT_EQ(back.cols(), original.cols());
  EXPECT_MATRIX_NEAR(back.to_dense(), original.to_dense(), 0.0);
}

TEST(MatrixMarket, SparseRoundTripSymmetric) {
  // Symmetric 3x3 with an off-diagonal pair and a diagonal entry.
  std::vector<Triplet> triplets{{0, 0, 2.0}, {0, 1, -1.0}, {1, 0, -1.0},
                                {2, 2, 4.0}};
  const Csr original = Csr::from_triplets(3, 3, std::move(triplets));
  std::stringstream buffer;
  write_matrix_market(buffer, original, /*symmetric=*/true);
  // The body must contain only the lower triangle: 3 entries.
  EXPECT_NE(buffer.str().find("\n3 3 3\n"), std::string::npos)
      << "header: " << buffer.str();
  const Csr back = read_matrix_market_sparse(buffer);
  EXPECT_MATRIX_NEAR(back.to_dense(), original.to_dense(), 0.0);
}

TEST(MatrixMarket, DenseRoundTripGeneral) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = -2; a(0, 2) = 3.5;
  a(1, 0) = 0; a(1, 1) = 1e-7; a(1, 2) = 12345.678;
  std::stringstream buffer;
  write_matrix_market(buffer, a);
  const Matrix back = read_matrix_market_dense(buffer);
  EXPECT_MATRIX_NEAR(back, a, 0.0);
}

TEST(MatrixMarket, DenseRoundTripSymmetric) {
  const Matrix a = random_psd(6, 7);
  std::stringstream buffer;
  write_matrix_market(buffer, a, /*symmetric=*/true);
  const Matrix back = read_matrix_market_dense(buffer);
  EXPECT_MATRIX_NEAR(back, a, 1e-15);
}

TEST(MatrixMarket, ValuesRoundTripExactly) {
  Matrix a(1, 2);
  a(0, 0) = 1.0 / 3.0;
  a(0, 1) = 6.02214076e23;
  std::stringstream buffer;
  write_matrix_market(buffer, a);
  const Matrix back = read_matrix_market_dense(buffer);
  EXPECT_EQ(back(0, 0), a(0, 0));
  EXPECT_EQ(back(0, 1), a(0, 1));
}

TEST(MatrixMarket, ReadsCoordinateAsDense) {
  std::stringstream buffer;
  write_matrix_market(buffer, sample_sparse());
  const Matrix dense = read_matrix_market_dense(buffer);
  EXPECT_MATRIX_NEAR(dense, sample_sparse().to_dense(), 0.0);
}

TEST(MatrixMarket, ReadsArrayAsSparse) {
  const Matrix a = random_psd(4, 9);
  std::stringstream buffer;
  write_matrix_market(buffer, a);
  const Csr back = read_matrix_market_sparse(buffer);
  EXPECT_MATRIX_NEAR(back.to_dense(), a, 0.0);
}

TEST(MatrixMarket, SkipsCommentsAndBlankLines) {
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "\n"
      "2 2 2\n"
      "% another comment\n"
      "1 1 5.0\n"
      "2 2 -1.0\n");
  const Csr back = read_matrix_market_sparse(buffer);
  EXPECT_EQ(back.nnz(), 2);
  EXPECT_NEAR(back.to_dense()(0, 0), 5.0, 0.0);
  EXPECT_NEAR(back.to_dense()(1, 1), -1.0, 0.0);
}

TEST(MatrixMarket, SymmetricEitherTriangleMirrorsOnce) {
  // Each stored off-diagonal entry is mirrored exactly once, whichever
  // triangle the file used (entries are canonicalized to the lower one).
  for (const char* entry_line : {"2 1 7.0\n", "1 2 7.0\n"}) {
    std::stringstream buffer(
        str("%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n",
            entry_line));
    const Csr back = read_matrix_market_sparse(buffer);
    EXPECT_NEAR(back.to_dense()(0, 1), 7.0, 0.0) << entry_line;
    EXPECT_NEAR(back.to_dense()(1, 0), 7.0, 0.0) << entry_line;
  }
}

TEST(MatrixMarket, SymmetricRedundantPairSumsAsOneDuplicate) {
  // (2,1) and (1,2) name the same logical entry of a symmetric matrix:
  // canonicalization makes them duplicates, so they sum (the documented
  // policy) and the merged value is mirrored once -- the old reader
  // instead mirrored each listing independently, making the doubling an
  // accident of storage rather than a defined rule.
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "2 1 7.0\n"
      "1 2 -3.0\n");
  const Csr back = read_matrix_market_sparse(buffer);
  EXPECT_NEAR(back.to_dense()(1, 0), 4.0, 0.0);
  EXPECT_NEAR(back.to_dense()(0, 1), 4.0, 0.0);
}

TEST(MatrixMarket, DuplicateEntriesSumInSparseReader) {
  // Conventional MM duplicate semantics: repeated (r,c) listings sum. One
  // diagonal and one off-diagonal duplicate, general format.
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 4\n"
      "1 1 1.5\n"
      "1 1 2.5\n"
      "2 1 -1.0\n"
      "2 1 3.0\n");
  const Csr back = read_matrix_market_sparse(buffer);
  EXPECT_EQ(back.nnz(), 2);
  EXPECT_NEAR(back.to_dense()(0, 0), 4.0, 0.0);
  EXPECT_NEAR(back.to_dense()(1, 0), 2.0, 0.0);
}

TEST(MatrixMarket, DuplicateEntriesSumInDenseReader) {
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 2 0.25\n"
      "1 2 0.75\n"
      "2 2 2.0\n");
  const linalg::Matrix back = read_matrix_market_dense(buffer);
  EXPECT_NEAR(back(0, 1), 1.0, 0.0);
  EXPECT_NEAR(back(1, 1), 2.0, 0.0);
  EXPECT_NEAR(back(0, 0), 0.0, 0.0);
}

TEST(MatrixMarket, SymmetricDuplicatesSumAndMirrorOnce) {
  // Duplicate *lower-triangle* listings of the same unordered pair sum,
  // and the summed value is mirrored symmetrically.
  std::stringstream buffer(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "2 1 1.0\n"
      "2 1 2.0\n");
  const Csr back = read_matrix_market_sparse(buffer);
  EXPECT_NEAR(back.to_dense()(1, 0), 3.0, 0.0);
  EXPECT_NEAR(back.to_dense()(0, 1), 3.0, 0.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  {
    std::stringstream buffer("not a banner\n1 1 0\n");
    EXPECT_THROW(read_matrix_market_sparse(buffer), InvalidArgument);
  }
  {
    std::stringstream buffer(
        "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
    EXPECT_THROW(read_matrix_market_sparse(buffer), InvalidArgument);
  }
  {
    std::stringstream buffer(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n");
    EXPECT_THROW(read_matrix_market_sparse(buffer), InvalidArgument);
  }
  {
    // Truncated body.
    std::stringstream buffer(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n");
    EXPECT_THROW(read_matrix_market_sparse(buffer), InvalidArgument);
  }
  {
    // Symmetric but rectangular.
    std::stringstream buffer(
        "%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n");
    EXPECT_THROW(read_matrix_market_sparse(buffer), InvalidArgument);
  }
}

using testing::expect_rejected;

TEST(MatrixMarket, CoordinateReadersRejectMalformedRecords) {
  // One case per malformed-input class -- truncated input, garbage field,
  // out-of-range index, non-finite value, trailing field -- for the in-RAM
  // sparse, dense and streaming readers.
  const std::string head =
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
  const auto sparse = [](std::istream& in) { read_matrix_market_sparse(in); };
  const auto dense = [](std::istream& in) { read_matrix_market_dense(in); };
  const auto streaming = [](std::istream& in) {
    read_matrix_market_sparse_streaming(in);
  };
  for (const auto& read :
       std::vector<std::function<void(std::istream&)>>{sparse, dense,
                                                       streaming}) {
    expect_rejected(read, head, "expected 2 entries, got 1");
    expect_rejected(read, head + "2 x 1.0\n", "malformed entry line '2 x 1.0'");
    expect_rejected(read, head + "2 2 1,5\n", "malformed entry line");
    expect_rejected(read, head + "0 1 1.0\n", "index (0,1) out of range");
    expect_rejected(read, head + "2 3 1.0\n", "index (2,3) out of range");
    expect_rejected(read, head + "2 2 inf\n", "malformed entry line");
    expect_rejected(read, head + "2 2 nan\n", "malformed entry line");
    expect_rejected(read, head + "2 2 1.0 0.0\n", "malformed entry line");
    expect_rejected(read,
                    "%%MatrixMarket matrix coordinate real general\n2 2\n",
                    "malformed size line");
  }
}

TEST(MatrixMarket, ArrayReaderRejectsMalformedRecords) {
  const std::string head =
      "%%MatrixMarket matrix array real general\n2 1\n1.0\n";
  const auto dense = [](std::istream& in) { read_matrix_market_dense(in); };
  const auto sparse = [](std::istream& in) { read_matrix_market_sparse(in); };
  for (const auto& read :
       std::vector<std::function<void(std::istream&)>>{dense, sparse}) {
    expect_rejected(read, head, "truncated array body");
    expect_rejected(read, head + "x\n", "malformed value line 'x'");
    expect_rejected(read, head + "inf\n", "malformed value line");
    expect_rejected(read, head + "-nan\n", "malformed value line");
    expect_rejected(read, head + "2.0 3.0\n", "malformed value line");
    expect_rejected(read, "%%MatrixMarket matrix array real general\n2 1 4\n",
                    "malformed size line");
  }
}

TEST(MatrixMarket, RejectsAsymmetricMatrixForSymmetricWrite) {
  std::vector<Triplet> triplets{{0, 1, 1.0}};  // no mirror
  const Csr bad = Csr::from_triplets(2, 2, std::move(triplets));
  std::stringstream buffer;
  EXPECT_THROW(write_matrix_market(buffer, bad, /*symmetric=*/true),
               InvalidArgument);
}

TEST(MatrixMarket, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/psdp_mm_test.mtx";
  const Matrix a = random_psd(5, 3);
  save_matrix_market(path, a, /*symmetric=*/true);
  const Matrix back = load_matrix_market_dense(path);
  EXPECT_MATRIX_NEAR(back, a, 1e-15);
  std::remove(path.c_str());
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(load_matrix_market_sparse("/nonexistent/path.mtx"),
               InvalidArgument);
}

void expect_same_csr(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (std::size_t r = 0; r < a.row_offsets().size(); ++r) {
    EXPECT_EQ(a.row_offsets()[r], b.row_offsets()[r]);
  }
  for (std::size_t p = 0; p < a.values().size(); ++p) {
    EXPECT_EQ(a.col_indices()[p], b.col_indices()[p]);
    EXPECT_EQ(a.values()[p], b.values()[p]);  // bit-exact
  }
}

TEST(MatrixMarket, StreamingReaderMatchesInRamReaderBitwise) {
  // Cross-reader contract: the bounded-memory streaming reader applies the
  // same canonicalization as the in-RAM reader -- duplicates sum, symmetric
  // entries canonicalize to the lower triangle before duplicate detection,
  // the merged value mirrors once -- so both produce bit-identical CSR on a
  // duplicate-heavy file that exercises every rule at once.
  const std::string text =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "4 4 8\n"
      "1 1 1.5\n"
      "1 1 2.5\n"    // diagonal duplicate: sums
      "2 1 7.0\n"
      "1 2 -3.0\n"   // redundant mirrored pair: canonicalizes, then sums
      "3 2 0.125\n"
      "3 2 0.25\n"   // lower-triangle duplicate: sums, mirrors once
      "4 4 -2.0\n"
      "4 1 1.0\n";
  std::stringstream in_ram(text);
  const Csr reference = read_matrix_market_sparse(in_ram);
  std::stringstream streamed(text);
  const Csr streaming = read_matrix_market_sparse_streaming(streamed);
  expect_same_csr(streaming, reference);
}

TEST(MatrixMarket, StreamingReaderMatchesAcrossStagingFlushes) {
  // A staging buffer smaller than the listing count forces mid-stream
  // merge flushes; the result must not depend on where the flushes land.
  std::ostringstream text;
  text << "%%MatrixMarket matrix coordinate real general\n"
       << "16 16 64\n";
  for (int k = 0; k < 64; ++k) {
    // Collision-rich pattern: every entry repeats four times across the
    // stream, far apart, so flush boundaries split duplicate groups.
    text << (k % 16 + 1) << " " << (k % 4 + 1) << " " << (0.5 + 0.25 * (k % 3))
         << "\n";
  }
  std::stringstream in_ram(text.str());
  const Csr reference = read_matrix_market_sparse(in_ram);
  for (Index staging : {Index{4}, Index{7}, Index{64}, Index{1} << 20}) {
    StreamingMmOptions options;
    options.staging_capacity = staging;
    std::stringstream streamed(text.str());
    const Csr streaming = read_matrix_market_sparse_streaming(streamed, options);
    expect_same_csr(streaming, reference);
  }
}

}  // namespace
}  // namespace psdp::io
