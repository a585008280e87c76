#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "apps/beamforming.hpp"
#include "apps/generators.hpp"
#include "io/instance_io.hpp"
#include "test_helpers.hpp"

namespace psdp::io {
namespace {

using core::CoveringProblem;
using core::FactorizedPackingInstance;
using core::PackingInstance;
using linalg::Matrix;

TEST(InstanceIo, PackingRoundTripsExactly) {
  apps::EllipseOptions gen;
  gen.n = 5;
  gen.m = 4;
  const PackingInstance original = apps::random_ellipses(gen);
  std::stringstream buffer;
  write_packing(buffer, original);
  const PackingInstance loaded = read_packing(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  for (Index i = 0; i < original.size(); ++i) {
    EXPECT_MATRIX_NEAR(loaded[i], original[i], 0);  // bit-exact
  }
}

TEST(InstanceIo, FactorizedRoundTripsExactly) {
  apps::FactorizedOptions gen;
  gen.n = 4;
  gen.m = 12;
  gen.nnz_per_column = 3;
  const FactorizedPackingInstance original = apps::random_factorized(gen);
  std::stringstream buffer;
  write_factorized(buffer, original);
  const FactorizedPackingInstance loaded = read_factorized(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  for (Index i = 0; i < original.size(); ++i) {
    EXPECT_MATRIX_NEAR(loaded[i].to_dense(), original[i].to_dense(), 0);
  }
}

TEST(InstanceIo, CoveringRoundTripsExactly) {
  apps::BeamformingOptions gen;
  gen.users = 4;
  gen.antennas = 3;
  const CoveringProblem original = apps::beamforming_problem(gen);
  std::stringstream buffer;
  write_covering(buffer, original);
  const CoveringProblem loaded = read_covering(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_MATRIX_NEAR(loaded.objective, original.objective, 0);
  for (Index i = 0; i < original.size(); ++i) {
    EXPECT_MATRIX_NEAR(loaded.constraints[static_cast<std::size_t>(i)],
                       original.constraints[static_cast<std::size_t>(i)], 0);
    EXPECT_EQ(loaded.rhs[i], original.rhs[i]);
  }
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  const PackingInstance original({Matrix::identity(2)});
  std::stringstream buffer;
  write_packing(buffer, original);
  std::string text = buffer.str();
  text = "# leading comment\n\n" + text + "\n# trailing comment\n";
  std::istringstream in(text);
  const PackingInstance loaded = read_packing(in);
  EXPECT_MATRIX_NEAR(loaded[0], original[0], 0);
}

TEST(InstanceIo, RejectsWrongMagic) {
  std::istringstream in("nope packing-dense 1\nsize 1 1\n");
  EXPECT_THROW(read_packing(in), InvalidArgument);
}

TEST(InstanceIo, RejectsWrongKind) {
  const PackingInstance original({Matrix::identity(2)});
  std::stringstream buffer;
  write_packing(buffer, original);
  EXPECT_THROW(read_factorized(buffer), InvalidArgument);
}

TEST(InstanceIo, RejectsUnsupportedVersion) {
  std::istringstream in("psdp packing-dense 9\nsize 1 1\n");
  EXPECT_THROW(read_packing(in), InvalidArgument);
}

TEST(InstanceIo, RejectsTruncatedInput) {
  std::istringstream in("psdp packing-dense 1\nsize 2 2\nconstraint 0 3\n0 0 1\n");
  EXPECT_THROW(read_packing(in), InvalidArgument);
}

TEST(InstanceIo, RejectsOutOfRangeEntries) {
  std::istringstream in(
      "psdp packing-dense 1\nsize 1 2\nconstraint 0 1\n0 5 1.0\n");
  EXPECT_THROW(read_packing(in), InvalidArgument);
}

TEST(InstanceIo, RejectsNonFiniteValues) {
  std::istringstream in(
      "psdp packing-dense 1\nsize 1 2\nconstraint 0 1\n0 0 nan\n");
  EXPECT_THROW(read_packing(in), InvalidArgument);
}

using testing::expect_rejected;

// One case per malformed-input class -- truncated input, garbage field,
// out-of-range index, non-finite value, trailing field -- for every reader.

TEST(InstanceIo, PackingRejectsMalformedRecords) {
  const auto read = [](std::istream& in) { read_packing(in); };
  const std::string head = "psdp packing-dense 1\nsize 1 2\nconstraint 0 1\n";
  expect_rejected(read, head, "unexpected end of input, expected matrix entry");
  expect_rejected(read, head + "0 x 1.0\n", "malformed matrix entry");
  expect_rejected(read, head + "0 1.5 1.0\n", "malformed matrix entry");
  expect_rejected(read, head + "1 0 1.0\n", "malformed matrix entry");
  expect_rejected(read, head + "0 0 inf\n", "malformed matrix entry");
  expect_rejected(read, head + "0 0 1e309\n", "malformed matrix entry");
  expect_rejected(read, head + "0 0 1.0 7\n", "malformed matrix entry");
  expect_rejected(read, "psdp packing-dense 1\nsize 1 2\nconstraint 0\n",
                  "malformed constraint record (index 0)");
  expect_rejected(read, "psdp packing-dense 1 extra\nsize 1 2\n",
                  "malformed header record");
  expect_rejected(read, "psdp packing-dense 1\nsize 1 2 3\n",
                  "malformed size record");
}

TEST(InstanceIo, FactorizedRejectsMalformedRecords) {
  const auto read = [](std::istream& in) { read_factorized(in); };
  const std::string head =
      "psdp packing-factorized 1\nsize 1 3\nconstraint 0 2 1\n";
  expect_rejected(read, head, "unexpected end of input, expected factor entry");
  expect_rejected(read, "psdp packing-factorized 1\nsize 1 3\n",
                  "unexpected end of input, expected constraint");
  expect_rejected(read, head + "0 1 abc\n", "malformed factor entry");
  expect_rejected(read, head + "3 1 1.0\n", "malformed factor entry");
  expect_rejected(read, head + "0 2 1.0\n", "malformed factor entry");
  expect_rejected(read, head + "0 -1 1.0\n", "malformed factor entry");
  expect_rejected(read, head + "0 1 nan\n", "malformed factor entry");
  expect_rejected(read, head + "0 1 -inf\n", "malformed factor entry");
  expect_rejected(read, head + "0 1 1.5e\n", "malformed factor entry");
  expect_rejected(read, head + "0 1 1.0 # note\n", "malformed factor entry");
  expect_rejected(read,
                  "psdp packing-factorized 1\nsize 1 3\nconstraint 0 2\n",
                  "malformed factorized constraint record (index 0)");
}

TEST(InstanceIo, CoveringRejectsMalformedRecords) {
  const auto read = [](std::istream& in) { read_covering(in); };
  const std::string head = "psdp covering 1\nsize 2 2\nobjective 1\n";
  const std::string body = "constraint 0 1\n0 0 1\nconstraint 1 1\n1 1 1\n";
  expect_rejected(read, head, "unexpected end of input, expected objective entry");
  expect_rejected(read, head + "0 0 1\n",
                  "unexpected end of input, expected rhs");
  expect_rejected(read, head + "0 0 1\nrhs 1 2\nconstraint 0 1\n",
                  "unexpected end of input, expected matrix entry");
  expect_rejected(read, head + "0 0 ?\nrhs 1 2\n" + body,
                  "malformed objective entry");
  expect_rejected(read, head + "0 2 1\nrhs 1 2\n" + body,
                  "malformed objective entry");
  expect_rejected(read, head + "0 0 nan\nrhs 1 2\n" + body,
                  "malformed objective entry");
  expect_rejected(read, head + "0 0 1\nrhs 1 inf\n" + body,
                  "malformed rhs record");
  expect_rejected(read, head + "0 0 1\nrhs 1 nan\n" + body,
                  "malformed rhs record");
  expect_rejected(read, head + "0 0 1\nrhs 1\n" + body,
                  "malformed rhs record");
  expect_rejected(read, head + "0 0 1\nrhs 1 2 3\n" + body,
                  "malformed rhs record");
  expect_rejected(read, head + "0 0 1\nrhs 1 2\nconstraint 0 1\n0 0 1e999\n",
                  "malformed matrix entry");
  expect_rejected(read, "psdp covering 1\nsize 2 2\nobjective x\n",
                  "malformed objective record");
}

TEST(InstanceIo, LpRejectsMalformedRecords) {
  const auto read = [](std::istream& in) { read_lp(in); };
  const std::string head = "psdp packing-lp 1\nsize 2 2\nmatrix 2\n0 0 1.0\n";
  expect_rejected(read, head, "unexpected end of input, expected lp entry");
  expect_rejected(read, head + "1 one 1.0\n", "malformed lp entry");
  expect_rejected(read, head + "1 2 1.0\n", "malformed lp entry");
  expect_rejected(read, head + "1 1 inf\n", "malformed lp entry");
  expect_rejected(read, head + "1 1 nan\n", "malformed lp entry");
  expect_rejected(read, head + "1 1 1.0 1.0\n", "malformed lp entry");
  expect_rejected(read, "psdp packing-lp 1\nsize 2 2\nmatrix\n",
                  "malformed matrix record");
}

TEST(InstanceIo, AcceptsWhatStreamExtractionAccepted) {
  // A leading '+', leading zeros, bare-point forms, CRLF line ends and an
  // underflowing value (read as a signed zero) all loaded before the field
  // reader and still do.
  std::istringstream in(
      "psdp packing-lp 1\r\nsize +2 002\r\nmatrix 3\r\n"
      "+0 +1 +.5\r\n\t1 0 3.\t\r\n1 1 1e-400\r\n");
  const core::PackingLp lp = read_lp(in);
  EXPECT_EQ(lp.matrix()(0, 1), 0.5);
  EXPECT_EQ(lp.matrix()(1, 0), 3.0);
  EXPECT_EQ(lp.matrix()(1, 1), 0.0);
  EXPECT_EQ(lp.matrix()(0, 0), 0.0);
}

TEST(InstanceIo, LpRoundTripsExactly) {
  const core::PackingLp original =
      apps::random_packing_lp({.rows = 6, .cols = 9, .seed = 61});
  std::stringstream buffer;
  write_lp(buffer, original);
  const core::PackingLp loaded = read_lp(buffer);
  ASSERT_EQ(loaded.rows(), original.rows());
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_MATRIX_NEAR(loaded.matrix(), original.matrix(), 0);  // bit-exact
}

TEST(InstanceIo, LpRejectsNegativeEntry) {
  std::istringstream in("psdp packing-lp 1\nsize 2 2\nmatrix 2\n"
                        "0 0 1.0\n1 1 -2.0\n");
  EXPECT_THROW(read_lp(in), InvalidArgument);
}

TEST(InstanceIo, LpRejectsOutOfRange) {
  std::istringstream in("psdp packing-lp 1\nsize 2 2\nmatrix 1\n2 0 1.0\n");
  EXPECT_THROW(read_lp(in), InvalidArgument);
}

TEST(InstanceIo, LpFileSaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/psdp_io_test.lp.psdp";
  const core::PackingLp original = apps::complete_graph_matching_lp(5).lp;
  save_lp(path, original);
  const core::PackingLp loaded = load_lp(path);
  EXPECT_MATRIX_NEAR(loaded.matrix(), original.matrix(), 0);
  std::remove(path.c_str());
}

TEST(InstanceIo, FileSaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/psdp_io_test.psdp";
  const PackingInstance original = apps::figure1_instance();
  save_packing(path, original);
  const PackingInstance loaded = load_packing(path);
  for (Index i = 0; i < 3; ++i) {
    EXPECT_MATRIX_NEAR(loaded[i], original[i], 0);
  }
  std::remove(path.c_str());
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW(load_packing("/nonexistent/path/file.psdp"), InvalidArgument);
}

}  // namespace
}  // namespace psdp::io
