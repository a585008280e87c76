// MatrixMarket (MM) interchange format support.
//
// Instances often originate in other tools (graph collections, SDP
// benchmark suites) that speak MatrixMarket; this module reads and writes
// the two layouts the library uses:
//
//   * coordinate real general/symmetric  <->  sparse::Csr
//   * array real general/symmetric       <->  linalg::Matrix (dense)
//
// Writers always emit "general" for rectangular data and "symmetric" (lower
// triangle) for symmetric square input when asked. Readers accept both and
// expand symmetric storage. Pattern, complex and integer fields are
// rejected with a clear error; integer data can be read as real by most
// producers' own tooling.
//
// Duplicate-entry policy (coordinate format): repeated listings of the same
// (row, col) position SUM, the conventional MM semantics (what scipy's
// mmread does) -- this holds for both the sparse and the dense reader.
// In symmetric files, (r,c) and (c,r) name the same logical entry: entries
// are canonicalized to the lower triangle before the merge, so either
// triangle (or a redundant mix) is accepted, duplicates of an unordered
// pair sum, and each merged entry is mirrored exactly once. (The NIST spec
// says lower-triangle-only; canonicalization keeps the common
// upper-triangle deviation loading while removing the old reader's
// mirror-per-listing behavior, which was what made redundant pairs
// surprising.)
//
// Conventions follow the NIST specification: 1-based indices, '%' comment
// lines, a blank-line-free body. Values round-trip at 17 significant
// digits. Body lines parse through io/text_fields.hpp (the number syntax
// is documented in io/instance_io.hpp); an entry line holds exactly
// "row col value" and an array line exactly one value.
#pragma once

#include <iosfwd>
#include <string>

#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

namespace psdp::io {

/// Write a sparse matrix in coordinate format. When `symmetric` is true the
/// matrix must be square and symmetric (checked against its dense pattern);
/// only the lower triangle is emitted.
void write_matrix_market(std::ostream& out, const sparse::Csr& matrix,
                         bool symmetric = false);

/// Write a dense matrix in array format (column-major body, per the spec).
void write_matrix_market(std::ostream& out, const linalg::Matrix& matrix,
                         bool symmetric = false);

/// Read a coordinate-format MatrixMarket stream into CSR. Duplicate entries
/// sum; symmetric storage (either triangle, canonicalized -- see the header
/// comment for the policy) is expanded to full storage. Throws
/// InvalidArgument on malformed input or an unsupported field/format
/// combination.
sparse::Csr read_matrix_market_sparse(std::istream& in);

/// Knobs of the streaming coordinate reader.
struct StreamingMmOptions {
  /// Entries buffered before each sort-and-merge flush. This bounds the
  /// reader's working memory beyond the output itself: peak resident is
  /// O(distinct nnz + staging_capacity), independent of how many listings
  /// (duplicates, redundant symmetric pairs) the file carries.
  Index staging_capacity = 1 << 20;
};

/// Streaming variant of read_matrix_market_sparse for files whose listing
/// count dwarfs memory: one pass over the stream, a bounded staging buffer
/// (sorted and merged into the accumulated matrix each time it fills), and
/// no materialized whole-file triplet vector -- the in-RAM reader buffers
/// every listing (with symmetric mirrors, twice) before sorting. Applies
/// the identical duplicates-sum + lower-triangle canonicalization policy:
/// symmetric entries canonicalize during the scan, unordered-pair
/// duplicates sum (in listing order), and each merged entry is mirrored
/// exactly once at assembly. On exactly-representable inputs the result is
/// bit-identical to the in-RAM reader (locked by tests); otherwise the two
/// differ only by duplicate-summation rounding order. Coordinate format
/// only -- array files raise InvalidArgument (dense data has no streaming
/// story).
sparse::Csr read_matrix_market_sparse_streaming(
    std::istream& in, const StreamingMmOptions& options = {});

/// Read an array-format (dense) MatrixMarket stream. Coordinate files are
/// also accepted and densified, under the same duplicates-sum policy as the
/// sparse reader.
linalg::Matrix read_matrix_market_dense(std::istream& in);

/// File convenience wrappers.
void save_matrix_market(const std::string& path, const sparse::Csr& matrix,
                        bool symmetric = false);
void save_matrix_market(const std::string& path, const linalg::Matrix& matrix,
                        bool symmetric = false);
sparse::Csr load_matrix_market_sparse(const std::string& path);
sparse::Csr load_matrix_market_sparse_streaming(
    const std::string& path, const StreamingMmOptions& options = {});
linalg::Matrix load_matrix_market_dense(const std::string& path);

}  // namespace psdp::io
