#include "io/matrix_market.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "io/text_fields.hpp"
#include "util/common.hpp"

namespace psdp::io {

namespace {

using detail::Fields;
using detail::LineSource;

struct MmHeader {
  bool coordinate = true;   // false = array
  bool symmetric = false;   // general otherwise
};

std::string lower(std::string_view word) {
  std::string s(word);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Parse the banner "%%MatrixMarket matrix <format> <field> <symmetry>".
MmHeader read_banner(std::istream& in) {
  std::string line;
  PSDP_CHECK(std::getline(in, line), "matrix market: empty stream");
  Fields banner(line);
  std::string_view tag, object, format, field, symmetry;
  banner.word(tag);
  banner.word(object);
  banner.word(format);
  banner.word(field);
  banner.word(symmetry);
  PSDP_CHECK(lower(tag) == "%%matrixmarket",
             "matrix market: missing %%MatrixMarket banner");
  PSDP_CHECK(lower(object) == "matrix",
             str("matrix market: unsupported object '", object, "'"));
  MmHeader header;
  const std::string f = lower(format);
  if (f == "coordinate") {
    header.coordinate = true;
  } else if (f == "array") {
    header.coordinate = false;
  } else {
    PSDP_CHECK(false, str("matrix market: unsupported format '", format, "'"));
  }
  const std::string fl = lower(field);
  PSDP_CHECK(fl == "real" || fl == "double",
             str("matrix market: unsupported field '", field,
                 "' (only real is supported)"));
  const std::string sym = lower(symmetry);
  if (sym == "symmetric") {
    header.symmetric = true;
  } else if (sym == "general") {
    header.symmetric = false;
  } else {
    PSDP_CHECK(false, str("matrix market: unsupported symmetry '", symmetry,
                          "' (general or symmetric)"));
  }
  return header;
}

/// The size line of a coordinate body.
struct CoordinateSize {
  Index rows = 0;
  Index cols = 0;
  Index nnz = 0;
};

CoordinateSize read_coordinate_size(LineSource& lines,
                                    const MmHeader& header) {
  PSDP_CHECK(lines.next(), "matrix market: missing size line");
  Fields sizes = lines.fields();
  CoordinateSize size;
  PSDP_CHECK(sizes.integer(size.rows) && sizes.integer(size.cols) &&
                 sizes.integer(size.nnz) && sizes.done(),
             "matrix market: malformed size line");
  PSDP_CHECK(size.rows >= 1 && size.cols >= 1 && size.nnz >= 0,
             "matrix market: non-positive dimensions");
  PSDP_CHECK(!header.symmetric || size.rows == size.cols,
             "matrix market: symmetric matrix must be square");
  return size;
}

/// Entry `k` of a coordinate body, 0-based. Symmetric entries are
/// canonicalized to the lower triangle before the duplicates-sum merge:
/// (r,c) and (c,r) name the *same* logical entry, so a file listing both
/// sums them like any other duplicate -- one mirror per merged entry, never
/// a mirror per listing. Upper-triangle-only files (a common deviation from
/// the spec) load the same as lower-triangle ones.
sparse::Triplet read_coordinate_entry(LineSource& lines,
                                      const CoordinateSize& size,
                                      const MmHeader& header, Index k) {
  PSDP_CHECK(lines.next(),
             str("matrix market: expected ", size.nnz, " entries, got ", k));
  Fields entry = lines.fields();
  Index r = 0, c = 0;
  Real v = 0;
  PSDP_CHECK(entry.integer(r) && entry.integer(c) && entry.real(v) &&
                 entry.done(),
             str("matrix market: malformed entry line '", lines.line(), "'"));
  PSDP_CHECK(r >= 1 && r <= size.rows && c >= 1 && c <= size.cols,
             str("matrix market: index (", r, ",", c, ") out of range"));
  if (header.symmetric && c > r) std::swap(r, c);
  return {r - 1, c - 1, v};
}

struct ParsedSparse {
  Index rows = 0;
  Index cols = 0;
  std::vector<sparse::Triplet> triplets;
};

ParsedSparse read_coordinate_body(LineSource& lines, const MmHeader& header) {
  const CoordinateSize size = read_coordinate_size(lines, header);
  ParsedSparse parsed;
  parsed.rows = size.rows;
  parsed.cols = size.cols;
  parsed.triplets.reserve(static_cast<std::size_t>(size.nnz));
  for (Index k = 0; k < size.nnz; ++k) {
    const sparse::Triplet t = read_coordinate_entry(lines, size, header, k);
    parsed.triplets.push_back(t);
    if (header.symmetric && t.row != t.col) {
      parsed.triplets.push_back({t.col, t.row, t.value});
    }
  }
  return parsed;
}

linalg::Matrix read_array_body(LineSource& lines, const MmHeader& header) {
  PSDP_CHECK(lines.next(), "matrix market: missing size line");
  Fields sizes = lines.fields();
  Index rows = 0, cols = 0;
  PSDP_CHECK(sizes.integer(rows) && sizes.integer(cols) && sizes.done(),
             "matrix market: malformed size line");
  PSDP_CHECK(rows >= 1 && cols >= 1, "matrix market: non-positive dimensions");
  PSDP_CHECK(!header.symmetric || rows == cols,
             "matrix market: symmetric matrix must be square");

  linalg::Matrix result(rows, cols);
  // Array body is column-major; symmetric array stores the lower triangle
  // of each column.
  for (Index j = 0; j < cols; ++j) {
    const Index start = header.symmetric ? j : 0;
    for (Index i = start; i < rows; ++i) {
      PSDP_CHECK(lines.next(), "matrix market: truncated array body");
      Fields entry = lines.fields();
      Real v = 0;
      PSDP_CHECK(entry.real(v) && entry.done(),
                 str("matrix market: malformed value line '", lines.line(),
                     "'"));
      result(i, j) = v;
      if (header.symmetric) result(j, i) = v;
    }
  }
  return result;
}

// ------------------------------------------------------------- streaming --

/// Sorted, duplicate-free COO accumulator of canonicalized entries (lower
/// triangle only for symmetric input). Parallel arrays rather than Triplet
/// records so the final columns/values move into the CSR without a copy.
struct CooAccumulator {
  std::vector<Index> rows;
  std::vector<Index> cols;
  std::vector<Real> vals;

  std::size_t size() const { return rows.size(); }
};

/// Stable-sort the staging buffer by (row, col), fold its duplicates left
/// to right (listing order -- the stable sort preserves it), then merge the
/// result into the accumulator, summing keys present on both sides. The
/// accumulator stays sorted and duplicate-free throughout, so every flush
/// is one linear merge.
void flush_staging(std::vector<sparse::Triplet>& staging,
                   CooAccumulator& acc) {
  if (staging.empty()) return;
  std::stable_sort(staging.begin(), staging.end(),
                   [](const sparse::Triplet& a, const sparse::Triplet& b) {
                     return a.row != b.row ? a.row < b.row : a.col < b.col;
                   });
  std::size_t w = 0;
  for (std::size_t i = 0; i < staging.size();) {
    const Index r = staging[i].row;
    const Index c = staging[i].col;
    Real v = staging[i].value;
    std::size_t j = i + 1;
    while (j < staging.size() && staging[j].row == r &&
           staging[j].col == c) {
      v += staging[j].value;
      ++j;
    }
    staging[w++] = {r, c, v};
    i = j;
  }
  staging.resize(w);

  CooAccumulator merged;
  merged.rows.reserve(acc.size() + staging.size());
  merged.cols.reserve(acc.size() + staging.size());
  merged.vals.reserve(acc.size() + staging.size());
  std::size_t a = 0;
  std::size_t s = 0;
  while (a < acc.size() || s < staging.size()) {
    bool take_acc;
    bool both = false;
    if (a >= acc.size()) {
      take_acc = false;
    } else if (s >= staging.size()) {
      take_acc = true;
    } else {
      const Index ar = acc.rows[a], ac = acc.cols[a];
      const Index sr = staging[s].row, sc = staging[s].col;
      if (ar == sr && ac == sc) {
        take_acc = true;
        both = true;
      } else {
        take_acc = ar != sr ? ar < sr : ac < sc;
      }
    }
    if (take_acc) {
      merged.rows.push_back(acc.rows[a]);
      merged.cols.push_back(acc.cols[a]);
      // Earlier listings live in the accumulator: acc + staging keeps the
      // duplicates-sum in listing order across flush boundaries.
      merged.vals.push_back(both ? acc.vals[a] + staging[s].value
                                 : acc.vals[a]);
      ++a;
      if (both) ++s;
    } else {
      merged.rows.push_back(staging[s].row);
      merged.cols.push_back(staging[s].col);
      merged.vals.push_back(staging[s].value);
      ++s;
    }
  }
  acc = std::move(merged);
  staging.clear();
}

/// Assemble the final CSR from the merged accumulator: a straight
/// from_parts adoption for general matrices; for symmetric input each
/// merged lower-triangle entry (r, c) is mirrored exactly once to (c, r).
/// The single pass in (row, col) order fills every row's columns in
/// strictly ascending order -- a row's own (lower) entries arrive before
/// any mirror lands in it, because mirrors come from later rows.
sparse::Csr assemble_streamed(CooAccumulator&& acc, Index rows, Index cols,
                              bool symmetric) {
  std::vector<Index> offsets(static_cast<std::size_t>(rows) + 1, 0);
  const std::size_t merged = acc.size();
  for (std::size_t e = 0; e < merged; ++e) {
    ++offsets[static_cast<std::size_t>(acc.rows[e]) + 1];
    if (symmetric && acc.rows[e] != acc.cols[e]) {
      ++offsets[static_cast<std::size_t>(acc.cols[e]) + 1];
    }
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  if (!symmetric) {
    // Already row-major sorted: the column/value arrays are the CSR body.
    return sparse::Csr::from_parts(rows, cols, std::move(offsets),
                                   std::move(acc.cols),
                                   std::move(acc.vals));
  }
  const Index nnz = offsets.back();
  std::vector<Index> out_cols(static_cast<std::size_t>(nnz));
  std::vector<Real> out_vals(static_cast<std::size_t>(nnz));
  std::vector<Index> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t e = 0; e < merged; ++e) {
    const Index r = acc.rows[e];
    const Index c = acc.cols[e];
    const Real v = acc.vals[e];
    Index& at = cursor[static_cast<std::size_t>(r)];
    out_cols[static_cast<std::size_t>(at)] = c;
    out_vals[static_cast<std::size_t>(at)] = v;
    ++at;
    if (r != c) {
      Index& mirror = cursor[static_cast<std::size_t>(c)];
      out_cols[static_cast<std::size_t>(mirror)] = r;
      out_vals[static_cast<std::size_t>(mirror)] = v;
      ++mirror;
    }
  }
  return sparse::Csr::from_parts(rows, cols, std::move(offsets),
                                 std::move(out_cols), std::move(out_vals));
}

void write_banner(std::ostream& out, bool coordinate, bool symmetric) {
  out << "%%MatrixMarket matrix " << (coordinate ? "coordinate" : "array")
      << " real " << (symmetric ? "symmetric" : "general") << "\n";
}

void check_symmetric_csr(const sparse::Csr& matrix) {
  PSDP_CHECK(matrix.rows() == matrix.cols(),
             "matrix market: symmetric output requires a square matrix");
  // Verify symmetry entry-by-entry through a transposed copy: the CSR rows
  // are sorted, so mirror lookup via binary search per entry.
  for (Index i = 0; i < matrix.rows(); ++i) {
    const auto cols = matrix.row_cols(i);
    const auto vals = matrix.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index j = cols[k];
      const auto mirror_cols = matrix.row_cols(j);
      const auto mirror_vals = matrix.row_vals(j);
      const auto it = std::lower_bound(mirror_cols.begin(), mirror_cols.end(), i);
      const bool found = it != mirror_cols.end() && *it == i;
      PSDP_CHECK(found, str("matrix market: entry (", i, ",", j,
                            ") has no symmetric mirror"));
      const Real mirrored =
          mirror_vals[static_cast<std::size_t>(it - mirror_cols.begin())];
      PSDP_CHECK(std::abs(mirrored - vals[k]) <=
                     1e-12 * std::max<Real>(1, std::abs(vals[k])),
                 str("matrix market: asymmetric values at (", i, ",", j, ")"));
    }
  }
}

}  // namespace

void write_matrix_market(std::ostream& out, const sparse::Csr& matrix,
                         bool symmetric) {
  if (symmetric) check_symmetric_csr(matrix);
  write_banner(out, /*coordinate=*/true, symmetric);
  // Count emitted entries (lower triangle only when symmetric).
  Index count = 0;
  for (Index i = 0; i < matrix.rows(); ++i) {
    for (const Index j : matrix.row_cols(i)) {
      if (!symmetric || j <= i) ++count;
    }
  }
  out << matrix.rows() << " " << matrix.cols() << " " << count << "\n";
  out << std::setprecision(17);
  for (Index i = 0; i < matrix.rows(); ++i) {
    const auto cols = matrix.row_cols(i);
    const auto vals = matrix.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (symmetric && cols[k] > i) continue;
      out << (i + 1) << " " << (cols[k] + 1) << " " << vals[k] << "\n";
    }
  }
  PSDP_CHECK(static_cast<bool>(out), "matrix market: write failed");
}

void write_matrix_market(std::ostream& out, const linalg::Matrix& matrix,
                         bool symmetric) {
  PSDP_CHECK(matrix.rows() >= 1 && matrix.cols() >= 1,
             "matrix market: empty matrix");
  if (symmetric) {
    PSDP_CHECK(linalg::is_symmetric(matrix, 1e-12),
               "matrix market: symmetric output requires a symmetric matrix");
  }
  write_banner(out, /*coordinate=*/false, symmetric);
  out << matrix.rows() << " " << matrix.cols() << "\n";
  out << std::setprecision(17);
  for (Index j = 0; j < matrix.cols(); ++j) {
    const Index start = symmetric ? j : 0;
    for (Index i = start; i < matrix.rows(); ++i) {
      out << matrix(i, j) << "\n";
    }
  }
  PSDP_CHECK(static_cast<bool>(out), "matrix market: write failed");
}

sparse::Csr read_matrix_market_sparse(std::istream& in) {
  const MmHeader header = read_banner(in);
  LineSource lines(in, '%');
  if (header.coordinate) {
    ParsedSparse parsed = read_coordinate_body(lines, header);
    return sparse::Csr::from_triplets(parsed.rows, parsed.cols,
                                      std::move(parsed.triplets));
  }
  return sparse::Csr::from_dense(read_array_body(lines, header));
}

sparse::Csr read_matrix_market_sparse_streaming(
    std::istream& in, const StreamingMmOptions& options) {
  PSDP_CHECK(options.staging_capacity >= 1,
             "matrix market: staging capacity must be positive");
  const MmHeader header = read_banner(in);
  PSDP_CHECK(header.coordinate,
             "matrix market: streaming reader requires coordinate format");

  LineSource lines(in, '%');
  const CoordinateSize size = read_coordinate_size(lines, header);

  // The in-RAM body's per-entry validation and canonicalization, but the
  // entry lands in a bounded staging buffer instead of a whole-file vector,
  // and symmetric entries are *only* canonicalized here -- the single
  // mirror per merged entry is applied at assembly, never buffered.
  CooAccumulator acc;
  std::vector<sparse::Triplet> staging;
  staging.reserve(static_cast<std::size_t>(std::min<Index>(
      options.staging_capacity, std::max<Index>(1, size.nnz))));
  for (Index k = 0; k < size.nnz; ++k) {
    staging.push_back(read_coordinate_entry(lines, size, header, k));
    if (static_cast<Index>(staging.size()) >= options.staging_capacity) {
      flush_staging(staging, acc);
    }
  }
  flush_staging(staging, acc);
  return assemble_streamed(std::move(acc), size.rows, size.cols,
                           header.symmetric);
}

linalg::Matrix read_matrix_market_dense(std::istream& in) {
  const MmHeader header = read_banner(in);
  LineSource lines(in, '%');
  if (!header.coordinate) return read_array_body(lines, header);
  ParsedSparse parsed = read_coordinate_body(lines, header);
  linalg::Matrix result(parsed.rows, parsed.cols);
  for (const sparse::Triplet& t : parsed.triplets) {
    result(t.row, t.col) += t.value;  // duplicates sum (the documented
                                      // policy, matching Csr::from_triplets)
  }
  return result;
}

void save_matrix_market(const std::string& path, const sparse::Csr& matrix,
                        bool symmetric) {
  std::ofstream out(path);
  PSDP_CHECK(out.is_open(), str("matrix market: cannot open '", path, "'"));
  write_matrix_market(out, matrix, symmetric);
}

void save_matrix_market(const std::string& path, const linalg::Matrix& matrix,
                        bool symmetric) {
  std::ofstream out(path);
  PSDP_CHECK(out.is_open(), str("matrix market: cannot open '", path, "'"));
  write_matrix_market(out, matrix, symmetric);
}

sparse::Csr load_matrix_market_sparse(const std::string& path) {
  std::ifstream in(path);
  PSDP_CHECK(in.is_open(), str("matrix market: cannot open '", path, "'"));
  return read_matrix_market_sparse(in);
}

sparse::Csr load_matrix_market_sparse_streaming(
    const std::string& path, const StreamingMmOptions& options) {
  std::ifstream in(path);
  PSDP_CHECK(in.is_open(), str("matrix market: cannot open '", path, "'"));
  return read_matrix_market_sparse_streaming(in, options);
}

linalg::Matrix load_matrix_market_dense(const std::string& path) {
  std::ifstream in(path);
  PSDP_CHECK(in.is_open(), str("matrix market: cannot open '", path, "'"));
  return read_matrix_market_dense(in);
}

}  // namespace psdp::io
