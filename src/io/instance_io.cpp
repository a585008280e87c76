#include "io/instance_io.hpp"

#include <fstream>
#include <iomanip>
#include <string_view>

#include "io/text_fields.hpp"

namespace psdp::io {

using core::CoveringProblem;
using core::FactorizedPackingInstance;
using core::PackingInstance;
using detail::Fields;
using detail::LineSource;
using linalg::Matrix;
using linalg::Vector;

namespace {

constexpr int kPrecision = 17;

void write_header(std::ostream& out, const char* kind) {
  out << "psdp " << kind << " 1\n";
}

void write_dense_symmetric(std::ostream& out, const Matrix& a) {
  // Count upper-triangle nonzeros first.
  Index nnz = 0;
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i; j < a.cols(); ++j) {
      if (a(i, j) != 0) ++nnz;
    }
  }
  out << nnz << "\n";
  out << std::setprecision(kPrecision);
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = i; j < a.cols(); ++j) {
      if (a(i, j) != 0) out << i << " " << j << " " << a(i, j) << "\n";
    }
  }
}

/// The next record's fields; throws at end of input.
Fields record(LineSource& lines, const char* what) {
  PSDP_CHECK(lines.next(), str("unexpected end of input, expected ", what));
  return lines.fields();
}

void expect_header(LineSource& lines, std::string_view kind) {
  Fields line = record(lines, "header");
  std::string_view magic, got_kind;
  Index version = 0;
  line.word(magic);
  line.word(got_kind);
  line.integer(version);
  PSDP_CHECK(magic == "psdp", "not a psdp instance file");
  PSDP_CHECK(got_kind == kind,
             str("expected kind '", kind, "', found '", got_kind, "'"));
  PSDP_CHECK(version == 1, str("unsupported format version ", version));
  PSDP_CHECK(line.done(), "malformed header record");
}

std::pair<Index, Index> read_size(LineSource& lines) {
  Fields line = record(lines, "size");
  std::string_view tag;
  Index n = 0, m = 0;
  PSDP_CHECK(line.word(tag) && tag == "size" && line.integer(n) &&
                 line.integer(m) && line.done() && n >= 1 && m >= 1,
             "malformed size record");
  return {n, m};
}

/// One "r c v" entry line.
bool read_entry(Fields line, Index& r, Index& c, Real& v) {
  return line.integer(r) && line.integer(c) && line.real(v) && line.done();
}

/// `nnz` upper-triangle "i j v" lines mirrored into a dense m x m matrix;
/// `what` names an entry in the errors.
Matrix read_dense_symmetric(LineSource& lines, Index m, Index nnz,
                            const char* what) {
  Matrix a(m, m);
  for (Index k = 0; k < nnz; ++k) {
    Index i = 0, j = 0;
    Real v = 0;
    PSDP_CHECK(read_entry(record(lines, what), i, j, v) && i >= 0 && j >= i &&
                   j < m,
               str("malformed ", what));
    a(i, j) = v;
    a(j, i) = v;
  }
  return a;
}

/// A dense "constraint <i> <nnz>" record and its entries.
Matrix read_dense_constraint(LineSource& lines, Index m, Index i) {
  Fields header = record(lines, "constraint");
  std::string_view tag;
  Index idx = 0, nnz = 0;
  PSDP_CHECK(header.word(tag) && tag == "constraint" && header.integer(idx) &&
                 header.integer(nnz) && header.done() && idx == i && nnz >= 0,
             str("malformed constraint record (index ", i, ")"));
  return read_dense_symmetric(lines, m, nnz, "matrix entry");
}

}  // namespace

void write_packing(std::ostream& out, const PackingInstance& instance) {
  write_header(out, "packing-dense");
  out << "size " << instance.size() << " " << instance.dim() << "\n";
  for (Index i = 0; i < instance.size(); ++i) {
    out << "constraint " << i << " ";
    write_dense_symmetric(out, instance[i]);
  }
}

PackingInstance read_packing(std::istream& in) {
  LineSource lines(in, '#');
  expect_header(lines, "packing-dense");
  const auto [n, m] = read_size(lines);
  std::vector<Matrix> constraints;
  constraints.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    constraints.push_back(read_dense_constraint(lines, m, i));
  }
  return PackingInstance(std::move(constraints));
}

void write_factorized(std::ostream& out,
                      const FactorizedPackingInstance& instance) {
  write_header(out, "packing-factorized");
  out << "size " << instance.size() << " " << instance.dim() << "\n";
  out << std::setprecision(kPrecision);
  for (Index i = 0; i < instance.size(); ++i) {
    const sparse::Csr& q = instance[i].q();
    out << "constraint " << i << " " << q.cols() << " " << q.nnz() << "\n";
    for (Index r = 0; r < q.rows(); ++r) {
      const auto cols = q.row_cols(r);
      const auto vals = q.row_vals(r);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        out << r << " " << cols[k] << " " << vals[k] << "\n";
      }
    }
  }
}

FactorizedPackingInstance read_factorized(
    std::istream& in, const sparse::TransposePlanOptions& plan_options,
    Index shards) {
  LineSource lines(in, '#');
  expect_header(lines, "packing-factorized");
  const auto [n, m] = read_size(lines);
  std::vector<sparse::FactorizedPsd> items;
  items.reserve(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) {
    Fields header = record(lines, "constraint");
    std::string_view tag;
    Index idx = 0, cols = 0, nnz = 0;
    PSDP_CHECK(header.word(tag) && tag == "constraint" &&
                   header.integer(idx) && header.integer(cols) &&
                   header.integer(nnz) && header.done() && idx == i &&
                   cols >= 1 && nnz >= 0,
               str("malformed factorized constraint record (index ", i, ")"));
    std::vector<sparse::Triplet> triplets;
    triplets.reserve(static_cast<std::size_t>(nnz));
    for (Index k = 0; k < nnz; ++k) {
      Index r = 0, c = 0;
      Real v = 0;
      PSDP_CHECK(read_entry(record(lines, "factor entry"), r, c, v) &&
                     r >= 0 && r < m && c >= 0 && c < cols,
                 "malformed factor entry");
      triplets.push_back({r, c, v});
    }
    items.emplace_back(sparse::Csr::from_triplets(m, cols, std::move(triplets)),
                       plan_options);
  }
  if (shards > 1) {
    return FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)),
                                     shards, plan_options);
  }
  return FactorizedPackingInstance(sparse::FactorizedSet(std::move(items)));
}

void write_covering(std::ostream& out, const CoveringProblem& problem) {
  write_header(out, "covering");
  out << "size " << problem.size() << " " << problem.dim() << "\n";
  out << "objective ";
  write_dense_symmetric(out, problem.objective);
  out << std::setprecision(kPrecision) << "rhs";
  for (Index i = 0; i < problem.rhs.size(); ++i) out << " " << problem.rhs[i];
  out << "\n";
  for (Index i = 0; i < problem.size(); ++i) {
    out << "constraint " << i << " ";
    write_dense_symmetric(out, problem.constraints[static_cast<std::size_t>(i)]);
  }
}

CoveringProblem read_covering(std::istream& in) {
  LineSource lines(in, '#');
  expect_header(lines, "covering");
  const auto [n, m] = read_size(lines);
  CoveringProblem problem;
  {
    Fields header = record(lines, "objective");
    std::string_view tag;
    Index nnz = 0;
    PSDP_CHECK(header.word(tag) && tag == "objective" &&
                   header.integer(nnz) && header.done() && nnz >= 0,
               "malformed objective record");
    problem.objective = read_dense_symmetric(lines, m, nnz, "objective entry");
  }
  {
    Fields line = record(lines, "rhs");
    std::string_view tag;
    PSDP_CHECK(line.word(tag) && tag == "rhs", "malformed rhs record");
    problem.rhs = Vector(n);
    bool ok = true;
    for (Index i = 0; i < n && ok; ++i) ok = line.real(problem.rhs[i]);
    PSDP_CHECK(ok && line.done(),
               str("malformed rhs record (expected ", n, " finite values)"));
  }
  for (Index i = 0; i < n; ++i) {
    problem.constraints.push_back(read_dense_constraint(lines, m, i));
  }
  return problem;
}

namespace {

template <typename Writer, typename T>
void save(const std::string& path, const T& value, Writer writer) {
  std::ofstream out(path);
  PSDP_CHECK(out.good(), str("cannot open '", path, "' for writing"));
  writer(out, value);
  PSDP_CHECK(out.good(), str("write to '", path, "' failed"));
}

template <typename Reader>
auto load(const std::string& path, Reader reader) {
  std::ifstream in(path);
  PSDP_CHECK(in.good(), str("cannot open '", path, "' for reading"));
  return reader(in);
}

}  // namespace

void write_lp(std::ostream& out, const core::PackingLp& lp) {
  write_header(out, "packing-lp");
  const Matrix& p = lp.matrix();
  Index nnz = 0;
  for (Index j = 0; j < p.rows(); ++j) {
    for (Index i = 0; i < p.cols(); ++i) {
      if (p(j, i) != 0) ++nnz;
    }
  }
  // size records rows (constraints) then cols (variables).
  out << "size " << p.rows() << " " << p.cols() << "\n";
  out << "matrix " << nnz << "\n" << std::setprecision(kPrecision);
  for (Index j = 0; j < p.rows(); ++j) {
    for (Index i = 0; i < p.cols(); ++i) {
      if (p(j, i) != 0) out << j << " " << i << " " << p(j, i) << "\n";
    }
  }
}

core::PackingLp read_lp(std::istream& in) {
  LineSource lines(in, '#');
  expect_header(lines, "packing-lp");
  const auto [l, n] = read_size(lines);
  Fields header = record(lines, "matrix");
  std::string_view tag;
  Index nnz = 0;
  PSDP_CHECK(header.word(tag) && tag == "matrix" && header.integer(nnz) &&
                 header.done() && nnz >= 0,
             "malformed matrix record");
  Matrix p(l, n);
  for (Index k = 0; k < nnz; ++k) {
    Index j = 0, i = 0;
    Real v = 0;
    PSDP_CHECK(read_entry(record(lines, "lp entry"), j, i, v) && j >= 0 &&
                   j < l && i >= 0 && i < n && v >= 0,
               "malformed lp entry");
    p(j, i) = v;
  }
  return core::PackingLp(std::move(p));
}

void save_packing(const std::string& path, const PackingInstance& instance) {
  save(path, instance, [](std::ostream& o, const PackingInstance& v) {
    write_packing(o, v);
  });
}

PackingInstance load_packing(const std::string& path) {
  return load(path, [](std::istream& i) { return read_packing(i); });
}

void save_factorized(const std::string& path,
                     const FactorizedPackingInstance& instance) {
  save(path, instance,
       [](std::ostream& o, const FactorizedPackingInstance& v) {
         write_factorized(o, v);
       });
}

FactorizedPackingInstance load_factorized(
    const std::string& path, const sparse::TransposePlanOptions& plan_options,
    Index shards) {
  return load(path, [&plan_options, shards](std::istream& i) {
    return read_factorized(i, plan_options, shards);
  });
}

void save_lp(const std::string& path, const core::PackingLp& lp) {
  save(path, lp,
       [](std::ostream& o, const core::PackingLp& v) { write_lp(o, v); });
}

core::PackingLp load_lp(const std::string& path) {
  return load(path, [](std::istream& i) { return read_lp(i); });
}

void save_covering(const std::string& path, const CoveringProblem& problem) {
  save(path, problem, [](std::ostream& o, const CoveringProblem& v) {
    write_covering(o, v);
  });
}

CoveringProblem load_covering(const std::string& path) {
  return load(path, [](std::istream& i) { return read_covering(i); });
}

}  // namespace psdp::io
