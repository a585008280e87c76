// Field reader shared by the text instance readers (the psdp format in
// instance_io and MatrixMarket): content lines from a stream, and a cursor
// that parses one line's whitespace-separated fields in place with
// std::from_chars. One std::string is reused for every line; no stream is
// built per line.
//
// Numbers follow what `std::istream >>` accepts on the same field, with the
// same IEEE-754 bits (the syntax is spelled out in io/instance_io.hpp). A
// field must be consumed whole: "3.5" is not an integer and "1,5" is not a
// real.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "util/common.hpp"

namespace psdp::io::detail {

/// Cursor over the whitespace-separated fields of one line. Each reader
/// takes the next field and returns false -- leaving `out` untouched -- when
/// the line has no field left or the field is not wholly of that type, so
/// callers fold the results into their own named PSDP_CHECK. The line must
/// be NUL-terminated (a std::string or a C string): real() hands an
/// out-of-range number to std::strtod.
class Fields {
 public:
  explicit Fields(std::string_view line) : rest_(line) {}

  bool word(std::string_view& out);
  bool integer(Index& out);
  bool real(Real& out);
  /// True when only whitespace is left on the line.
  bool done();

 private:
  std::string_view rest_;
};

/// The content lines of a text stream: blank lines and lines whose first
/// non-blank character is `comment` ('#' for psdp files, '%' for
/// MatrixMarket bodies) are skipped.
class LineSource {
 public:
  LineSource(std::istream& in, char comment) : in_(in), comment_(comment) {}

  /// Advance to the next content line; false at end of input.
  bool next();
  const std::string& line() const { return line_; }
  Fields fields() const { return Fields(line_); }

 private:
  std::istream& in_;
  char comment_;
  std::string line_;
};

}  // namespace psdp::io::detail
