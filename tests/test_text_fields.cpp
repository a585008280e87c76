// The shared text field reader against `std::istream >>`, the parser it
// replaced: every token `>>` rejects is rejected, and every accepted value
// has the same bits.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "io/text_fields.hpp"
#include "util/wire.hpp"

namespace psdp::io::detail {
namespace {

const char* const kTokens[] = {
    "0", "-0", "+3", "007", ".5", "+.5", "-.5", "3.", "1e-400", "-1e-400",
    "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1.7976931348623157e308", "1.7976931348623159e308", "1e309", "-1e309",
    "0e999999999999", "1e-99999999999999999999", "inf", "-inf", "infinity",
    "nan", "+nan", "NaN", "0x1p3", "0x10", "1.5e", "1.5e+", "1e", "e5", "1E5",
    "-2.5E-3", "1,5", "-", "+", ".", "+-3", "-+3", "--3", "3.5",
    "0.10000000000000001", "1.0000000000000002", "-1234567890123456789",
    "99999999999999999999", "12abc", "\t42\r", " -7\t", "1.25\r", "\t\r",
    "3\t4", "\r+8\r",
};

/// What `>>` makes of the whole token: the value when one extraction
/// succeeds and only whitespace is left, nothing otherwise.
template <typename T>
bool extract(const std::string& token, T& out) {
  std::istringstream in(token);
  T value{};
  if (!(in >> value)) return false;
  if (!(in >> std::ws).eof()) return false;
  out = value;
  return true;
}

TEST(TextFields, MatchesIstreamExtraction) {
  for (const char* token : kTokens) {
    Index want_int = 0, got_int = 0;
    const bool ref_int = extract(token, want_int);
    Fields as_int(token);
    const bool ok_int = as_int.integer(got_int) && as_int.done();
    EXPECT_EQ(ok_int, ref_int) << "integer '" << token << "'";
    if (ok_int && ref_int) {
      EXPECT_EQ(got_int, want_int) << token;
    }

    Real want_real = 0, got_real = 0;
    const bool ref_real = extract(token, want_real);
    Fields as_real(token);
    const bool ok_real = as_real.real(got_real) && as_real.done();
    EXPECT_EQ(ok_real, ref_real) << "real '" << token << "'";
    if (ok_real && ref_real) {
      EXPECT_EQ(util::hex_bits(got_real), util::hex_bits(want_real)) << token;
    }
  }
}

TEST(TextFields, FailureLeavesOutputUntouched) {
  Fields fields("abc 1e309");
  Index i = 5;
  EXPECT_FALSE(fields.integer(i));
  EXPECT_EQ(i, 5);
  Real v = 2.5;
  EXPECT_FALSE(fields.real(v));
  EXPECT_EQ(v, 2.5);
  EXPECT_FALSE(fields.real(v));  // no field left
  EXPECT_TRUE(fields.done());
}

TEST(TextFields, WordsSplitOnEveryBlank) {
  Fields fields(" psdp\tcovering \r 1\v");
  std::string_view a, b;
  Index version = 0;
  EXPECT_TRUE(fields.word(a));
  EXPECT_TRUE(fields.word(b));
  EXPECT_TRUE(fields.integer(version));
  EXPECT_TRUE(fields.done());
  EXPECT_EQ(a, "psdp");
  EXPECT_EQ(b, "covering");
  EXPECT_EQ(version, 1);
  EXPECT_FALSE(fields.word(a));
}

TEST(TextFields, LineSourceSkipsBlankAndCommentLines) {
  std::istringstream in("# header\r\n\r\n  \t\nsize 1 2\r\n  % kept\n# x\n");
  LineSource hash(in, '#');
  ASSERT_TRUE(hash.next());
  EXPECT_EQ(hash.line(), "size 1 2\r");
  ASSERT_TRUE(hash.next());
  EXPECT_EQ(hash.line(), "  % kept");
  EXPECT_FALSE(hash.next());

  std::istringstream mm("%comment\n\n1 2 3\n");
  LineSource percent(mm, '%');
  ASSERT_TRUE(percent.next());
  Fields f = percent.fields();
  Index a = 0, b = 0, c = 0;
  EXPECT_TRUE(f.integer(a) && f.integer(b) && f.integer(c) && f.done());
  EXPECT_EQ(a + b + c, 6);
  EXPECT_FALSE(percent.next());
}

}  // namespace
}  // namespace psdp::io::detail
