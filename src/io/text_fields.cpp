#include "io/text_fields.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <system_error>

namespace psdp::io::detail {

namespace {

/// The characters `std::istream >>` skips between fields (classic locale).
constexpr std::string_view kBlank = " \t\r\n\v\f";

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

bool Fields::word(std::string_view& field) {
  const std::size_t begin = rest_.find_first_not_of(kBlank);
  if (begin == std::string_view::npos) {
    rest_ = {};
    return false;
  }
  const std::size_t end = rest_.find_first_of(kBlank, begin);
  field = rest_.substr(begin, end - begin);  // npos - begin runs to the end
  rest_.remove_prefix(begin + field.size());
  return true;
}

bool Fields::integer(Index& out) {
  std::string_view field;
  if (!word(field)) return false;
  const char* first = field.data();
  const char* last = first + field.size();
  // from_chars takes no '+'; `>>` takes one before the digits ("+-3" fails).
  if (*first == '+') {
    ++first;
    if (first == last || !is_digit(*first)) return false;
  }
  Index value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return false;
  out = value;
  return true;
}

bool Fields::real(Real& out) {
  std::string_view field;
  if (!word(field)) return false;
  // A digit or '.' must follow the sign: this rejects inf and nan, which
  // from_chars accepts and `>>` does not.
  const std::size_t lead = field[0] == '+' || field[0] == '-' ? 1 : 0;
  if (lead == field.size() ||
      !(is_digit(field[lead]) || field[lead] == '.')) {
    return false;
  }
  if (field[0] == '+') field.remove_prefix(1);
  const char* last = field.data() + field.size();
  Real value = 0;
  const auto [ptr, ec] = std::from_chars(field.data(), last, value);
  // A dangling exponent ("1.5e") leaves ptr before the 'e'.
  if (ptr != last) return false;
  if (ec == std::errc::result_out_of_range) {
    // Ask strtod, as `>>` does: an underflow is read as the value strtod
    // rounds it to (a signed zero), an overflow (HUGE_VAL) fails. The line
    // is NUL-terminated and strtod stops at the blank after the field.
    value = std::strtod(field.data(), nullptr);
    if (std::isinf(value)) return false;
  } else if (ec != std::errc()) {
    return false;
  }
  out = value;
  return true;
}

bool Fields::done() {
  std::string_view field;
  return !word(field);
}

bool LineSource::next() {
  while (std::getline(in_, line_)) {
    const std::size_t pos = line_.find_first_not_of(kBlank);
    if (pos != std::string::npos && line_[pos] != comment_) return true;
  }
  return false;
}

}  // namespace psdp::io::detail
