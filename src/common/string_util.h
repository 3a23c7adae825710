// Small string helpers shared across tyder.

#ifndef TYDER_COMMON_STRING_UTIL_H_
#define TYDER_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/result.h"

namespace tyder {

// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Splits `s` on `sep`, trimming ASCII whitespace from each piece and dropping
// empty pieces. "a, b ,c" -> {"a","b","c"}.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// True iff `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
bool IsIdentifier(std::string_view s);

// Parses all of `text` as a number of type T with std::from_chars: base-10
// integers, or decimal floating point ("inf" and "nan" included); no leading
// whitespace or '+', nothing after the number. Fails with ParseError naming
// `text` when it is not such a number or does not fit in T.
template <typename T>
Result<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::ParseError("number '" + std::string(text) +
                              "' is out of range");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("malformed number '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace tyder

#endif  // TYDER_COMMON_STRING_UTIL_H_
