#ifndef COANE_COMMON_STRING_UTILS_H_
#define COANE_COMMON_STRING_UTILS_H_

#include <string>
#include <string_view>
#include <vector>

namespace coane {

/// Splits `s` at each occurrence of `delim`. Adjacent delimiters produce
/// empty fields; an empty input produces a single empty field.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on arbitrary runs of whitespace; no empty fields are produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// True when `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a double with `digits` decimal places (fixed notation).
std::string FormatDouble(double value, int digits);

}  // namespace coane

#endif  // COANE_COMMON_STRING_UTILS_H_
