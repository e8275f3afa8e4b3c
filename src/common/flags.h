#ifndef COANE_COMMON_FLAGS_H_
#define COANE_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace coane {
namespace flags {

/// Strict whole-string numeric parse: the value must be non-empty, every
/// byte must be consumed, and the result must be in range. This is the
/// repo's one numeric-flag policy — no exceptions, no silent prefix
/// parses ("8x" is not 8), no atoi-style zero-on-garbage.
template <typename T>
bool ParseWhole(std::string_view value, T* out) {
  const char* begin = value.data();
  const char* end = begin + value.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end && !value.empty();
}

/// Reports a malformed numeric flag value on stderr and exits 2, the
/// usage-error status every tool shares.
[[noreturn]] void BadNumericValue(const std::string& key,
                                  const std::string& value);

/// Parsed "--key=value" flags; bare "--key" maps to "true"; arguments not
/// starting with "--" are ignored (tools route positionals themselves).
/// Malformed numeric values are a usage error (exit 2) — never an abort:
/// the repo convention is no exceptions, so parsing uses ParseWhole.
class FlagSet {
 public:
  /// Parses argv[first..argc). coane_cli passes first=2 (argv[1] is the
  /// subcommand); plain tools use the default.
  FlagSet(int argc, char** argv, int first = 1);

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const;
  /// Missing key returns `fallback`; a present-but-malformed value calls
  /// BadNumericValue (exit 2).
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// The "--flag" strings exactly as given, in order — what coane_distd's
  /// coordinator forwards to worker processes so both sides build the
  /// same plan and config from the same values.
  const std::vector<std::string>& raw() const { return raw_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> raw_;
};

}  // namespace flags
}  // namespace coane

#endif  // COANE_COMMON_FLAGS_H_
