#ifndef HYPERQ_COMMON_STRINGS_H_
#define HYPERQ_COMMON_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace hyperq {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `text` on every occurrence of `sep`; keeps empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string ToLower(std::string_view text);
std::string ToUpper(std::string_view text);

/// Case-insensitive ASCII comparison.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// 64-bit FNV-1a. Stable across processes, builds and platforms (std::hash
/// is none of these), so shard placement may depend on it.
inline uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Concatenates stream-formattable arguments into one string. Used for
/// building error messages: StrCat("unknown column '", name, "'").
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

}  // namespace hyperq

#endif  // HYPERQ_COMMON_STRINGS_H_
