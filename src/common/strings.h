#ifndef HYPERQ_COMMON_STRINGS_H_
#define HYPERQ_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
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

namespace strings_internal {

/// Appends one StrCat argument as `std::ostream <<` would print it:
/// strings and characters are copied, integers written by std::to_chars,
/// and anything else (floating point, enums with an operator<<) still
/// goes through a stream, so the text is the same either way.
template <typename T>
void AppendPiece(std::string* out, const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(v));
  } else if constexpr (std::is_same_v<T, char>) {
    out->push_back(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    out->push_back(v ? '1' : '0');
  } else if constexpr (std::is_integral_v<T> && sizeof(T) > 1 &&
                       !std::is_same_v<T, wchar_t> &&
                       !std::is_same_v<T, char16_t> &&
                       !std::is_same_v<T, char32_t>) {
    char buf[24];
    auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out->append(buf, end);
  } else {
    std::ostringstream os;
    os << v;
    out->append(os.str());
  }
}

}  // namespace strings_internal

/// Concatenates stream-formattable arguments into one string, appending
/// into a single buffer: StrCat("unknown column '", name, "'").
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  (strings_internal::AppendPiece(&out, args), ...);
  return out;
}

}  // namespace hyperq

#endif  // HYPERQ_COMMON_STRINGS_H_
