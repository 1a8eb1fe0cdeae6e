// Checked decimal parsing for numbers that arrive from outside the program:
// environment variables and command-line options.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace dm::util {

/// Parses `text` as a non-negative decimal integer of type T. The whole
/// string must be digits: an empty string, a sign, whitespace, trailing
/// characters, or a value that does not fit in T all give nullopt.
template <class T>
[[nodiscard]] std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_integral_v<T>);
  // from_chars takes a leading '-' for signed T; a count is never negative.
  if (text.empty() || text.front() == '-') return std::nullopt;
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace dm::util
