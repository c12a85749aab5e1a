#pragma once

// Strict number parsing for the command-line tools: the whole argument
// must be the number, so "2x", "3e2" for a count, "-1" or "nan" are
// refused instead of being truncated, wrapped or passed through.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>

namespace arb::tools {

/// A non-negative integer written in decimal digits only.
inline std::optional<std::uint64_t> parse_uint(const char* text) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// A positive integer written in decimal digits only.
inline std::optional<std::uint64_t> parse_count(const char* text) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value || *value == 0) return std::nullopt;
  return value;
}

/// A finite number in decimal or scientific notation.
inline std::optional<double> parse_finite(const char* text) {
  double value = 0.0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace arb::tools
