// Small string helpers shared by the parsers and report renderers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "base/checked_math.hpp"

namespace buffy {

/// Copy of s with leading and trailing ASCII whitespace removed.
[[nodiscard]] std::string trim(std::string_view s);

/// Splits s on the separator character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits s on runs of ASCII whitespace; no empty fields are produced.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view s);

/// The same split into views of s, replacing the contents of `words` (a
/// caller splitting many lines reuses one vector).
void split_whitespace(std::string_view s, std::vector<std::string_view>& words);

/// True when s starts with the given prefix.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a decimal (optionally signed) 64-bit integer; throws ParseError
/// on any malformed or out-of-range input.
[[nodiscard]] i64 parse_i64(std::string_view s);

/// Left-pads s with spaces to the given width (no-op when already wider).
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);

/// Right-pads s with spaces to the given width (no-op when already wider).
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);

}  // namespace buffy
