#include "base/string_util.hpp"

#include <cctype>

#include "base/diagnostics.hpp"

namespace buffy {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_space(s[begin])) ++begin;
  while (end > begin && is_space(s[end - 1])) --end;
  return std::string(s.substr(begin, end - begin));
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string_view> words;
  split_whitespace(s, words);
  return {words.begin(), words.end()};
}

void split_whitespace(std::string_view s,
                      std::vector<std::string_view>& words) {
  words.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) words.push_back(s.substr(start, i - start));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

i64 parse_i64(std::string_view s) {
  const std::string t = trim(s);
  if (t.empty()) throw ParseError("empty integer literal");
  std::size_t i = 0;
  bool negative = false;
  if (t[0] == '+' || t[0] == '-') {
    negative = t[0] == '-';
    i = 1;
  }
  if (i == t.size()) throw ParseError("malformed integer literal: " + t);
  i64 value = 0;
  for (; i < t.size(); ++i) {
    const char c = t[i];
    if (c < '0' || c > '9') {
      throw ParseError("malformed integer literal: " + t);
    }
    try {
      value = checked_add(checked_mul(value, 10), c - '0');
    } catch (const OverflowError&) {
      throw ParseError("integer literal out of range: " + t);
    }
  }
  return negative ? -value : value;
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

}  // namespace buffy
