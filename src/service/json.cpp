#include "service/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace buffy::service {

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue run() {
    skip_ws();
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  JsonValue value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 64 levels");
    skip_ws();
    switch (peek()) {
      case '{':
        return object(depth);
      case '[':
        return array(depth);
      case '"':
        return JsonValue::string(string_body());
      case 't':
        literal("true");
        return JsonValue::boolean(true);
      case 'f':
        literal("false");
        return JsonValue::boolean(false);
      case 'n':
        literal("null");
        return JsonValue();
      default:
        return number();
    }
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        fail(std::string("expected '") + word + "'");
      }
      ++pos_;
    }
  }

  JsonValue object(int depth) {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected a member name");
      std::string key = string_body();
      skip_ws();
      expect(':');
      obj.set(key, value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == '}') return obj;
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}'");
      }
    }
  }

  JsonValue array(int depth) {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(value(depth + 1));
      skip_ws();
      const char c = take();
      if (c == ']') return arr;
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']'");
      }
    }
  }

  // Appends one Unicode code point as UTF-8.
  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        fail("invalid \\u escape digit");
      }
    }
    return v;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char e = take();
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (take() != '\\' || take() != 'u') {
              fail("unpaired surrogate in \\u escape");
            }
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) {
              fail("invalid low surrogate in \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("stray low surrogate in \\u escape");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("unknown escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() < '0' || peek() > '9') {
      pos_ = start;
      fail("expected a value");
    }
    // Leading zeros are invalid JSON ("01"), a lone zero is fine.
    if (peek() == '0') {
      ++pos_;
      if (peek() >= '0' && peek() <= '9') fail("leading zero in number");
    } else {
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (peek() == '.') {
      integral = false;
      ++pos_;
      if (peek() < '0' || peek() > '9') fail("digits must follow '.'");
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (peek() < '0' || peek() > '9') fail("digits must follow exponent");
      while (peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      // Exact i64 when it fits; out-of-range integers are a diagnostic,
      // not a silent precision loss (capacities and deadlines are i64).
      try {
        std::size_t consumed = 0;
        const long long v = std::stoll(token, &consumed);
        if (consumed == token.size()) return JsonValue::integer(v);
      } catch (const std::out_of_range&) {
        fail("integer out of 64-bit range");
      } catch (const std::invalid_argument&) {
        // fall through to the double path below
      }
    }
    try {
      return JsonValue::number(std::stod(token));
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void dump_double(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no Infinity/NaN; null is the conventional substitute.
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  out += buf;
}

// Appends `s` as a JSON string literal including the quotes.
void quote_to(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::integer(i64 value) {
  JsonValue v;
  v.kind_ = Kind::Int;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::number(double value) {
  JsonValue v;
  v.kind_ = Kind::Double;
  v.double_ = value;
  return v;
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).run();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw ParseError("JSON: expected a boolean");
  return bool_;
}

i64 JsonValue::as_int() const {
  if (kind_ != Kind::Int) throw ParseError("JSON: expected an integer");
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) throw ParseError("JSON: expected a number");
  return double_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) throw ParseError("JSON: expected a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::Array) throw ParseError("JSON: expected an array");
  return array_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ != Kind::Array) throw ParseError("JSON: push_back on non-array");
  array_.push_back(std::move(v));
}

void JsonValue::set(const std::string& key, JsonValue v) {
  if (kind_ != Kind::Object) throw ParseError("JSON: set on non-object");
  for (auto& [name, value] : members_) {
    if (name == key) {
      value = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

std::string JsonValue::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void JsonValue::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Int: {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), int_).ptr);
      break;
    }
    case Kind::Double:
      dump_double(double_, out);
      break;
    case Kind::String:
      quote_to(out, string_);
      break;
    case Kind::Array: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : array_) {
        if (!first) out.push_back(',');
        first = false;
        item.dump_to(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [name, value] : members_) {
        if (!first) out.push_back(',');
        first = false;
        quote_to(out, name);
        out.push_back(':');
        value.dump_to(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  quote_to(out, s);
  return out;
}

}  // namespace buffy::service
