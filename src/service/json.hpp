// Minimal JSON document model for the buffyd wire protocol (DESIGN.md §10).
//
// The daemon speaks newline-delimited JSON, so it needs a real parser (the
// trace/ and exec/ layers only ever *write* JSON). This one covers the
// full grammar — objects, arrays, strings with escapes (including \uXXXX
// with surrogate pairs), numbers, true/false/null — builds a value tree,
// and enforces a nesting-depth bound so hostile inputs cannot overflow the
// stack. Numbers that are integral and fit in i64 are kept exact (request
// fields like deadlines and capacities are integers); everything else is a
// double.
//
// Serialisation is deterministic: object members keep insertion order and
// the writer emits no insignificant whitespace, so a value round-trips
// byte-identically through dump() and responses are stable for golden
// tests.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "base/checked_math.hpp"
#include "base/diagnostics.hpp"

namespace buffy::service {

/// One JSON value (tree of nested values). Cheap to move, expensive to
/// copy (copies the whole subtree).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  /// The null value.
  JsonValue() = default;

  [[nodiscard]] static JsonValue boolean(bool b);
  [[nodiscard]] static JsonValue integer(i64 v);
  [[nodiscard]] static JsonValue number(double v);
  [[nodiscard]] static JsonValue string(std::string s);
  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  /// Parses exactly one JSON value (plus surrounding whitespace); throws
  /// ParseError with an offset on any deviation from the grammar, on
  /// trailing bytes, and on nesting deeper than 64 levels.
  [[nodiscard]] static JsonValue parse(const std::string& text);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }
  [[nodiscard]] bool is_int() const { return kind_ == Kind::Int; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  /// Typed accessors; each throws ParseError when the kind differs (the
  /// protocol layer turns that into a bad_request diagnostic).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] i64 as_int() const;
  [[nodiscard]] double as_double() const;  // Int widens to double
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& as_array() const;

  /// Object member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Appends to an array value (throws ParseError on non-arrays).
  void push_back(JsonValue v);
  /// Sets an object member, replacing any existing one (throws ParseError
  /// on non-objects). Insertion order is preserved by dump().
  void set(const std::string& key, JsonValue v);

  /// Compact serialisation (no whitespace); parse(dump()) round-trips.
  [[nodiscard]] std::string dump() const;
  /// Appends dump() to `out`: one buffer for the whole tree.
  void dump_to(std::string& out) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  i64 int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escapes a string as a JSON string literal including the quotes.
[[nodiscard]] std::string json_quote(const std::string& s);

}  // namespace buffy::service
