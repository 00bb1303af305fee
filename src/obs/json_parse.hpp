/// \file json_parse.hpp
/// Minimal JSON reader — the inverse of obs::JsonWriter. It exists so
/// the repo can consume its *own* artifacts (trace JSONL / Chrome trace
/// files for obs::analysis, BENCH_*.json reports for tools/bench_diff)
/// without an external dependency; it is a full RFC 8259 parser minus
/// \u surrogate-pair decoding (escapes are validated and kept verbatim,
/// which is lossless for round-tripping and irrelevant for the ASCII
/// keys the repo emits).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace svo::obs {

/// One parsed JSON value. Object members keep insertion order (the
/// writer emits deterministic order; diffs should see it).
class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;  // null

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }
  /// True for a Number whose lexeme was integral and fits std::int64_t
  /// exactly (as_int() is then lossless).
  [[nodiscard]] bool is_integer() const noexcept { return is_int_; }

  /// Typed accessors; throw InvalidArgument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>&
  members() const;

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Convenience readers over find(): fallback on absent member or
  /// type mismatch.
  [[nodiscard]] double number_or(std::string_view key, double fb) const;
  [[nodiscard]] std::uint64_t uint_or(std::string_view key,
                                      std::uint64_t fb) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string fb) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_integer(std::int64_t i);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  bool is_int_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  std::string str_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parse exactly one JSON value (leading/trailing whitespace allowed).
/// Throws IoError on malformed input, with a byte offset in the message;
/// arrays and objects nested more than 256 deep count as malformed.
[[nodiscard]] JsonValue parse_json(std::string_view text);

/// Non-throwing variant: nullopt on malformed input.
[[nodiscard]] std::optional<JsonValue> try_parse_json(std::string_view text);

}  // namespace svo::obs
