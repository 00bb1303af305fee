#include "obs/json_parse.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

#include "util/error.hpp"

namespace svo::obs {

bool JsonValue::as_bool() const {
  detail::require(type_ == Type::Bool, "JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  detail::require(type_ == Type::Number, "JsonValue: not a number");
  return num_;
}

std::int64_t JsonValue::as_int() const {
  detail::require(is_int_, "JsonValue: not an integral number");
  return int_;
}

std::uint64_t JsonValue::as_uint() const {
  detail::require(is_int_ && int_ >= 0,
                  "JsonValue: not a non-negative integral number");
  return static_cast<std::uint64_t>(int_);
}

const std::string& JsonValue::as_string() const {
  detail::require(type_ == Type::String, "JsonValue: not a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  detail::require(type_ == Type::Array, "JsonValue: not an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  detail::require(type_ == Type::Object, "JsonValue: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fb) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->num_ : fb;
}

std::uint64_t JsonValue::uint_or(std::string_view key,
                                 std::uint64_t fb) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_int_ && v->int_ >= 0)
             ? static_cast<std::uint64_t>(v->int_)
             : fb;
}

std::string JsonValue::string_or(std::string_view key, std::string fb) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->str_ : std::move(fb);
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::Bool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.type_ = Type::Number;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::make_integer(std::int64_t i) {
  JsonValue v;
  v.type_ = Type::Number;
  v.num_ = static_cast<double>(i);
  v.is_int_ = true;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::String;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::Array;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.type_ = Type::Object;
  v.members_ = std::move(members);
  return v;
}

namespace {

/// Deepest array/object nesting accepted. Parsing recurses once per
/// level, so hostile input ("[[[[...") must not reach the stack limit;
/// the repository writes at most a handful of levels.
constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    skip_ws();
    JsonValue v = value();
    skip_ws();
    require(pos_ == text_.size(), "trailing content after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw IoError("JSON parse error at byte " + std::to_string(pos_) + ": " +
                  what);
  }
  void require(bool cond, const char* what) const {
    if (!cond) fail(what);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  JsonValue value() {
    switch (peek()) {
      case '{':
        return nested(&Parser::object);
      case '[':
        return nested(&Parser::array);
      case '"':
        return JsonValue::make_string(string());
      case 't':
        literal("true");
        return JsonValue::make_bool(true);
      case 'f':
        literal("false");
        return JsonValue::make_bool(false);
      case 'n':
        literal("null");
        return JsonValue::make_null();
      default:
        return number();
    }
  }

  /// object() or array(), one nesting level deeper.
  JsonValue nested(JsonValue (Parser::*container)()) {
    require(depth_ < kMaxDepth, "nesting deeper than 256 levels");
    ++depth_;
    JsonValue v = (this->*container)();
    --depth_;
    return v;
  }

  JsonValue object() {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      require(peek() == '"', "expected object key");
      std::string key = string();
      skip_ws();
      require(peek() == ':', "expected ':' after object key");
      ++pos_;
      skip_ws();
      members.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      require(peek() == '}', "expected ',' or '}' in object");
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
  }

  JsonValue array() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    for (;;) {
      skip_ws();
      items.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      require(peek() == ']', "expected ',' or ']' in array");
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
  }

  std::string string() {
    require(peek() == '"', "expected string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      require(static_cast<unsigned char>(c) >= 0x20,
              "raw control character in string");
      if (c == '\\') {
        ++pos_;
        require(pos_ < text_.size(), "dangling escape");
        const char e = text_[pos_];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            require(pos_ + 4 < text_.size(), "truncated \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              require(std::isxdigit(static_cast<unsigned char>(h)),
                      "bad \\u escape");
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0'
                                  : (std::tolower(h) - 'a' + 10));
            }
            // The writer only ever emits \u00xx for control bytes;
            // decode the Latin-1 range and keep anything else verbatim
            // (lossless, and never produced by our own writer).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else {
              out.append(text_.substr(pos_ - 1, 6));
            }
            pos_ += 4;
            break;
          }
          default:
            fail("invalid escape character");
        }
        ++pos_;
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    fail("unterminated string");
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    bool integral = pos_ > start && (text_[start] != '-' || pos_ > start + 1);
    if (peek() == '.') {
      integral = false;
      ++pos_;
      require(std::isdigit(static_cast<unsigned char>(peek())),
              "digit required after decimal point");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      integral = false;
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      require(std::isdigit(static_cast<unsigned char>(peek())),
              "digit required in exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    require(pos_ > start, "expected a JSON value");
    const std::string_view lexeme = text_.substr(start, pos_ - start);
    require(std::isdigit(static_cast<unsigned char>(lexeme.back())),
            "malformed number");
    // RFC 8259: no leading zeros ("01"), no bare "-".
    const std::string_view digits =
        lexeme[0] == '-' ? lexeme.substr(1) : lexeme;
    require(!digits.empty() && (digits[0] != '0' || digits.size() == 1 ||
                                digits[1] == '.' || digits[1] == 'e' ||
                                digits[1] == 'E'),
            "leading zero in number");
    if (integral) {
      std::int64_t i = 0;
      const auto [p, ec] =
          std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), i);
      if (ec == std::errc() && p == lexeme.data() + lexeme.size()) {
        return JsonValue::make_integer(i);
      }
      // Integral lexeme outside int64 (e.g. uint64 max): fall through
      // to double — as_int() will refuse, as_double() approximates.
    }
    double d = 0.0;
    const auto [p, ec] =
        std::from_chars(lexeme.data(), lexeme.data() + lexeme.size(), d);
    require(ec == std::errc() && p == lexeme.data() + lexeme.size(),
            "malformed number");
    return JsonValue::make_number(d);
  }

  void literal(std::string_view lit) {
    require(text_.substr(pos_, lit.size()) == lit, "invalid literal");
    pos_ += lit.size();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse(); }

std::optional<JsonValue> try_parse_json(std::string_view text) {
  try {
    return parse_json(text);
  } catch (const IoError&) {
    return std::nullopt;
  }
}

}  // namespace svo::obs
