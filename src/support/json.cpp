#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

namespace librisk::json {

namespace {

[[noreturn]] void type_error(const char* expected, Type got) {
  const char* names[] = {"null", "bool", "number", "string", "array", "object"};
  throw ParseError(std::string("expected ") + expected + ", value is " +
                   names[static_cast<int>(got)]);
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return number_;
}

int Value::as_int() const {
  const double n = as_number();
  if (n != std::floor(n) || n < -2147483648.0 || n > 2147483647.0)
    throw ParseError("expected integer, got " + std::to_string(n));
  return static_cast<int>(n);
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) type_error("string", type_);
  return string_;
}

const Array& Value::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return *array_;
}

const Object& Value::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return *object_;
}

const Value* Value::find(const std::string& key) const {
  if (type_ != Type::Object) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

double Value::number_or(const std::string& key, double fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_number();
}

int Value::int_or(const std::string& key, int fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_int();
}

bool Value::bool_or(const std::string& key, bool fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_bool();
}

std::string Value::string_or(const std::string& key,
                             const std::string& fallback) const {
  const Value* v = find(key);
  return v == nullptr ? fallback : v->as_string();
}

std::string Value::dump() const {
  std::ostringstream os;
  switch (type_) {
    case Type::Null: os << "null"; break;
    case Type::Bool: os << (bool_ ? "true" : "false"); break;
    case Type::Number: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.12g", number_);
      os << buf;
      break;
    }
    case Type::String: {
      os << '"';
      for (const char c : string_) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          case '\r': os << "\\r"; break;
          default: os << c;
        }
      }
      os << '"';
      break;
    }
    case Type::Array: {
      os << '[';
      bool first = true;
      for (const Value& v : *array_) {
        if (!first) os << ',';
        first = false;
        os << v.dump();
      }
      os << ']';
      break;
    }
    case Type::Object: {
      os << '{';
      bool first = true;
      for (const auto& [key, v] : *object_) {
        if (!first) os << ',';
        first = false;
        os << Value(key).dump() << ':' << v.dump();
      }
      os << '}';
      break;
    }
  }
  return os.str();
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value run() {
    skip_whitespace();
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream os;
    os << "JSON error at line " << line << ", column " << column << ": " << message;
    throw ParseError(os.str());
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_];
  }
  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }
  void skip_whitespace() {
    while (!at_end() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                         text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return Value(parse_number());
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  Value parse_object() {
    expect('{');
    Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      Value v = parse_value();
      if (object.contains(key)) fail("duplicate object key \"" + key + "\"");
      object.emplace(std::move(key), std::move(v));
      skip_whitespace();
      const char c = take();
      if (c == '}') return Value(std::move(object));
      if (c != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
  }

  Value parse_array() {
    expect('[');
    Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(array));
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') return Value(std::move(array));
      if (c != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = take();
            code <<= 4;
            if (h >= '0' && h <= '9') code += h - '0';
            else if (h >= 'a' && h <= 'f') code += 10 + h - 'a';
            else if (h >= 'A' && h <= 'F') code += 10 + h - 'A';
            else fail("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported —
          // configs are ASCII in practice; reject rather than mangle).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs unsupported");
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("invalid escape sequence");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (at_end()) fail("truncated number");
    if (peek() == '0') {
      ++pos_;
    } else {
      if (peek() < '1' || peek() > '9') fail("invalid number");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!at_end() && text_[pos_] == '.') {
      ++pos_;
      if (at_end() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("digits required after decimal point");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!at_end() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (!at_end() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (at_end() || text_[pos_] < '0' || text_[pos_] > '9')
        fail("digits required in exponent");
      while (!at_end() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    // strtod, not stod: stod throws std::out_of_range on a literal beyond
    // double's range. Overflow is an error here; underflow rounds toward 0.
    const std::string literal(text_.substr(start, pos_ - start));
    const double value = std::strtod(literal.c_str(), nullptr);
    if (std::isinf(value)) {
      pos_ = start;
      fail("number out of range: " + literal);
    }
    return value;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: os << c;
    }
  }
  os << '"';
}

}  // namespace

LineWriter& LineWriter::begin() {
  *os_ << '{';
  first_ = true;
  return *this;
}

void LineWriter::sep(std::string_view key) {
  if (!first_) *os_ << ',';
  first_ = false;
  write_escaped(*os_, key);
  *os_ << ':';
}

LineWriter& LineWriter::field(std::string_view key, std::string_view value) {
  sep(key);
  write_escaped(*os_, value);
  return *this;
}

LineWriter& LineWriter::field(std::string_view key, const char* value) {
  return field(key, std::string_view(value));
}

LineWriter& LineWriter::field(std::string_view key, double value) {
  sep(key);
  // Shortest round-trip form; integral values print without a decimal point
  // and parse back bit-equal either way.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  *os_ << std::string_view(buf, ec == std::errc() ? static_cast<std::size_t>(end - buf) : 0);
  return *this;
}

LineWriter& LineWriter::field(std::string_view key, std::int64_t value) {
  sep(key);
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  *os_ << std::string_view(buf, ec == std::errc() ? static_cast<std::size_t>(end - buf) : 0);
  return *this;
}

LineWriter& LineWriter::field(std::string_view key, std::uint64_t value) {
  sep(key);
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  *os_ << std::string_view(buf, ec == std::errc() ? static_cast<std::size_t>(end - buf) : 0);
  return *this;
}

LineWriter& LineWriter::field(std::string_view key, int value) {
  return field(key, static_cast<std::int64_t>(value));
}

LineWriter& LineWriter::field(std::string_view key, bool value) {
  sep(key);
  *os_ << (value ? "true" : "false");
  return *this;
}

void LineWriter::end() { *os_ << "}\n"; }

Value parse(std::string_view text) { return Parser(text).run(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open JSON file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

}  // namespace librisk::json
