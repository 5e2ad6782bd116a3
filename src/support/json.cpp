#include "support/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>
#include <utility>

#include "support/error.hpp"

namespace topomap::support::json {

namespace {

constexpr int kMaxDepth = 64;  // parser recursion bound

void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  // Runs of bytes that need no escape are appended in one call each.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:  // printf's "\\u%04x"
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

/// strtod's double for the decimal text [first, last), which must be a
/// complete number that from_chars accepts.  from_chars rounds exactly as
/// strtod does; only out-of-range texts (1e400, 1e-400), which from_chars
/// reports without a value, go through strtod for its overflow/underflow
/// result.
double read_double(const char* first, const char* last) {
  double d = 0.0;
  const std::from_chars_result r = std::from_chars(first, last, d);
  if (r.ec == std::errc::result_out_of_range) {
    const std::string copy(first, last);
    return std::strtod(copy.c_str(), nullptr);
  }
  TOPOMAP_ASSERT(r.ec == std::errc() && r.ptr == last,
                 "json: number text did not convert whole");
  return d;
}

/// Append format_number(d) to `out`.
void append_number(std::string& out, double d) {
  TOPOMAP_REQUIRE(std::isfinite(d), "json numbers must be finite");
  char buf[32];
  char* end = nullptr;
  if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
    // Integral values inside the exact double range print without a
    // fraction so counters stay readable and diffs stay clean.  printf's
    // "%.0f" of such a value is its integer digits, "-0" for negative
    // zero.
    if (d == 0.0 && std::signbit(d)) {
      out += "-0";
      return;
    }
    end = std::to_chars(buf, buf + sizeof buf, static_cast<std::int64_t>(d))
              .ptr;
  } else {
    // Shortest round-trip among 15, 16 and 17 significant digits.
    // chars_format::general with a precision is printf's "%.*g".
    for (int prec = 15; prec <= 17; ++prec) {
      end = std::to_chars(buf, buf + sizeof buf, d,
                          std::chars_format::general, prec)
                .ptr;
      if (read_double(buf, end) == d) break;
    }
  }
  out.append(buf, end);
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw precondition_error("json: " + what + " at byte " +
                             std::to_string(pos));
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Bytes up to the next quote, backslash or control character are
      // taken in one append.
      const std::size_t run = pos;
      while (pos < text.size()) {
        const auto b = static_cast<unsigned char>(text[pos]);
        if (b == '"' || b == '\\' || b < 0x20) break;
        ++pos;
      }
      out.append(text, run, pos - run);
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // Encode the code point as UTF-8.  Surrogate pairs are passed
          // through as two 3-byte sequences — obs never emits them, and
          // faithfully re-encoding lone surrogates keeps the parser total.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos;
    if (peek() == '-') ++pos;
    auto digits = [&] {
      bool any = false;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
        ++pos;
        any = true;
      }
      return any;
    };
    const std::size_t int_start = pos;
    if (!digits()) fail("malformed number");
    const std::size_t int_digits = pos - int_start;
    bool integral = true;
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      integral = false;
      if (!digits()) fail("malformed number fraction");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      integral = false;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digits()) fail("malformed number exponent");
    }
    if (integral && int_digits <= 15) {
      // Below 10^15 < 2^53 every integer is a double exactly, so this is
      // the value strtod rounds to (negated after, keeping "-0" at -0.0).
      std::int64_t v = 0;
      for (std::size_t i = int_start; i < pos; ++i) v = v * 10 + (text[i] - '0');
      const auto d = static_cast<double>(v);
      return text[start] == '-' ? -d : d;
    }
    // The slice is a valid JSON number grammar-wise, which from_chars
    // reads whole, in place.
    return read_double(text.data() + start, text.data() + pos);
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    const char c = peek();
    if (c == '{') {
      ++pos;
      Value v = Value::object();
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return v;
      }
      for (;;) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.set(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos;
      Value v = Value::array();
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return v;
      }
      for (;;) {
        v.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') return Value(parse_string());
    if (consume_literal("true")) return Value(true);
    if (consume_literal("false")) return Value(false);
    if (consume_literal("null")) return Value();
    if (c == '-' || (c >= '0' && c <= '9')) return Value(parse_number());
    fail("unexpected character");
  }
};

}  // namespace

std::string format_number(double d) {
  std::string out;
  append_number(out, d);
  return out;
}

bool Value::as_bool() const {
  TOPOMAP_REQUIRE(is_bool(), "json value is not a bool");
  return *std::get_if<bool>(&v_);
}

double Value::as_number() const {
  TOPOMAP_REQUIRE(is_number(), "json value is not a number");
  return *std::get_if<double>(&v_);
}

const std::string& Value::as_string() const {
  TOPOMAP_REQUIRE(is_string(), "json value is not a string");
  return *std::get_if<std::string>(&v_);
}

const std::vector<Value>& Value::items() const {
  TOPOMAP_REQUIRE(is_array(), "json value is not an array");
  return *std::get_if<std::vector<Value>>(&v_);
}

const Members& Value::members() const {
  TOPOMAP_REQUIRE(is_object(), "json value is not an object");
  return *std::get_if<Members>(&v_);
}

void Value::push_back(Value v) {
  TOPOMAP_REQUIRE(is_array(), "push_back on a non-array");
  std::get_if<std::vector<Value>>(&v_)->push_back(std::move(v));
}

std::size_t Value::size() const {
  if (const auto* arr = std::get_if<std::vector<Value>>(&v_))
    return arr->size();
  if (const auto* obj = std::get_if<Members>(&v_)) return obj->size();
  TOPOMAP_REQUIRE(false, "size() on a non-container json value");
  return 0;
}

void Value::set(std::string key, Value v) {
  TOPOMAP_REQUIRE(is_object(), "set on a non-object");
  Members& obj = *std::get_if<Members>(&v_);
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
}

const Value* Value::find(std::string_view key) const {
  TOPOMAP_REQUIRE(is_object(), "find on a non-object");
  for (const auto& [k, v] : *std::get_if<Members>(&v_))
    if (k == key) return &v;
  return nullptr;
}

Value* Value::find(std::string_view key) {
  return const_cast<Value*>(std::as_const(*this).find(key));
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  TOPOMAP_REQUIRE(v != nullptr, "missing json key: " + std::string(key));
  return *v;
}

std::string Value::dump(int indent) const {
  std::string out;
  Writer(out, indent).value(*this);
  return out;
}

void Writer::newline_pad() {
  if (indent_ < 0) return;
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_ * depth_), ' ');
}

void Writer::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (depth_ == 0) return;  // the document's top-level value
  if (!empty_) out_ += ',';
  empty_ = false;
  newline_pad();
}

Writer& Writer::begin_object() {
  separate();
  out_ += '{';
  ++depth_;
  empty_ = true;
  return *this;
}

Writer& Writer::end_object() {
  TOPOMAP_ASSERT(depth_ > 0 && !after_key_, "json writer: unbalanced '}'");
  --depth_;
  if (!empty_) newline_pad();
  out_ += '}';
  empty_ = false;
  return *this;
}

Writer& Writer::begin_array() {
  separate();
  out_ += '[';
  ++depth_;
  empty_ = true;
  return *this;
}

Writer& Writer::end_array() {
  TOPOMAP_ASSERT(depth_ > 0 && !after_key_, "json writer: unbalanced ']'");
  --depth_;
  if (!empty_) newline_pad();
  out_ += ']';
  empty_ = false;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  separate();
  append_escaped(out_, k);
  out_ += indent_ >= 0 ? ": " : ":";
  after_key_ = true;
  return *this;
}

Writer& Writer::null() {
  separate();
  out_ += "null";
  return *this;
}

Writer& Writer::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

Writer& Writer::value(double d) {
  separate();
  append_number(out_, d);
  return *this;
}

Writer& Writer::value(std::string_view s) {
  separate();
  append_escaped(out_, s);
  return *this;
}

Writer& Writer::value(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull: return null();
    case Value::Kind::kBool: return value(v.as_bool());
    case Value::Kind::kNumber: return value(v.as_number());
    case Value::Kind::kString: return value(std::string_view(v.as_string()));
    case Value::Kind::kArray:
      begin_array();
      for (const Value& item : v.items()) value(item);
      return end_array();
    case Value::Kind::kObject:
      begin_object();
      for (const auto& [k, member] : v.members()) key(k).value(member);
      return end_object();
  }
  TOPOMAP_UNREACHABLE("unhandled json kind");
}

Value Value::parse(std::string_view text) {
  Parser p{text};
  Value v = p.parse_value(0);
  p.skip_ws();
  TOPOMAP_REQUIRE(p.pos == text.size(),
                  "json: trailing garbage at byte " + std::to_string(p.pos));
  return v;
}

}  // namespace topomap::support::json
