// Minimal JSON value model, writer, and parser shared by the whole stack.
//
// Two subsystems speak JSON: obs:: emits machine-readable artifacts
// (obs::Report documents and Chrome-trace span dumps) and consumes them
// again (tools/obs_diff, trace-validation tests), and svc:: frames every
// topomapd request/response as a JSON document.  All of it goes through
// this one value model so writers and parsers can never drift apart, and
// every JSON byte comes from one Writer: Value::dump walks a tree over it,
// and typed results (svc responses, contention reports) stream through it
// with no tree in between.
//
// Scope is deliberately small: UTF-8 in/out, objects preserve insertion
// order (reports diff cleanly), numbers are doubles printed with round-trip
// precision (integral values print without a fraction).  Malformed input
// throws topomap::precondition_error with a byte offset.  This is not a
// general-purpose JSON library; it exists so obs has zero external
// dependencies.
//
// Numbers go through std::to_chars/std::from_chars: integral values below
// 2^53 as integers (printf's "%.0f" digits), the rest at general
// precision, which the standard defines as printf's "%.*g", and parsing
// rounds as strtod does.  The bytes are the printf-era bytes without
// printf's locale lookups or a temporary string per number
// (tests/test_obs.cpp checks both directions against the printf and
// strtod formula on over a million doubles).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace topomap::support::json {

class Value;

/// Object members as an insertion-ordered vector: report sections keep the
/// order they were written in, and repeated set() overwrites in place.
using Members = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : v_(std::in_place_index<1>, b) {}
  Value(double d) : v_(std::in_place_index<2>, d) {}
  Value(int i) : v_(std::in_place_index<2>, i) {}
  Value(std::int64_t i) : v_(std::in_place_index<2>, static_cast<double>(i)) {}
  Value(std::uint64_t u)
      : v_(std::in_place_index<2>, static_cast<double>(u)) {}
  Value(std::string s) : v_(std::in_place_index<3>, std::move(s)) {}
  Value(const char* s) : v_(std::in_place_index<3>, s) {}

  static Value array() {
    Value v;
    v.v_.emplace<4>();
    return v;
  }
  static Value object() {
    Value v;
    v.v_.emplace<5>();
    return v;
  }

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  /// Typed accessors; throw precondition_error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<Value>& items() const;
  const Members& members() const;

  /// Array append (requires kArray).
  void push_back(Value v);
  std::size_t size() const;

  /// Object member access (requires kObject).  set() overwrites an existing
  /// key in place; find() returns nullptr when absent; at() throws.
  void set(std::string key, Value v);
  const Value* find(std::string_view key) const;
  /// Mutable lookup, so a member can be moved out of a parsed document.
  Value* find(std::string_view key);
  const Value& at(std::string_view key) const;

  /// Serialize through a Writer.  indent < 0: compact one-line form;
  /// indent >= 0: pretty, `indent` spaces per level.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (trailing garbage is an error).
  /// Throws precondition_error with a byte offset on malformed input.
  /// A repeated object key keeps its first position and its last value.
  static Value parse(std::string_view text);

 private:
  // One alternative per Kind, in Kind order, so index() is the kind: a
  // node is 40 bytes, not the sum of every kind's storage.
  std::variant<std::monostate, bool, double, std::string, std::vector<Value>,
               Members>
      v_;
};

/// The one producer of JSON bytes: appends a document to a string as a
/// sequence of begin/key/value/end events, so a typed result renders
/// straight to text without first building a Value tree (Value::dump is a
/// walk over this class).  The forms are Value::dump's: compact when
/// indent < 0, else `indent` spaces per level, with ": " after keys and
/// empty containers closed on their opening line.  Integers are written
/// as the double a Value would hold.  Callers keep the event order valid
/// (a key before every object member, balanced begin/end); a non-finite
/// number throws precondition_error.
class Writer {
 public:
  explicit Writer(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}

  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();
  /// The key of the next object member.
  Writer& key(std::string_view k);

  Writer& null();
  Writer& value(bool b);
  Writer& value(double d);
  Writer& value(int i) { return value(static_cast<double>(i)); }
  Writer& value(std::int64_t i) { return value(static_cast<double>(i)); }
  Writer& value(std::uint64_t u) { return value(static_cast<double>(u)); }
  Writer& value(std::string_view s);
  Writer& value(const std::string& s) { return value(std::string_view(s)); }
  Writer& value(const char* s) { return value(std::string_view(s)); }
  /// Embed a whole tree.
  Writer& value(const Value& v);

  /// key(k), then value(v).
  template <class T>
  Writer& member(std::string_view k, const T& v) {
    key(k);
    return value(v);
  }

 private:
  /// The comma and line break owed before the next key or array item.
  void separate();
  void newline_pad();

  std::string& out_;
  int indent_;
  int depth_ = 0;
  bool empty_ = true;       // the open container has no item yet
  bool after_key_ = false;  // a key was written; its value comes next
};

/// Round-trip formatting for a JSON number: integral values within the
/// exactly-representable range print as integers, everything else with
/// enough digits to survive parse(dump(x)) bit-exactly.
std::string format_number(double d);

}  // namespace topomap::support::json
