// Minimal JSON value model, writer, and parser shared by the whole stack.
//
// Two subsystems speak JSON: obs:: emits machine-readable artifacts
// (obs::Report documents and Chrome-trace span dumps) and consumes them
// again (tools/obs_diff, trace-validation tests), and svc:: frames every
// topomapd request/response as a JSON document.  All of it goes through
// this one value model so writers and parsers can never drift apart.
//
// Scope is deliberately small: UTF-8 in/out, objects preserve insertion
// order (reports diff cleanly), numbers are doubles printed with round-trip
// precision (integral values print without a fraction).  Malformed input
// throws topomap::precondition_error with a byte offset.  This is not a
// general-purpose JSON library; it exists so obs has zero external
// dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
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
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}
  Value(double d) : kind_(Kind::kNumber), num_(d) {}
  Value(int i) : kind_(Kind::kNumber), num_(i) {}
  Value(std::int64_t i)
      : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  Value(std::uint64_t u)
      : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  Value(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Value(const char* s) : kind_(Kind::kString), str_(s) {}

  static Value array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

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
  const Value& at(std::string_view key) const;

  /// Serialize.  indent < 0: compact one-line form; indent >= 0: pretty,
  /// `indent` spaces per level.
  std::string dump(int indent = -1) const;

  /// Parse a complete JSON document (trailing garbage is an error).
  /// Throws precondition_error with a byte offset on malformed input.
  static Value parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Value> arr_;
  Members obj_;
};

/// Round-trip formatting for a JSON number: integral values within the
/// exactly-representable range print as integers, everything else with
/// enough digits to survive parse(dump(x)) bit-exactly.
std::string format_number(double d);

}  // namespace topomap::support::json
