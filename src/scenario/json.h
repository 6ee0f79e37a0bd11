// Minimal strict-JSON parser with source positions, built for diagnosable
// configuration files rather than speed: every value and every object key
// remembers its line:col, so schema errors ("expected int", "unknown key")
// can point at the exact token. Shared by the scenario schema
// (scenario/scenario.h) and the BENCH_*.json result loader
// (scenario/result_store.h).
//
// Strictness: RFC-8259 JSON only — no comments, no trailing commas, no
// NaN/Infinity. Duplicate object keys and trailing content after the root
// value are errors. Integers without '.'/exponent parse as kInt (int64),
// everything else numeric as kDouble; a number that overflows its type is
// an error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/diagnostics.h"

namespace pw::scenario {

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  // One object member ("key": value) with the key's own location. Defined
  // after the class — it holds a Json by value.
  struct Member;

  Kind kind() const { return kind_; }
  SourceLoc loc() const { return loc_; }

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  // Any JSON number (int or double).
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Accessors assume the matching kind (callers check first; the schema
  // layer funnels every access through checked readers).
  bool bool_value() const { return bool_; }
  std::int64_t int_value() const { return int_; }
  // Numeric value as double (ints promote).
  double number_value() const {
    return kind_ == Kind::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& string_value() const { return string_; }
  const std::vector<Json>& array() const { return array_; }
  const std::vector<Member>& members() const { return members_; }

  // Object member lookup; nullptr when absent or not an object.
  const Json* Find(const std::string& key) const;
  // Key location for diagnostics; value loc when the key is unknown.
  SourceLoc KeyLoc(const std::string& key) const;

  // "null" / "bool" / "int" / "double" / "string" / "array" / "object" —
  // for "expected X, got Y" messages.
  static const char* KindName(Kind kind);
  const char* kind_name() const { return KindName(kind_); }

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  SourceLoc loc_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<Member> members_;
};

struct Json::Member {
  std::string key;
  SourceLoc key_loc;
  Json value;
};

// Parses `text` (named `file` in diagnostics) into *out. Returns false and
// reports into `diags` on the first syntax error. `diags` should be
// constructed over the same file/text so renders can excerpt source lines.
bool ParseJson(const std::string& text, Json* out, DiagnosticEngine* diags);

}  // namespace pw::scenario
