#include "scenario/json.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace pw::scenario {

const Json* Json::Find(const std::string& key) const {
  for (const Member& m : members_) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

SourceLoc Json::KeyLoc(const std::string& key) const {
  for (const Member& m : members_) {
    if (m.key == key) return m.key_loc;
  }
  return loc_;
}

const char* Json::KindName(Kind kind) {
  switch (kind) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kInt: return "int";
    case Kind::kDouble: return "double";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

// Recursive-descent parser tracking line/col as it consumes bytes.
class JsonParser {
 public:
  JsonParser(const std::string& text, DiagnosticEngine* diags)
      : text_(text), diags_(diags) {}

  bool Parse(Json* out) {
    SkipWhitespace();
    if (AtEnd()) {
      diags_->Error(Loc(), "empty document: expected a JSON value");
      return false;
    }
    if (!ParseValue(out, /*depth=*/0)) return false;
    SkipWhitespace();
    if (!AtEnd()) {
      diags_->Error(Loc(), "trailing content after the top-level value");
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  SourceLoc Loc() const { return {line_, col_}; }

  char Advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }

  void SkipWhitespace() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        Advance();
      } else {
        return;
      }
    }
  }

  bool Fail(SourceLoc loc, std::string msg) {
    diags_->Error(loc, std::move(msg));
    return false;
  }

  bool ParseValue(Json* out, int depth) {
    if (depth > kMaxDepth) {
      return Fail(Loc(), "nesting deeper than " + std::to_string(kMaxDepth) +
                             " levels");
    }
    SkipWhitespace();
    if (AtEnd()) return Fail(Loc(), "unexpected end of input");
    out->loc_ = Loc();
    const char c = Peek();
    switch (c) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"': {
        out->kind_ = Json::Kind::kString;
        return ParseString(&out->string_);
      }
      case 't': return ParseKeyword("true", out, Json::Kind::kBool, true);
      case 'f': return ParseKeyword("false", out, Json::Kind::kBool, false);
      case 'n': return ParseKeyword("null", out, Json::Kind::kNull, false);
      default: return ParseNumber(out);
    }
  }

  bool ParseKeyword(const char* word, Json* out, Json::Kind kind,
                    bool bool_value) {
    const SourceLoc start = Loc();
    for (const char* p = word; *p; ++p) {
      if (AtEnd() || Peek() != *p) {
        return Fail(start, std::string("invalid token; expected '") + word +
                               "'");
      }
      Advance();
    }
    out->kind_ = kind;
    out->bool_ = bool_value;
    return true;
  }

  bool ParseObject(Json* out, int depth) {
    out->kind_ = Json::Kind::kObject;
    Advance();  // '{'
    SkipWhitespace();
    if (!AtEnd() && Peek() == '}') {
      Advance();
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') {
        return Fail(Loc(), "expected '\"' to begin an object key");
      }
      Json::Member member;
      member.key_loc = Loc();
      if (!ParseString(&member.key)) return false;
      for (const Json::Member& prev : out->members_) {
        if (prev.key == member.key) {
          return Fail(member.key_loc,
                      "duplicate key '" + member.key + "' (first at line " +
                          std::to_string(prev.key_loc.line) + ")");
        }
      }
      SkipWhitespace();
      if (AtEnd() || Peek() != ':') {
        return Fail(Loc(), "expected ':' after object key '" + member.key +
                               "'");
      }
      Advance();
      if (!ParseValue(&member.value, depth + 1)) return false;
      out->members_.push_back(std::move(member));
      SkipWhitespace();
      if (AtEnd()) return Fail(Loc(), "unterminated object: expected ',' or '}'");
      const char c = Advance();
      if (c == '}') return true;
      if (c != ',') {
        return Fail(out->members_.back().value.loc(),
                    "expected ',' or '}' after object member");
      }
    }
  }

  bool ParseArray(Json* out, int depth) {
    out->kind_ = Json::Kind::kArray;
    Advance();  // '['
    SkipWhitespace();
    if (!AtEnd() && Peek() == ']') {
      Advance();
      return true;
    }
    while (true) {
      Json element;
      if (!ParseValue(&element, depth + 1)) return false;
      out->array_.push_back(std::move(element));
      SkipWhitespace();
      if (AtEnd()) return Fail(Loc(), "unterminated array: expected ',' or ']'");
      const char c = Advance();
      if (c == ']') return true;
      if (c != ',') {
        return Fail(out->array_.back().loc(),
                    "expected ',' or ']' after array element");
      }
    }
  }

  bool ParseString(std::string* out) {
    const SourceLoc start = Loc();
    Advance();  // opening '"'
    out->clear();
    while (true) {
      if (AtEnd()) return Fail(start, "unterminated string");
      const SourceLoc char_loc = Loc();
      const char c = Advance();
      if (c == '"') return true;
      if (c == '\n') return Fail(start, "unterminated string");
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (AtEnd()) return Fail(start, "unterminated string");
      const char esc = Advance();
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (AtEnd()) return Fail(start, "unterminated string");
            const char h = Advance();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Fail(char_loc, "invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // stitched — scenario files are ASCII in practice).
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail(char_loc, std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  bool ParseNumber(Json* out) {
    const SourceLoc start = Loc();
    const std::size_t begin = pos_;
    bool is_double = false;
    if (!AtEnd() && Peek() == '-') Advance();
    while (!AtEnd()) {
      const char c = Peek();
      if (c >= '0' && c <= '9') {
        Advance();
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        Advance();
      } else {
        break;
      }
    }
    const std::string token = text_.substr(begin, pos_ - begin);
    if (token.empty() || token == "-") {
      return Fail(start, "invalid value");
    }
    errno = 0;
    char* end = nullptr;
    if (!is_double) {
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE) return Fail(start, "integer out of range");
      if (end != token.c_str() + token.size()) {
        return Fail(start, "invalid number '" + token + "'");
      }
      out->kind_ = Json::Kind::kInt;
      out->int_ = v;
      return true;
    }
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Fail(start, "invalid number '" + token + "'");
    }
    // Overflow has no finite double; underflow to a subnormal or zero is
    // a fine approximation.
    if (!std::isfinite(d)) return Fail(start, "number out of range");
    out->kind_ = Json::Kind::kDouble;
    out->double_ = d;
    return true;
  }

  const std::string& text_;
  DiagnosticEngine* diags_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

bool ParseJson(const std::string& text, Json* out, DiagnosticEngine* diags) {
  return JsonParser(text, diags).Parse(out);
}

}  // namespace pw::scenario
