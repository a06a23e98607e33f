//===- JSON.cpp - Minimal JSON parser for property files ------------------===//
//
// Part of the sparse-dep-simplify project (PLDI 2019 reproduction).
//
//===----------------------------------------------------------------------===//

#include "sds/support/JSON.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace sds {
namespace json {

Value::Value(Array A)
    : K(Kind::Array), ArrVal(std::make_shared<Array>(std::move(A))) {}
Value::Value(Object O)
    : K(Kind::Object), ObjVal(std::make_shared<Object>(std::move(O))) {}
Value::Value(const Value &O) = default;
Value &Value::operator=(Value O) noexcept {
  K = O.K;
  BoolVal = O.BoolVal;
  IntVal = O.IntVal;
  DoubleVal = O.DoubleVal;
  StrVal = std::move(O.StrVal);
  ArrVal = std::move(O.ArrVal);
  ObjVal = std::move(O.ObjVal);
  return *this;
}

bool Value::asBool() const {
  assert(isBool());
  return BoolVal;
}
int64_t Value::asInt() const {
  assert(isNumber());
  return K == Kind::Int ? IntVal : static_cast<int64_t>(DoubleVal);
}
double Value::asDouble() const {
  assert(isNumber());
  return K == Kind::Double ? DoubleVal : static_cast<double>(IntVal);
}
const std::string &Value::asString() const {
  assert(isString());
  return StrVal;
}
const Array &Value::asArray() const {
  assert(isArray());
  return *ArrVal;
}
const Object &Value::asObject() const {
  assert(isObject());
  return *ObjVal;
}

const Value *Value::get(std::string_view Key) const {
  if (!isObject())
    return nullptr;
  auto It = ObjVal->find(Key);
  return It == ObjVal->end() ? nullptr : &It->second;
}

const Value &Object::at(std::string_view Key) const {
  auto It = find(Key);
  if (It == end())
    throw std::out_of_range("json::Object::at: no member '" +
                            std::string(Key) + "'");
  return It->second;
}

static void escapeTo(const std::string &S, std::string &Out) {
  Out.push_back('"');
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      Out.push_back(C);
    }
  }
  Out.push_back('"');
}

std::string Value::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

void Value::appendTo(std::string &Out) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += BoolVal ? "true" : "false";
    return;
  case Kind::Int:
    Out += std::to_string(IntVal);
    return;
  case Kind::Double: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", DoubleVal);
    Out += Buf;
    return;
  }
  case Kind::String:
    escapeTo(StrVal, Out);
    return;
  case Kind::Array: {
    Out += "[";
    bool First = true;
    for (const Value &V : *ArrVal) {
      if (!First)
        Out += ",";
      First = false;
      V.appendTo(Out);
    }
    Out += "]";
    return;
  }
  case Kind::Object: {
    Out += "{";
    bool First = true;
    for (const auto &[Key, V] : *ObjVal) {
      if (!First)
        Out += ",";
      First = false;
      escapeTo(Key, Out);
      Out += ":";
      V.appendTo(Out);
    }
    Out += "}";
    return;
  }
  }
}

namespace {

/// Recursive-descent JSON parser. Kept private to this file.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ParseResult run() {
    ParseResult R;
    Value V;
    if (!parseValue(V)) {
      fillError(R);
      return R;
    }
    skipWhitespace();
    if (Pos != Text.size()) {
      Err = "trailing characters after JSON document";
      fillError(R);
      return R;
    }
    R.Ok = true;
    R.Val = std::move(V);
    return R;
  }

private:
  void fillError(ParseResult &R) {
    R.Ok = false;
    R.Error = Err.empty() ? "parse error" : Err;
    R.Line = 1;
    R.Col = 1;
    for (size_t I = 0; I < Pos && I < Text.size(); ++I) {
      if (Text[I] == '\n') {
        ++R.Line;
        R.Col = 1;
      } else {
        ++R.Col;
      }
    }
  }

  void skipWhitespace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool fail(const char *Msg) {
    if (Err.empty())
      Err = Msg;
    return false;
  }

  bool consume(char C, const char *Msg) {
    skipWhitespace();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(Msg);
    ++Pos;
    return true;
  }

  bool parseValue(Value &Out) {
    skipWhitespace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Out);
    if (C == '[')
      return parseArray(Out);
    if (C == '"')
      return parseString(Out);
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber(Out);
    if (Text.substr(Pos, 4) == "true") {
      Pos += 4;
      Out = Value(true);
      return true;
    }
    if (Text.substr(Pos, 5) == "false") {
      Pos += 5;
      Out = Value(false);
      return true;
    }
    if (Text.substr(Pos, 4) == "null") {
      Pos += 4;
      Out = Value();
      return true;
    }
    return fail("invalid JSON value");
  }

  bool parseStringRaw(std::string &S) {
    if (!consume('"', "expected string"))
      return false;
    S.clear();
    while (Pos < Text.size() && Text[Pos] != '"') {
      // Copy the run up to the next quote or escape in one piece.
      size_t End = Pos;
      while (End < Text.size() && Text[End] != '"' && Text[End] != '\\')
        ++End;
      S.append(Text.data() + Pos, End - Pos);
      Pos = End;
      if (Pos == Text.size() || Text[Pos] == '"')
        break;
      ++Pos; // the backslash
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        S.push_back('"');
        break;
      case '\\':
        S.push_back('\\');
        break;
      case '/':
        S.push_back('/');
        break;
      case 'n':
        S.push_back('\n');
        break;
      case 't':
        S.push_back('\t');
        break;
      case 'r':
        S.push_back('\r');
        break;
      case 'b':
        S.push_back('\b');
        break;
      case 'f':
        S.push_back('\f');
        break;
      case 'u': {
        // Basic \uXXXX support: decode to UTF-8 (no surrogate pairs).
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        if (Code < 0x80) {
          S.push_back(static_cast<char>(Code));
        } else if (Code < 0x800) {
          S.push_back(static_cast<char>(0xC0 | (Code >> 6)));
          S.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        } else {
          S.push_back(static_cast<char>(0xE0 | (Code >> 12)));
          S.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
          S.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
        }
        break;
      }
      default:
        return fail("invalid escape character");
      }
    }
    if (Pos >= Text.size())
      return fail("unterminated string");
    ++Pos; // closing quote
    return true;
  }

  bool parseString(Value &Out) {
    std::string S;
    if (!parseStringRaw(S))
      return false;
    Out = Value(std::move(S));
    return true;
  }

  bool parseNumber(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    std::string_view Tok = Text.substr(Start, Pos - Start);
    if (Tok.empty() || Tok == "-")
      return fail("invalid number");
    if (!IsDouble) {
      int64_t I = 0;
      auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), I);
      if (Ec == std::errc() && Ptr == Tok.data() + Tok.size()) {
        Out = Value(I);
        return true;
      }
      // Fall through to double on int64 overflow.
    }
    double D = 0;
    auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), D);
    if (Ec != std::errc() || Ptr != Tok.data() + Tok.size())
      return fail("invalid number");
    Out = Value(D);
    return true;
  }

  bool parseArray(Value &Out) {
    if (!consume('[', "expected '['"))
      return false;
    Array A;
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      Out = Value(std::move(A));
      return true;
    }
    while (true) {
      Value V;
      if (!parseValue(V))
        return false;
      A.push_back(std::move(V));
      skipWhitespace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (!consume(']', "expected ',' or ']'"))
      return false;
    Out = Value(std::move(A));
    return true;
  }

  bool parseObject(Value &Out) {
    if (!consume('{', "expected '{'"))
      return false;
    Object O;
    skipWhitespace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      Out = Value(std::move(O));
      return true;
    }
    while (true) {
      skipWhitespace();
      std::string Key;
      if (!parseStringRaw(Key))
        return false;
      if (!consume(':', "expected ':'"))
        return false;
      Value V;
      if (!parseValue(V))
        return false;
      O.emplace(std::move(Key), std::move(V));
      skipWhitespace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      break;
    }
    if (!consume('}', "expected ',' or '}'"))
      return false;
    Out = Value(std::move(O));
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
  std::string Err;
};

} // namespace

ParseResult parse(std::string_view Text) { return Parser(Text).run(); }

} // namespace json
} // namespace sds
