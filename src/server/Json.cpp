//===- server/Json.cpp - Minimal JSON values for the wire protocol --------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace fg;
using namespace fg::server;

const Json *Json::find(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::string Json::stringOr(const std::string &Key,
                           const std::string &Default) const {
  const Json *V = find(Key);
  return V && V->isString() ? V->asString() : Default;
}

int64_t Json::asInt() const {
  if (K != Kind::Double)
    return I;
  if (std::isnan(D))
    return 0;
  if (D >= 0x1p63)
    return INT64_MAX;
  if (D < -0x1p63)
    return INT64_MIN;
  return static_cast<int64_t>(D);
}

bool Json::boolOr(const std::string &Key, bool Default) const {
  const Json *V = find(Key);
  return V && V->isBool() ? V->asBool() : Default;
}

std::string fg::server::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
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
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out;
}

std::string Json::write() const {
  switch (K) {
  case Kind::Null:
    return "null";
  case Kind::Bool:
    return B ? "true" : "false";
  case Kind::Int:
    return std::to_string(I);
  case Kind::Double: {
    if (std::isnan(D) || std::isinf(D))
      return "null"; // JSON has no NaN/Inf; protocol values are finite.
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.17g", D);
    return Buf;
  }
  case Kind::String:
    return "\"" + jsonEscape(S) + "\"";
  case Kind::Array: {
    std::string Out = "[";
    for (size_t N = 0; N < Elems.size(); ++N)
      Out += (N ? "," : "") + Elems[N].write();
    return Out + "]";
  }
  case Kind::Object: {
    std::string Out = "{";
    for (size_t N = 0; N < Members.size(); ++N) {
      Out += (N ? ",\"" : "\"") + jsonEscape(Members[N].first) + "\":";
      Out += Members[N].second.write();
    }
    return Out + "}";
  }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a raw character range.
struct JsonParser {
  const char *Pos;
  const char *End;
  std::string Error;
  int Depth = 0;

  /// parseValue recurses once per container nesting level, and request
  /// lines come from untrusted clients: without a bound, a line of a
  /// few thousand `[`s overflows the stack and kills the daemon.  The
  /// protocol nests a handful of levels deep; 128 is generous.
  static constexpr int MaxDepth = 128;

  void skipWs() {
    while (Pos != End && (*Pos == ' ' || *Pos == '\t' || *Pos == '\n' ||
                          *Pos == '\r'))
      ++Pos;
  }

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
    return false;
  }

  bool literal(const char *Word) {
    for (const char *W = Word; *W; ++W, ++Pos)
      if (Pos == End || *Pos != *W)
        return fail(std::string("expected `") + Word + "`");
    return true;
  }

  bool parseString(std::string &Out) {
    if (Pos == End || *Pos != '"')
      return fail("expected string");
    ++Pos;
    while (Pos != End && *Pos != '"') {
      char C = *Pos++;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos == End)
        return fail("unterminated escape");
      char E = *Pos++;
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (End - Pos < 4)
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int K = 0; K < 4; ++K) {
          char H = *Pos++;
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // Encode the code point as UTF-8.  Surrogate pairs are not
        // recombined (the protocol never emits them); each half encodes
        // independently, which round-trips through write() unchanged.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape");
      }
    }
    if (Pos == End)
      return fail("unterminated string");
    ++Pos; // closing quote
    return true;
  }

  bool parseValue(Json &Out) {
    skipWs();
    if (Pos == End)
      return fail("unexpected end of input");
    switch (*Pos) {
    case 'n':
      if (!literal("null"))
        return false;
      Out = Json::null();
      return true;
    case 't':
      if (!literal("true"))
        return false;
      Out = Json::boolean(true);
      return true;
    case 'f':
      if (!literal("false"))
        return false;
      Out = Json::boolean(false);
      return true;
    case '"': {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json::string(std::move(S));
      return true;
    }
    case '[': {
      if (Depth >= MaxDepth)
        return fail("nesting too deep");
      ++Depth;
      ++Pos;
      Out = Json::array();
      skipWs();
      if (Pos != End && *Pos == ']') {
        ++Pos;
        --Depth;
        return true;
      }
      while (true) {
        Json Elem;
        if (!parseValue(Elem))
          return false;
        Out.push(std::move(Elem));
        skipWs();
        if (Pos == End)
          return fail("unterminated array");
        if (*Pos == ',') {
          ++Pos;
          continue;
        }
        if (*Pos == ']') {
          ++Pos;
          --Depth;
          return true;
        }
        return fail("expected `,` or `]`");
      }
    }
    case '{': {
      if (Depth >= MaxDepth)
        return fail("nesting too deep");
      ++Depth;
      ++Pos;
      Out = Json::object();
      skipWs();
      if (Pos != End && *Pos == '}') {
        ++Pos;
        --Depth;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (Pos == End || *Pos != ':')
          return fail("expected `:`");
        ++Pos;
        Json Value;
        if (!parseValue(Value))
          return false;
        Out.set(std::move(Key), std::move(Value));
        skipWs();
        if (Pos == End)
          return fail("unterminated object");
        if (*Pos == ',') {
          ++Pos;
          continue;
        }
        if (*Pos == '}') {
          ++Pos;
          --Depth;
          return true;
        }
        return fail("expected `,` or `}`");
      }
    }
    default: {
      // Number: optional minus, digits, optional fraction/exponent.
      const char *Start = Pos;
      if (*Pos == '-')
        ++Pos;
      bool Digits = false;
      while (Pos != End && std::isdigit(static_cast<unsigned char>(*Pos))) {
        ++Pos;
        Digits = true;
      }
      if (!Digits)
        return fail("unexpected character");
      bool Integral = true;
      if (Pos != End && *Pos == '.') {
        Integral = false;
        ++Pos;
        while (Pos != End && std::isdigit(static_cast<unsigned char>(*Pos)))
          ++Pos;
      }
      if (Pos != End && (*Pos == 'e' || *Pos == 'E')) {
        Integral = false;
        ++Pos;
        if (Pos != End && (*Pos == '+' || *Pos == '-'))
          ++Pos;
        while (Pos != End && std::isdigit(static_cast<unsigned char>(*Pos)))
          ++Pos;
      }
      std::string Lit(Start, Pos);
      if (Integral)
        Out = Json::number(
            static_cast<int64_t>(std::strtoll(Lit.c_str(), nullptr, 10)));
      else
        Out = Json::number(std::strtod(Lit.c_str(), nullptr));
      return true;
    }
    }
  }
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string &Error) {
  JsonParser P{Text.data(), Text.data() + Text.size(), {}};
  if (!P.parseValue(Out)) {
    Error = P.Error;
    return false;
  }
  P.skipWs();
  if (P.Pos != P.End) {
    Error = "trailing characters after JSON value";
    return false;
  }
  return true;
}
