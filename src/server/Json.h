//===- server/Json.h - Minimal JSON values for the wire protocol -*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small self-contained JSON value type, parser, and writer — just
/// enough for the line-delimited `fgcd` wire protocol
/// (docs/PROTOCOL.md).  No external dependency: the container image is
/// fixed, so the server carries its own (strict, UTF-8-pass-through)
/// implementation.
///
/// Deliberate simplifications, all fine for the protocol:
///
///  * numbers are stored as int64 when the literal is integral and as
///    double otherwise (the protocol only uses integral ids/counters);
///  * object member order is preserved (vector of pairs), so responses
///    serialize deterministically and golden tests diff cleanly;
///  * the parser rejects trailing garbage — exactly one value per
///    protocol line.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SERVER_JSON_H
#define FG_SERVER_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fg {
namespace server {

/// One JSON value.  Copyable; object/array payloads are by-value.
class Json {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() : K(Kind::Null) {}
  static Json null() { return Json(); }
  static Json boolean(bool B) {
    Json J;
    J.K = Kind::Bool;
    J.B = B;
    return J;
  }
  static Json number(int64_t N) {
    Json J;
    J.K = Kind::Int;
    J.I = N;
    return J;
  }
  static Json number(double D) {
    Json J;
    J.K = Kind::Double;
    J.D = D;
    return J;
  }
  static Json string(std::string S) {
    Json J;
    J.K = Kind::String;
    J.S = std::move(S);
    return J;
  }
  static Json array() {
    Json J;
    J.K = Kind::Array;
    return J;
  }
  static Json object() {
    Json J;
    J.K = Kind::Object;
    return J;
  }

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const { return B; }
  /// The number as an int64.  A double is truncated toward zero, and
  /// one outside int64's range saturates (NaN reads as 0), so no
  /// conversion is undefined.
  int64_t asInt() const;
  double asDouble() const { return K == Kind::Double ? D : (double)I; }
  const std::string &asString() const { return S; }
  const std::vector<Json> &elements() const { return Elems; }
  const std::vector<std::pair<std::string, Json>> &members() const {
    return Members;
  }

  /// Object field lookup; null when absent (or not an object).
  const Json *find(const std::string &Key) const;
  /// Convenience accessors with defaults for optional members.
  std::string stringOr(const std::string &Key,
                       const std::string &Default) const;
  bool boolOr(const std::string &Key, bool Default) const;

  /// Appends to an array / sets an object member (last set wins on
  /// serialization; callers never set a key twice).
  void push(Json V) { Elems.push_back(std::move(V)); }
  void set(std::string Key, Json V) {
    Members.emplace_back(std::move(Key), std::move(V));
  }

  /// Serializes on one line (no newlines — protocol framing relies on
  /// it; string escapes cover \n, \t, quotes, backslash, control
  /// chars).
  std::string write() const;

  /// Parses exactly one JSON value from \p Text (surrounding
  /// whitespace allowed, trailing garbage rejected).  Returns false
  /// with \p Error set on malformed input.
  static bool parse(const std::string &Text, Json &Out, std::string &Error);

private:
  Kind K;
  bool B = false;
  int64_t I = 0;
  double D = 0;
  std::string S;
  std::vector<Json> Elems;
  std::vector<std::pair<std::string, Json>> Members;
};

/// Escapes \p S as a JSON string literal body (no surrounding quotes).
std::string jsonEscape(const std::string &S);

} // namespace server
} // namespace fg

#endif // FG_SERVER_JSON_H
