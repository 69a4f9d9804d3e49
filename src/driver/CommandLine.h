//===- driver/CommandLine.h - Reading fgc and fgcd options ------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How fgc and fgcd read an option's value.  A long option takes its
/// value as `--x=V` and, where the option allows it, as `--x V`; a
/// one-letter option as `-x V` or `-xV`.  A number is decimal digits
/// only and must fit the setting it goes to: `-j 4294967297` is a usage
/// error, not `-j 1`.
///
//===----------------------------------------------------------------------===//

#ifndef FG_DRIVER_COMMANDLINE_H
#define FG_DRIVER_COMMANDLINE_H

#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace fg {
namespace driver {

/// The arguments of one command line, read front to back.
class ArgReader {
public:
  ArgReader(int Argc, char **Argv) : Argc(Argc), Argv(Argv) {}

  /// Moves to the next argument; false when none is left.
  bool next() {
    if (++I >= Argc)
      return false;
    Arg = Argv[I];
    return true;
  }
  const std::string &arg() const { return Arg; }

  /// Whether the argument is option \p Flag with a value, which goes to
  /// \p Value: `--x=V` for a long \p Flag, `-xV` for a one-letter one,
  /// and, when \p Spaced, \p Flag alone with the value in the next
  /// argument (empty when there is none).
  bool value(std::string_view Flag, std::string &Value, bool Spaced = true) {
    std::string_view A = Arg;
    if (A == Flag) {
      if (!Spaced)
        return false;
      Value = I + 1 < Argc ? Argv[++I] : "";
      return true;
    }
    if (A.substr(0, Flag.size()) != Flag)
      return false;
    A.remove_prefix(Flag.size());
    if (Flag.size() > 2) {
      if (A.empty() || A.front() != '=')
        return false;
      A.remove_prefix(1);
    }
    Value = A;
    return true;
  }

private:
  int Argc;
  char **Argv;
  int I = 0;
  std::string Arg;
};

/// Parses \p Text, decimal digits only, into \p Out if the number is at
/// least \p Min and fits a T; otherwise returns false and leaves \p Out
/// alone.
template <typename T>
bool parseNumber(std::string_view Text, T &Out,
                 std::type_identity_t<T> Min = 0) {
  static_assert(std::is_unsigned_v<T>);
  if (Text.empty())
    return false;
  T N = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    T Digit = T(C - '0');
    if (N > (std::numeric_limits<T>::max() - Digit) / 10)
      return false;
    N = N * 10 + Digit;
  }
  if (N < Min)
    return false;
  Out = N;
  return true;
}

} // namespace driver
} // namespace fg

#endif // FG_DRIVER_COMMANDLINE_H
