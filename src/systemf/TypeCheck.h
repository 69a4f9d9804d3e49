//===- systemf/TypeCheck.h - System F typechecker ---------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard type system of System F (the paper omits the rules as
/// standard; we implement them fully).  This checker is deliberately
/// independent of the F_G front end: it is used to *dynamically validate*
/// Theorems 1 and 2 of the paper — every term produced by the F_G-to-F
/// translation is re-checked here.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_TYPECHECK_H
#define FG_SYSTEMF_TYPECHECK_H

#include "systemf/Term.h"
#include "systemf/Type.h"
#include <string>
#include <unordered_set>
#include <vector>

namespace fg {
namespace sf {

/// Lexical environment mapping term variables to types.  Used both for
/// the builtin prelude and for user bindings.
class TypeEnv {
public:
  /// Appends a binding; later bindings shadow earlier ones.
  void bind(std::string Name, const Type *Ty) {
    Bindings.emplace_back(std::move(Name), Ty);
  }

  /// Returns the type bound to \p Name, or null.
  const Type *lookup(const std::string &Name) const {
    for (size_t I = Bindings.size(); I != 0; --I)
      if (Bindings[I - 1].first == Name)
        return Bindings[I - 1].second;
    return nullptr;
  }

  size_t size() const { return Bindings.size(); }
  void truncate(size_t N) { Bindings.resize(N); }

  /// The bindings in insertion order (for merging environments).
  const std::vector<std::pair<std::string, const Type *>> &bindings() const {
    return Bindings;
  }

private:
  std::vector<std::pair<std::string, const Type *>> Bindings;
};

/// Checks System F terms.  On failure records a message retrievable via
/// firstError() and returns null.
class TypeChecker {
public:
  explicit TypeChecker(TypeContext &Ctx) : Ctx(Ctx) {}

  /// Typechecks \p T under \p Env (copied; the prelude typically).
  /// Returns the type, or null after recording at least one error.
  const Type *check(const Term *T, const TypeEnv &Env);

  std::string firstError() const { return Errors.empty() ? "" : Errors[0]; }

private:
  const Type *checkTerm(const Term *T);
  bool checkWellFormed(const Type *T, const Term *At);
  const Type *fail(const Term *At, std::string Message);

  TypeContext &Ctx;
  TypeEnv Env;
  std::unordered_set<unsigned> ParamsInScope;
  std::vector<std::string> Errors;
};

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_TYPECHECK_H
