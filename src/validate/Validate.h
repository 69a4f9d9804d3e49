//===- validate/Validate.h - Translation validation -------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translation validation for the F_G compiler.  The paper proves its
/// Theorems 1 and 2 on paper; the compiler makes them executable in two
/// places:
///
///  * After Translate, the System F typechecker re-checks the emitted
///    term and its type is compared (one pointer comparison, thanks to
///    hash-consing) against the System F image of the program's F_G
///    type.  That check lives in Frontend::compileTerm
///    (syntax/Frontend.h), which runs it when VerifyTranslation is on.
///
///  * During Optimize, this layer's Validator re-typechecks each
///    individual pass's output through passHook(), so a type-breaking
///    rewrite is caught immediately and attributed to the pass by name,
///    with the smallest ill-typed subterm pretty-printed for debugging.
///
/// The driver exposes both under `--validate[=off|translate|passes]`,
/// and the fuzzer (validate/Fuzz.h) drives them with generated
/// programs.
///
//===----------------------------------------------------------------------===//

#ifndef FG_VALIDATE_VALIDATE_H
#define FG_VALIDATE_VALIDATE_H

#include "systemf/Optimize.h"
#include "systemf/Term.h"
#include "systemf/TypeCheck.h"
#include <functional>
#include <string>
#include <string_view>

namespace fg {
namespace validate {

/// How much of the pipeline to re-verify.
enum class Mode {
  Off,       ///< No dynamic verification.
  Translate, ///< Re-typecheck the translation (Theorems 1 and 2).
  Passes,    ///< Translate, plus re-typecheck every optimizer pass.
};

/// Parses a `--validate=` argument value.  Returns false on an
/// unrecognized spelling.
bool parseMode(std::string_view Text, Mode &Out);

/// The canonical spelling of \p M (the inverse of parseMode).
const char *modeName(Mode M);

/// Re-typechecks System F terms against a fixed environment and
/// latches the first failure with a pass-attributed, pretty-printed
/// explanation.  One Validator serves one compilation; reset() allows
/// reuse.
class Validator {
public:
  /// \p BaseEnv is the typing of the free variables the checked terms
  /// may reference — the prelude, plus imports for modules.
  Validator(sf::TypeContext &Ctx, sf::TypeEnv BaseEnv)
      : Ctx(Ctx), BaseEnv(std::move(BaseEnv)) {}

  /// Re-typechecks one optimizer pass's output.  On failure, latches
  /// an error naming \p PassName and pretty-printing the smallest
  /// ill-typed subterm, and returns false.
  bool checkPass(const char *PassName, const sf::Term *After,
                 const sf::Type *Expected);

  /// Builds an OptimizeOptions::PassHook that re-typechecks every
  /// changed pass output against \p Expected.  The hook returns false
  /// on the first failure, which makes the optimizer stop and return
  /// the last validated term (OptimizeStats::AbortedOnPass records the
  /// offender too).
  std::function<bool(const char *, const sf::Term *, const sf::Term *)>
  passHook(const sf::Type *Expected);

  bool failed() const { return !Error.empty(); }
  const std::string &error() const { return Error; }
  /// Name of the pass whose output failed, empty when no pass failed.
  const std::string &failedPass() const { return FailedPass; }

  void reset() {
    Error.clear();
    FailedPass.clear();
  }

  /// Finds the smallest subterm of \p T that is ill-typed while all of
  /// its children (under their binding environments) typecheck — the
  /// node where typing actually breaks.  Returns null when \p T is
  /// well typed.
  const sf::Term *findSmallestIllTyped(const sf::Term *T);

private:
  sf::TypeContext &Ctx;
  sf::TypeEnv BaseEnv;
  /// Scratch terms built while re-wrapping subterms of type
  /// abstractions during the ill-typed-subterm descent.
  sf::TermArena Scratch;
  std::string Error;
  std::string FailedPass;
};

} // namespace validate
} // namespace fg

#endif // FG_VALIDATE_VALIDATE_H
