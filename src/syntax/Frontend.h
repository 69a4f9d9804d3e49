//===- syntax/Frontend.h - End-to-end F_G pipeline --------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the library: parse an F_G program, check
/// and translate it to System F, optionally re-check the output with the
/// independent System F typechecker (a dynamic verification of the
/// paper's Theorems 1 and 2), and evaluate it.
///
/// Typical use:
/// \code
///   fg::OpenRequest Req;        // or Req.Path = "prog.fg"
///   Req.Source = Source;
///   fg::OpenedProgram P = fg::open(std::move(Req));
///   fg::Frontend FE;
///   std::string Diagnostics;
///   fg::CompileOutput Out =
///       P.compile(FE, fg::CompileOptions(), Diagnostics);
///   if (Out.Success) {
///     fg::ExecResult R = fg::execute(FE, Out, fg::ExecRequest());
///     ... sf::valueToString(R.Val) ...
///   }
/// \endcode
///
/// fg::open() (modules/Loader.h) is the one way to open a program:
/// source text, or a file with the modules it imports.  fgc, fgcd and
/// the embedding example open programs through it.  fg::execute() is
/// the one way to run a program on a chosen backend at a chosen
/// optimization level; fgc, fgcd, the fuzzer and the tests all go
/// through it.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYNTAX_FRONTEND_H
#define FG_SYNTAX_FRONTEND_H

#include "aot/Aot.h"
#include "core/Builtins.h"
#include "core/Check.h"
#include "core/Interp.h"
#include "support/Backends.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "syntax/Parser.h"
#include "systemf/Builtins.h"
#include "systemf/Eval.h"
#include "systemf/Optimize.h"
#include "systemf/TypeCheck.h"
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

namespace fg {

/// Options controlling one compilation.
struct CompileOptions {
  /// Re-check the translated term with the System F typechecker and
  /// fail if it does not typecheck (Theorem 1/2 as a dynamic check).
  bool VerifyTranslation = true;

  /// Memoize model resolution and congruence queries in the checker.
  /// Semantics-neutral either way (enforced by ModelCacheTest); off is
  /// for A/B comparison and debugging.
  bool EnableModelCache = true;

  /// Extra System F typings for the free variables a module's
  /// translation references (imported values and dictionaries).  The
  /// verifier extends the prelude environment with these; used by the
  /// module loader when checking a module against its imports'
  /// interfaces.  Not owned.
  const sf::TypeEnv *ImportTypes = nullptr;

  /// Lift the rule-CPT concept-escape restriction; set for module
  /// export probes, whose type deliberately mentions the module's
  /// exported concepts (see Checker::setAllowConceptEscape).
  bool AllowConceptEscape = false;
};

/// Everything produced for one program.
struct CompileOutput {
  bool Success = false;
  const Term *Ast = nullptr;        ///< Parsed F_G program.
  const Type *FgType = nullptr;     ///< F_G type of the program.
  const sf::Term *SfTerm = nullptr; ///< Dictionary-passing translation.
  const sf::Type *SfType = nullptr; ///< Type assigned by the SF checker.
  /// The System F image of FgType per Figures 8/12 — the type Theorem 2
  /// promises for SfTerm.  When verification runs, SfType is checked to
  /// be pointer-identical to this (hash-consing makes pointer equality
  /// alpha-equivalence).  Null when the checker could not produce it
  /// (module export probes).
  const sf::Type *SfExpectedType = nullptr;
  /// Specialized translation (dictionaries eliminated); populated by
  /// Frontend::optimize() at SfOptimizedLevel.
  const sf::Term *SfOptimized = nullptr;
  sf::SpecializeLevel SfOptimizedLevel = sf::SpecializeLevel::Off;
  std::string ErrorMessage;         ///< First error, empty on success.
};

/// Owns every context needed to compile and run F_G programs.  One
/// Frontend can compile many programs; they share builtins and interned
/// types.
class Frontend {
public:
  Frontend()
      : Diags(&SM), ThePrelude(sf::makePrelude(SfCtx)),
        TheChecker(FgCtx, SfCtx, SfArena, Diags) {
    bindPrelude(TheChecker, FgCtx, ThePrelude);
  }

  /// Parses, checks and translates \p Source (registered as buffer
  /// \p Name).  Diagnostics accumulate in getDiags().
  CompileOutput compile(const std::string &Name, const std::string &Source,
                        const CompileOptions &Opts = CompileOptions());

  /// Checks and translates an already-parsed term (the module loader
  /// parses separately so it can seed imported names).  \p Ast must
  /// have been built from this Frontend's contexts/arenas.
  CompileOutput compileTerm(const Term *Ast,
                            const CompileOptions &Opts = CompileOptions());

  /// Evaluates a successful compilation under the builtin prelude: the
  /// tree engine on the translation, timed on its own by the perfbench
  /// harness.  Everything else runs programs through fg::execute().
  sf::EvalResult run(const CompileOutput &Out,
                     const sf::EvalOptions &Opts = sf::EvalOptions());

  /// Evaluates a compiled program with the *direct* F_G interpreter
  /// (core/Interp.h), bypassing the System F translation entirely.
  /// Tests compare this against run() to validate translation adequacy.
  interp::EvalResult runDirect(const CompileOutput &Out,
                               const interp::InterpOptions &Opts =
                                   interp::InterpOptions());

  /// Specializes the translation (systemf/Optimize.h): instantiates
  /// type applications, inlines dictionaries, folds member-access
  /// projections.  Stores and returns Out.SfOptimized.  The result is
  /// memoized per specialization level: a call at the level that built
  /// Out.SfOptimized reuses it, unless \p Stats asks for a fresh run's
  /// counters.
  const sf::Term *optimize(CompileOutput &Out,
                           sf::OptimizeStats *Stats = nullptr,
                           const sf::OptimizeOptions &Opts =
                               sf::OptimizeOptions());

  SourceManager &getSourceManager() { return SM; }
  DiagnosticEngine &getDiags() { return Diags; }
  TypeContext &getFgContext() { return FgCtx; }
  sf::TypeContext &getSfContext() { return SfCtx; }
  sf::TermArena &getSfArena() { return SfArena; }
  TermArena &getFgArena() { return FgArena; }
  const sf::Prelude &getPrelude() const { return ThePrelude; }
  Checker &getChecker() { return TheChecker; }

  /// The builtin names, as the default OptimizeOptions::HoistableTyApps
  /// set: globally bound, pure, safe to instantiate at program start.
  const std::unordered_set<std::string> &preludeNames();

private:
  SourceManager SM;
  DiagnosticEngine Diags;
  TypeContext FgCtx;
  sf::TypeContext SfCtx;
  TermArena FgArena;
  sf::TermArena SfArena;
  sf::Prelude ThePrelude;
  Checker TheChecker;
  std::unordered_set<std::string> PreludeNames; ///< Lazy; see preludeNames().
};

/// One request to run a compiled program: which engine runs which term.
struct ExecRequest {
  Backend Engine = Backend::Tree;
  /// The optimization level.  Unset (-O0) runs the translation as is;
  /// otherwise the engine runs the term Frontend::optimize() produces
  /// at this specialization level (-O1 is Off, -O2 is Full).
  std::optional<sf::SpecializeLevel> Level;
  sf::EvalOptions Eval;
  aot::ToolchainOptions Toolchain; ///< Used by Backend::Aot only.
  aot::RunInfo *AotInfo = nullptr; ///< Filled by Backend::Aot when set.
};

/// What execute() produced: the engine's result, or — with Unavailable
/// set — the one-line reason (in Error) the requested backend cannot
/// run here (the AOT backend without a host C++ compiler).
struct ExecResult : sf::EvalResult {
  ExecResult(sf::EvalResult R) : sf::EvalResult(std::move(R)) {}
  bool Unavailable = false;
};

/// Runs \p Out on the requested engine, at the requested level, with no
/// per-backend defaults: the engine runs exactly the term the level
/// selects.  Does no work the request does not need — no optimization
/// at -O0, no toolchain probe unless the engine is Backend::Aot.  An
/// optimized term is memoized in \p Out (see Frontend::optimize).
ExecResult execute(Frontend &FE, CompileOutput &Out, const ExecRequest &Req);

} // namespace fg

#endif // FG_SYNTAX_FRONTEND_H
