//===- syntax/Frontend.cpp - End-to-end F_G pipeline ----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "syntax/Frontend.h"
#include "support/Stats.h"
#include "vm/VM.h"

using namespace fg;

CompileOutput Frontend::compile(const std::string &Name,
                                const std::string &Source,
                                const CompileOptions &Opts) {
  static std::atomic<uint64_t> &CompileCount =
      stats::Statistics::global().counter("frontend.compilations");
  ++CompileCount;
  stats::ScopedTimer Total("frontend.compile");

  CompileOutput Out;
  uint32_t BufferId = SM.addBuffer(Name, Source);
  Parser P(SM, Diags, FgCtx, FgArena);
  Out.Ast = P.parseProgram(BufferId);
  if (!Out.Ast) {
    Out.ErrorMessage = Diags.firstError();
    return Out;
  }
  return compileTerm(Out.Ast, Opts);
}

CompileOutput Frontend::compileTerm(const Term *Ast,
                                    const CompileOptions &Opts) {
  CompileOutput Out;
  Out.Ast = Ast;

  TheChecker.setModelCacheEnabled(Opts.EnableModelCache);
  TheChecker.setAllowConceptEscape(Opts.AllowConceptEscape);
  Checked C = TheChecker.check(Out.Ast);
  if (!C.ok()) {
    Out.ErrorMessage = Diags.firstError();
    return Out;
  }
  Out.FgType = C.Ty;
  Out.SfTerm = C.Sf;
  Out.SfExpectedType = C.SfTy;

  if (Opts.VerifyTranslation) {
    // Dynamic check of the paper's Theorems 1 and 2: the translation
    // must be well typed in plain System F, *and* its type must be the
    // System F image of the program's F_G type.  A module's translation
    // may reference imported values and dictionaries as free variables;
    // their typings extend the prelude environment.
    stats::ScopedTimer Timer("frontend.verify");
    static std::atomic<uint64_t> &ChecksCount =
        stats::Statistics::global().counter("validate.translate.checks");
    static std::atomic<uint64_t> &FailureCount =
        stats::Statistics::global().counter("validate.translate.failures");
    ++ChecksCount;
    sf::TypeChecker SfChecker(SfCtx);
    sf::TypeEnv VerifyEnv = ThePrelude.Types;
    if (Opts.ImportTypes)
      for (const auto &[Name, Ty] : Opts.ImportTypes->bindings())
        VerifyEnv.bind(Name, Ty);
    Out.SfType = SfChecker.check(Out.SfTerm, VerifyEnv);
    if (!Out.SfType) {
      ++FailureCount;
      Out.ErrorMessage =
          "internal error: translation is not well typed in System F: " +
          SfChecker.firstError();
      Diags.error(SourceLocation(), Out.ErrorMessage);
      return Out;
    }
    // Theorem 2, executable: hash-consing makes the comparison one
    // pointer equality (interned types are alpha-equivalent iff equal).
    if (Out.SfExpectedType && Out.SfType != Out.SfExpectedType) {
      ++FailureCount;
      Out.ErrorMessage =
          "internal error: translation violates Theorem 2: the translated "
          "term has type `" +
          sf::typeToString(Out.SfType) +
          "` but the program's F_G type translates to `" +
          sf::typeToString(Out.SfExpectedType) + "`";
      Diags.error(SourceLocation(), Out.ErrorMessage);
      return Out;
    }
  }
  Out.Success = true;
  return Out;
}

sf::EvalResult Frontend::run(const CompileOutput &Out,
                             const sf::EvalOptions &Opts) {
  if (!Out.Success)
    return sf::EvalResult::failure("cannot run a failed compilation");
  sf::Evaluator E(Opts);
  return E.eval(Out.SfTerm, ThePrelude.Values);
}

interp::EvalResult Frontend::runDirect(const CompileOutput &Out,
                                       const interp::InterpOptions &Opts) {
  if (!Out.Success)
    return interp::EvalResult::failure("cannot run a failed compilation");
  interp::Interpreter I(FgCtx, Opts);
  return I.run(Out.Ast);
}

const std::unordered_set<std::string> &Frontend::preludeNames() {
  if (PreludeNames.empty())
    for (const sf::BuiltinEntry &E : ThePrelude.Entries)
      PreludeNames.insert(E.Name);
  return PreludeNames;
}

const sf::Term *Frontend::optimize(CompileOutput &Out,
                                   sf::OptimizeStats *Stats,
                                   const sf::OptimizeOptions &Opts) {
  if (!Out.Success)
    return nullptr;
  if (!Out.SfOptimized || Stats || Out.SfOptimizedLevel != Opts.Specialize) {
    sf::OptimizeOptions Effective = Opts;
    if (!Effective.HoistableTyApps)
      Effective.HoistableTyApps = &preludeNames();
    Out.SfOptimized =
        sf::specialize(SfArena, SfCtx, Out.SfTerm, Effective, Stats);
    Out.SfOptimizedLevel = Opts.Specialize;
  }
  return Out.SfOptimized;
}

ExecResult fg::execute(Frontend &FE, CompileOutput &Out,
                       const ExecRequest &Req) {
  if (!Out.Success)
    return sf::EvalResult::failure("cannot run a failed compilation");
  std::string WhyNot;
  if (Req.Engine == Backend::Aot &&
      !aot::toolchainAvailable(Req.Toolchain, &WhyNot)) {
    ExecResult R = sf::EvalResult::failure(WhyNot);
    R.Unavailable = true;
    return R;
  }
  const sf::Term *T = Out.SfTerm;
  if (Req.Level) {
    sf::OptimizeOptions Opts;
    Opts.Specialize = *Req.Level;
    T = FE.optimize(Out, nullptr, Opts);
  }
  const sf::Prelude &P = FE.getPrelude();
  switch (Req.Engine) {
  case Backend::Tree:
    return sf::Evaluator(Req.Eval).eval(T, P.Values);
  case Backend::Vm:
    return vm::runTerm(T, P, Req.Eval);
  case Backend::Aot:
    return aot::runAot(T, P, Req.Eval, Req.Toolchain, Req.AotInfo);
  }
  return sf::EvalResult::failure("internal error: unknown backend");
}
