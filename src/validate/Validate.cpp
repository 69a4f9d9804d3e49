//===- validate/Validate.cpp - Translation validation ---------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "validate/Validate.h"
#include "support/Stats.h"
#include "systemf/TermOps.h"
#include <atomic>
#include <cstring>

using namespace fg;
using namespace fg::validate;

bool validate::parseMode(std::string_view Text, Mode &Out) {
  if (Text == "off")
    Out = Mode::Off;
  else if (Text == "translate")
    Out = Mode::Translate;
  else if (Text == "passes")
    Out = Mode::Passes;
  else
    return false;
  return true;
}

const char *validate::modeName(Mode M) {
  switch (M) {
  case Mode::Off:
    return "off";
  case Mode::Translate:
    return "translate";
  case Mode::Passes:
    return "passes";
  }
  return "off";
}

namespace {

/// Walks an ill-typed term towards the smallest subterm where typing
/// actually breaks.  Carries the term environment (extended at
/// binders) and the type parameters opened by enclosing type
/// abstractions; subterms under open parameters are checked re-wrapped
/// in a synthetic TyAbs so the standalone checker has them in scope.
struct IllTypedSearch {
  sf::TypeContext &Ctx;
  sf::TermArena &Scratch;
  sf::TypeEnv Env;
  std::vector<sf::TypeParamDecl> Open;

  const sf::Type *typeOf(const sf::Term *T) {
    sf::TypeChecker Checker(Ctx);
    const sf::Term *Wrapped =
        Open.empty() ? T : Scratch.makeTyAbs(Open, T);
    const sf::Type *Ty = Checker.check(Wrapped, Env);
    if (!Ty || Open.empty())
      return Ty;
    std::vector<const sf::Type *> Params;
    for (const sf::TypeParamDecl &P : Open)
      Params.push_back(Ctx.getParamType(P.Id, P.Name));
    return Ctx.open(cast<sf::ForAllType>(Ty), Params).Body;
  }

  /// Precondition: \p T does not typecheck under Env/Open.  Returns
  /// the smallest ill-typed descendant (possibly \p T itself).
  const sf::Term *descend(const sf::Term *T) {
    if (const sf::Term *Inner = findInChildren(T))
      return Inner;
    return T;
  }

  /// Checks \p Child; when it is itself ill-typed, descends into it.
  const sf::Term *visit(const sf::Term *Child) {
    if (typeOf(Child))
      return nullptr;
    return descend(Child);
  }

  const sf::Term *findInChildren(const sf::Term *T) {
    switch (T->getKind()) {
    case sf::TermKind::Abs: {
      const auto *A = cast<sf::AbsTerm>(T);
      size_t Saved = Env.size();
      for (const sf::ParamBinding &P : A->getParams())
        Env.bind(P.Name, P.Ty);
      const sf::Term *R = visit(A->getBody());
      Env.truncate(Saved);
      return R;
    }

    case sf::TermKind::TyAbs: {
      const auto *A = cast<sf::TyAbsTerm>(T);
      size_t Saved = Open.size();
      Open.insert(Open.end(), A->getParams().begin(), A->getParams().end());
      const sf::Term *R = visit(A->getBody());
      Open.resize(Saved);
      return R;
    }

    case sf::TermKind::Let: {
      const auto *L = cast<sf::LetTerm>(T);
      if (const sf::Term *R = visit(L->getInit()))
        return R;
      const sf::Type *InitTy = typeOf(L->getInit());
      if (!InitTy)
        return nullptr; // init is the problem but has no smaller culprit
      size_t Saved = Env.size();
      Env.bind(L->getName(), InitTy);
      const sf::Term *R = visit(L->getBody());
      Env.truncate(Saved);
      return R;
    }

    default: {
      const sf::Term *R = nullptr;
      sf::allChildren(T, [&](const sf::Term *C) {
        R = visit(C);
        return R == nullptr;
      });
      return R;
    }
    }
  }
};

} // namespace

const sf::Term *Validator::findSmallestIllTyped(const sf::Term *T) {
  IllTypedSearch Search{Ctx, Scratch, BaseEnv, {}};
  if (Search.typeOf(T))
    return nullptr;
  return Search.descend(T);
}

bool Validator::checkPass(const char *PassName, const sf::Term *After,
                          const sf::Type *Expected) {
  static std::atomic<uint64_t> &Checks =
      stats::Statistics::global().counter("validate.pass.checks");
  static std::atomic<uint64_t> &Failures =
      stats::Statistics::global().counter("validate.pass.failures");
  stats::ScopedTimer Timer("validate.passes");
  ++Checks;

  sf::TypeChecker Checker(Ctx);
  const sf::Type *Ty = Checker.check(After, BaseEnv);
  if (Ty && (!Expected || Ty == Expected))
    return true;

  ++Failures;
  FailedPass = PassName;
  if (!Ty) {
    const sf::Term *Culprit = findSmallestIllTyped(After);
    Error = "internal error: optimizer pass `" + FailedPass +
            "` produced an ill-typed term: " + Checker.firstError() +
            "; smallest ill-typed subterm: `" +
            sf::termToString(Culprit ? Culprit : After) + "`";
  } else {
    Error = "internal error: optimizer pass `" + FailedPass +
            "` changed the program's type from `" +
            sf::typeToString(Expected) + "` to `" + sf::typeToString(Ty) +
            "`";
  }
  return false;
}

std::function<bool(const char *, const sf::Term *, const sf::Term *)>
Validator::passHook(const sf::Type *Expected) {
  return [this, Expected](const char *PassName, const sf::Term *,
                          const sf::Term *After) {
    return checkPass(PassName, After, Expected);
  };
}
