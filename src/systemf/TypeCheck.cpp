//===- systemf/TypeCheck.cpp - System F typechecker -----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/TypeCheck.h"
#include <cassert>
#include <sstream>

using namespace fg;
using namespace fg::sf;

const Type *TypeChecker::check(const Term *T, const TypeEnv &InitialEnv) {
  Env = InitialEnv;
  ParamsInScope.clear();
  Errors.clear();
  return checkTerm(T);
}

const Type *TypeChecker::fail(const Term *At, std::string Message) {
  std::ostringstream OS;
  OS << Message;
  if (At)
    OS << " in `" << termToString(At) << '`';
  Errors.push_back(OS.str());
  return nullptr;
}

/// Verifies that every free type parameter of \p T is in scope.
bool TypeChecker::checkWellFormed(const Type *T, const Term *At) {
  std::unordered_set<unsigned> Free;
  Ctx.collectFreeParams(T, Free);
  for (unsigned Id : Free) {
    if (!ParamsInScope.count(Id)) {
      fail(At, "type `" + typeToString(T) +
                   "` mentions a type parameter that is not in scope");
      return false;
    }
  }
  return true;
}

const Type *TypeChecker::checkTerm(const Term *T) {
  switch (T->getKind()) {
  case TermKind::IntLit:
    return Ctx.getIntType();
  case TermKind::BoolLit:
    return Ctx.getBoolType();

  case TermKind::Var: {
    const auto *V = cast<VarTerm>(T);
    if (const Type *Ty = Env.lookup(V->getName()))
      return Ty;
    return fail(T, "unbound variable `" + V->getName() + "`");
  }

  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    size_t Saved = Env.size();
    std::vector<const Type *> ParamTys;
    ParamTys.reserve(A->getParams().size());
    for (const ParamBinding &P : A->getParams()) {
      if (!checkWellFormed(P.Ty, T))
        return nullptr;
      Env.bind(P.Name, P.Ty);
      ParamTys.push_back(P.Ty);
    }
    const Type *BodyTy = checkTerm(A->getBody());
    Env.truncate(Saved);
    if (!BodyTy)
      return nullptr;
    return Ctx.getArrowType(std::move(ParamTys), BodyTy);
  }

  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    const Type *FnTy = checkTerm(A->getFn());
    if (!FnTy)
      return nullptr;
    const auto *Arrow = dyn_cast<ArrowType>(FnTy);
    if (!Arrow)
      return fail(T, "applied expression has non-function type `" +
                         typeToString(FnTy) + "`");
    if (Arrow->getNumParams() != A->getArgs().size())
      return fail(T, "function expects " +
                         std::to_string(Arrow->getNumParams()) +
                         " argument(s) but " +
                         std::to_string(A->getArgs().size()) +
                         " were supplied");
    for (unsigned I = 0, E = A->getArgs().size(); I != E; ++I) {
      const Type *ArgTy = checkTerm(A->getArgs()[I]);
      if (!ArgTy)
        return nullptr;
      // Hash-consing makes alpha-equivalence a pointer comparison.
      if (ArgTy != Arrow->getParams()[I])
        return fail(T, "argument " + std::to_string(I + 1) + " has type `" +
                           typeToString(ArgTy) + "` but `" +
                           typeToString(Arrow->getParams()[I]) +
                           "` was expected");
    }
    return Arrow->getResult();
  }

  case TermKind::TyAbs: {
    const auto *A = cast<TyAbsTerm>(T);
    for (const TypeParamDecl &P : A->getParams()) {
      if (ParamsInScope.count(P.Id))
        return fail(T, "type parameter `" + P.Name + "` is already in scope");
      ParamsInScope.insert(P.Id);
    }
    const Type *BodyTy = checkTerm(A->getBody());
    for (const TypeParamDecl &P : A->getParams())
      ParamsInScope.erase(P.Id);
    if (!BodyTy)
      return nullptr;
    return Ctx.getForAllType(A->getParams(), BodyTy);
  }

  case TermKind::TyApp: {
    const auto *A = cast<TyAppTerm>(T);
    const Type *FnTy = checkTerm(A->getFn());
    if (!FnTy)
      return nullptr;
    const auto *FA = dyn_cast<ForAllType>(FnTy);
    if (!FA)
      return fail(T, "type application of non-polymorphic expression of "
                     "type `" +
                         typeToString(FnTy) + "`");
    if (FA->getNumParams() != A->getTypeArgs().size())
      return fail(T, "expected " + std::to_string(FA->getNumParams()) +
                         " type argument(s) but got " +
                         std::to_string(A->getTypeArgs().size()));
    for (const Type *Arg : A->getTypeArgs())
      if (!checkWellFormed(Arg, T))
        return nullptr;
    return Ctx.open(FA, A->getTypeArgs()).Body;
  }

  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    const Type *InitTy = checkTerm(L->getInit());
    if (!InitTy)
      return nullptr;
    size_t Saved = Env.size();
    Env.bind(L->getName(), InitTy);
    const Type *BodyTy = checkTerm(L->getBody());
    Env.truncate(Saved);
    return BodyTy;
  }

  case TermKind::Tuple: {
    const auto *Tu = cast<TupleTerm>(T);
    std::vector<const Type *> Elems;
    Elems.reserve(Tu->getElements().size());
    for (const Term *E : Tu->getElements()) {
      const Type *Ty = checkTerm(E);
      if (!Ty)
        return nullptr;
      Elems.push_back(Ty);
    }
    return Ctx.getTupleType(std::move(Elems));
  }

  case TermKind::Nth: {
    const auto *N = cast<NthTerm>(T);
    const Type *TupleTy = checkTerm(N->getTuple());
    if (!TupleTy)
      return nullptr;
    const auto *Tu = dyn_cast<TupleType>(TupleTy);
    if (!Tu)
      return fail(T, "`nth` applied to non-tuple type `" +
                         typeToString(TupleTy) + "`");
    if (N->getIndex() >= Tu->getNumElements())
      return fail(T, "tuple index " + std::to_string(N->getIndex()) +
                         " out of range for `" + typeToString(TupleTy) + "`");
    return Tu->getElement(N->getIndex());
  }

  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    const Type *CondTy = checkTerm(I->getCond());
    if (!CondTy)
      return nullptr;
    if (CondTy != Ctx.getBoolType())
      return fail(T, "`if` condition has type `" + typeToString(CondTy) +
                         "` but `bool` was expected");
    const Type *ThenTy = checkTerm(I->getThen());
    const Type *ElseTy = checkTerm(I->getElse());
    if (!ThenTy || !ElseTy)
      return nullptr;
    if (ThenTy != ElseTy)
      return fail(T, "`if` branches have different types `" +
                         typeToString(ThenTy) + "` and `" +
                         typeToString(ElseTy) + "`");
    return ThenTy;
  }

  case TermKind::Fix: {
    const auto *F = cast<FixTerm>(T);
    const Type *OpTy = checkTerm(F->getOperand());
    if (!OpTy)
      return nullptr;
    // fix e : sigma  when  e : fn(sigma) -> sigma  and sigma is a
    // function type (the call-by-value restriction).
    const auto *Arrow = dyn_cast<ArrowType>(OpTy);
    if (!Arrow || Arrow->getNumParams() != 1 ||
        Arrow->getParams()[0] != Arrow->getResult())
      return fail(T, "`fix` operand must have type `fn(s) -> s`, got `" +
                         typeToString(OpTy) + "`");
    if (!isa<ArrowType>(Arrow->getResult()))
      return fail(T, "`fix` is restricted to function types, got `" +
                         typeToString(Arrow->getResult()) + "`");
    return Arrow->getResult();
  }
  }
  assert(false && "unknown term kind");
  return nullptr;
}
