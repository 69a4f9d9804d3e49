//===- systemf/TermOps.h - Shared term traversal and rewriting --*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a System F term's children are, in which order they are
/// visited, and how a term is rebuilt from new children: allChildren
/// and mapChildren.  Every walk over terms that does more than one
/// kind-specific thing per node — the optimizer passes (Optimize.cpp),
/// the -O2 specializer (Specialize.cpp), the AOT emitter's capture
/// analysis and the validator's ill-typed-subterm search — spells out
/// only its interesting cases and hands every other node to one of the
/// two helpers.  A new term kind means editing these two switches.
///
/// On top of them, the term-level analyses and substitutions those
/// clients share: node counting, parameter shadowing, purity, free
/// variables, occurrence counting, type substitution inside terms, and
/// capture-avoiding variable substitution.  All rewrites preserve
/// sharing — a transform returns the original node when nothing changed
/// underneath it — which is what keeps the pass pipeline free of
/// full-term copies.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_TERMOPS_H
#define FG_SYSTEMF_TERMOPS_H

#include "systemf/Term.h"
#include "systemf/Type.h"
#include <string>
#include <vector>

namespace fg {
namespace sf {

/// Calls \p Fn on each immediate subterm of \p T in evaluation order —
/// the Abs or TyAbs body; the App function, then its arguments; the
/// TyApp function; the Let init, then its body; the Tuple elements; the
/// Nth tuple; the If condition, then and else branches; the Fix operand
/// — and stops at the first call that returns false.  Returns false
/// exactly when some call did.  Binders are the caller's business: the
/// callback sees the Abs or Let body without its parameters in scope.
template <typename FnT> bool allChildren(const Term *T, FnT &&Fn) {
  switch (T->getKind()) {
  case TermKind::IntLit:
  case TermKind::BoolLit:
  case TermKind::Var:
    return true;
  case TermKind::Abs:
    return Fn(cast<AbsTerm>(T)->getBody());
  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    if (!Fn(A->getFn()))
      return false;
    for (const Term *Arg : A->getArgs())
      if (!Fn(Arg))
        return false;
    return true;
  }
  case TermKind::TyAbs:
    return Fn(cast<TyAbsTerm>(T)->getBody());
  case TermKind::TyApp:
    return Fn(cast<TyAppTerm>(T)->getFn());
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    return Fn(L->getInit()) && Fn(L->getBody());
  }
  case TermKind::Tuple:
    for (const Term *E : cast<TupleTerm>(T)->getElements())
      if (!Fn(E))
        return false;
    return true;
  case TermKind::Nth:
    return Fn(cast<NthTerm>(T)->getTuple());
  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    return Fn(I->getCond()) && Fn(I->getThen()) && Fn(I->getElse());
  }
  case TermKind::Fix:
    return Fn(cast<FixTerm>(T)->getOperand());
  }
  return true;
}

/// Rebuilds \p T with each immediate subterm C replaced by Fn(C),
/// calling \p Fn in allChildren's order.  Returns \p T itself when
/// every call returned its argument, so unchanged subtrees stay shared;
/// otherwise one new node of \p T's kind, with its parameters, type
/// arguments, binder name or index copied, is allocated in \p Arena.
template <typename FnT>
const Term *mapChildren(TermArena &Arena, const Term *T, FnT &&Fn) {
  auto MapAll = [&](const std::vector<const Term *> &Old,
                    std::vector<const Term *> &New) {
    bool Changed = false;
    New.reserve(Old.size());
    for (const Term *C : Old) {
      New.push_back(Fn(C));
      Changed |= New.back() != C;
    }
    return Changed;
  };
  switch (T->getKind()) {
  case TermKind::IntLit:
  case TermKind::BoolLit:
  case TermKind::Var:
    return T;
  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    const Term *Body = Fn(A->getBody());
    return Body == A->getBody() ? T : Arena.makeAbs(A->getParams(), Body);
  }
  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    const Term *Callee = Fn(A->getFn());
    std::vector<const Term *> Args;
    bool Changed = MapAll(A->getArgs(), Args);
    if (!Changed && Callee == A->getFn())
      return T;
    return Arena.makeApp(Callee, std::move(Args));
  }
  case TermKind::TyAbs: {
    const auto *A = cast<TyAbsTerm>(T);
    const Term *Body = Fn(A->getBody());
    return Body == A->getBody() ? T : Arena.makeTyAbs(A->getParams(), Body);
  }
  case TermKind::TyApp: {
    const auto *A = cast<TyAppTerm>(T);
    const Term *Callee = Fn(A->getFn());
    return Callee == A->getFn() ? T
                                : Arena.makeTyApp(Callee, A->getTypeArgs());
  }
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    const Term *Init = Fn(L->getInit());
    const Term *Body = Fn(L->getBody());
    if (Init == L->getInit() && Body == L->getBody())
      return T;
    return Arena.makeLet(L->getName(), Init, Body);
  }
  case TermKind::Tuple: {
    std::vector<const Term *> Elems;
    if (!MapAll(cast<TupleTerm>(T)->getElements(), Elems))
      return T;
    return Arena.makeTuple(std::move(Elems));
  }
  case TermKind::Nth: {
    const auto *N = cast<NthTerm>(T);
    const Term *Tu = Fn(N->getTuple());
    return Tu == N->getTuple() ? T : Arena.makeNth(Tu, N->getIndex());
  }
  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    const Term *C = Fn(I->getCond());
    const Term *Th = Fn(I->getThen());
    const Term *El = Fn(I->getElse());
    if (C == I->getCond() && Th == I->getThen() && El == I->getElse())
      return T;
    return Arena.makeIf(C, Th, El);
  }
  case TermKind::Fix: {
    const auto *F = cast<FixTerm>(T);
    const Term *Op = Fn(F->getOperand());
    return Op == F->getOperand() ? T : Arena.makeFix(Op);
  }
  }
  return T;
}

/// Returns the number of AST nodes in \p T.
size_t countTermNodes(const Term *T);

/// True when the lambda \p A binds \p Name, hiding it from the body.
bool bindsParam(const AbsTerm *A, const std::string &Name);

/// Pure, terminating terms: safe to duplicate, reorder, or drop.  On a
/// *well-typed* program `nth` of a pure tuple cannot fail, so it is
/// included; applications are not (they may diverge or error).
bool isPureTerm(const Term *T);

/// The free term variables of \p T, each once, in the order of their
/// first occurrence in allChildren's traversal (the AOT emitter lays
/// out closure captures in this order).
std::vector<std::string> freeTermVars(const Term *T);

/// Number of free occurrences of \p Name in \p T (shadowing-aware).
unsigned countVarOccurrences(const Term *T, const std::string &Name);

/// Substitutes types for type-parameter ids throughout \p T (parameter
/// annotations, type arguments).  Binder ids are globally unique, so no
/// renaming is ever required; this is asserted.
const Term *substituteTermTypes(TermArena &Arena, TypeContext &Ctx,
                                const Term *T, const TypeSubst &S);

/// Substitutes \p Value for free occurrences of \p Name in \p T.
/// \p ValueFree are the free variables of \p Value; any binder along
/// the way that would capture one of them is alpha-renamed first, using
/// fresh names `<base><Suffix><RenameCounter++>`.  Callers share one
/// counter per rewrite session (and distinct suffixes per client) so
/// fresh names never collide.
const Term *substituteTermVar(TermArena &Arena, const Term *T,
                              const std::string &Name, const Term *Value,
                              const std::vector<std::string> &ValueFree,
                              unsigned &RenameCounter,
                              const char *Suffix = "$r");

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_TERMOPS_H
