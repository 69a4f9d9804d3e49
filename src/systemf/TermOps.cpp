//===- systemf/TermOps.cpp - Shared term traversal and rewriting ----------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/TermOps.h"
#include <algorithm>
#include <cassert>

using namespace fg;
using namespace fg::sf;

namespace {

bool contains(const std::vector<std::string> &Names, const std::string &N) {
  return std::find(Names.begin(), Names.end(), N) != Names.end();
}

} // namespace

size_t fg::sf::countTermNodes(const Term *T) {
  size_t N = 1;
  allChildren(T, [&](const Term *C) {
    N += countTermNodes(C);
    return true;
  });
  return N;
}

bool fg::sf::bindsParam(const AbsTerm *A, const std::string &Name) {
  for (const ParamBinding &P : A->getParams())
    if (P.Name == Name)
      return true;
  return false;
}

bool fg::sf::isPureTerm(const Term *T) {
  switch (T->getKind()) {
  case TermKind::IntLit:
  case TermKind::BoolLit:
  case TermKind::Var:
  case TermKind::Abs:
  case TermKind::TyAbs:
    return true;
  case TermKind::Tuple:
    for (const Term *E : cast<TupleTerm>(T)->getElements())
      if (!isPureTerm(E))
        return false;
    return true;
  case TermKind::Nth:
    return isPureTerm(cast<NthTerm>(T)->getTuple());
  case TermKind::Fix:
    return isPureTerm(cast<FixTerm>(T)->getOperand());
  default:
    return false;
  }
}

namespace {

/// \p Bound is the stack of binders in scope (innermost last).
void freeVarsImpl(const Term *T, std::vector<std::string> &Bound,
                  std::vector<std::string> &Out) {
  switch (T->getKind()) {
  case TermKind::Var: {
    const std::string &N = cast<VarTerm>(T)->getName();
    if (!contains(Bound, N) && !contains(Out, N))
      Out.push_back(N);
    return;
  }
  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    size_t Mark = Bound.size();
    for (const ParamBinding &P : A->getParams())
      Bound.push_back(P.Name);
    freeVarsImpl(A->getBody(), Bound, Out);
    Bound.resize(Mark);
    return;
  }
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    freeVarsImpl(L->getInit(), Bound, Out);
    Bound.push_back(L->getName());
    freeVarsImpl(L->getBody(), Bound, Out);
    Bound.pop_back();
    return;
  }
  default:
    allChildren(T, [&](const Term *C) {
      freeVarsImpl(C, Bound, Out);
      return true;
    });
    return;
  }
}

} // namespace

std::vector<std::string> fg::sf::freeTermVars(const Term *T) {
  std::vector<std::string> Bound, Out;
  freeVarsImpl(T, Bound, Out);
  return Out;
}

unsigned fg::sf::countVarOccurrences(const Term *T, const std::string &Name) {
  switch (T->getKind()) {
  case TermKind::Var:
    return cast<VarTerm>(T)->getName() == Name ? 1 : 0;
  case TermKind::Abs:
    if (bindsParam(cast<AbsTerm>(T), Name))
      return 0; // Shadowed.
    break;
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    unsigned N = countVarOccurrences(L->getInit(), Name);
    if (L->getName() != Name)
      N += countVarOccurrences(L->getBody(), Name);
    return N;
  }
  default:
    break;
  }
  unsigned N = 0;
  allChildren(T, [&](const Term *C) {
    N += countVarOccurrences(C, Name);
    return true;
  });
  return N;
}

const Term *fg::sf::substituteTermTypes(TermArena &Arena, TypeContext &Ctx,
                                        const Term *T, const TypeSubst &S) {
  auto Subst = [&](const Term *C) {
    return substituteTermTypes(Arena, Ctx, C, S);
  };
  switch (T->getKind()) {
  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    std::vector<ParamBinding> Params;
    bool Changed = false;
    for (const ParamBinding &P : A->getParams()) {
      const Type *NT = Ctx.substitute(P.Ty, S);
      Changed |= NT != P.Ty;
      Params.push_back({P.Name, NT});
    }
    const Term *Body = Subst(A->getBody());
    if (!Changed && Body == A->getBody())
      return T;
    return Arena.makeAbs(std::move(Params), Body);
  }
  case TermKind::TyAbs:
    for ([[maybe_unused]] const TypeParamDecl &P :
         cast<TyAbsTerm>(T)->getParams())
      assert(!S.count(P.Id) && "type substitution would capture");
    break;
  case TermKind::TyApp: {
    const auto *A = cast<TyAppTerm>(T);
    const Term *Fn = Subst(A->getFn());
    std::vector<const Type *> Args;
    bool Changed = Fn != A->getFn();
    for (const Type *Arg : A->getTypeArgs()) {
      const Type *NA = Ctx.substitute(Arg, S);
      Changed |= NA != Arg;
      Args.push_back(NA);
    }
    return Changed ? Arena.makeTyApp(Fn, std::move(Args)) : T;
  }
  default:
    break;
  }
  return mapChildren(Arena, T, Subst);
}

const Term *
fg::sf::substituteTermVar(TermArena &Arena, const Term *T,
                          const std::string &Name, const Term *Value,
                          const std::vector<std::string> &ValueFree,
                          unsigned &RenameCounter, const char *Suffix) {
  auto Fresh = [&](const std::string &Base) {
    return Base + Suffix + std::to_string(RenameCounter++);
  };
  auto Subst = [&](const Term *C) {
    return substituteTermVar(Arena, C, Name, Value, ValueFree, RenameCounter,
                             Suffix);
  };
  switch (T->getKind()) {
  case TermKind::Var:
    return cast<VarTerm>(T)->getName() == Name ? Value : T;
  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    if (bindsParam(A, Name))
      return T; // Shadowed: substitution stops here.
    // Rename parameters that would capture free variables of Value.
    // Walk the parameter list back to front: with duplicate names the
    // *last* binding owns the body occurrences (evaluation binds
    // sequentially, later shadowing earlier), so it must be renamed
    // first, leaving nothing for the earlier duplicates to capture.
    std::vector<ParamBinding> Params(A->getParams());
    const Term *Body = A->getBody();
    for (size_t I = Params.size(); I-- != 0;) {
      ParamBinding &P = Params[I];
      if (!contains(ValueFree, P.Name))
        continue;
      std::string NewName = Fresh(P.Name);
      Body = substituteTermVar(Arena, Body, P.Name, Arena.makeVar(NewName),
                               {}, RenameCounter, Suffix);
      P.Name = NewName;
    }
    const Term *NewBody = Subst(Body);
    if (NewBody == A->getBody() && Body == A->getBody())
      return T;
    return Arena.makeAbs(std::move(Params), NewBody);
  }
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    const Term *Init = Subst(L->getInit());
    if (L->getName() == Name) {
      // Shadowed in the body.
      return Init == L->getInit()
                 ? T
                 : Arena.makeLet(L->getName(), Init, L->getBody());
    }
    std::string BoundName = L->getName();
    const Term *Body = L->getBody();
    if (contains(ValueFree, BoundName)) {
      std::string NewName = Fresh(BoundName);
      Body = substituteTermVar(Arena, Body, BoundName,
                               Arena.makeVar(NewName), {}, RenameCounter,
                               Suffix);
      BoundName = NewName;
    }
    const Term *NewBody = Subst(Body);
    if (Init == L->getInit() && NewBody == L->getBody() &&
        BoundName == L->getName())
      return T;
    return Arena.makeLet(BoundName, Init, NewBody);
  }
  default:
    return mapChildren(Arena, T, Subst);
  }
}
