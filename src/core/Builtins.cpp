//===- core/Builtins.cpp - F_G view of the builtin prelude ----------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "core/Builtins.h"
#include <cassert>

using namespace fg;

const Type *fg::fgTypeFromSf(TypeContext &FgCtx, const sf::Type *T) {
  switch (T->getKind()) {
  case sf::TypeKind::Int:
    return FgCtx.getIntType();
  case sf::TypeKind::Bool:
    return FgCtx.getBoolType();
  case sf::TypeKind::Bound:
    // Builtin types are closed, so every parameter is an index, which
    // means the same in both languages.
    return FgCtx.getBoundType(cast<sf::BoundType>(T)->getIndex());
  case sf::TypeKind::Arrow: {
    const auto *A = cast<sf::ArrowType>(T);
    std::vector<const Type *> Params;
    for (const sf::Type *P : A->getParams())
      Params.push_back(fgTypeFromSf(FgCtx, P));
    return FgCtx.getArrowType(std::move(Params),
                              fgTypeFromSf(FgCtx, A->getResult()));
  }
  case sf::TypeKind::Tuple: {
    std::vector<const Type *> Elems;
    for (const sf::Type *E : cast<sf::TupleType>(T)->getElements())
      Elems.push_back(fgTypeFromSf(FgCtx, E));
    return FgCtx.getTupleType(std::move(Elems));
  }
  case sf::TypeKind::List:
    return FgCtx.getListType(
        fgTypeFromSf(FgCtx, cast<sf::ListType>(T)->getElement()));
  case sf::TypeKind::ForAll: {
    const auto *F = cast<sf::ForAllType>(T);
    return FgCtx.getNamelessForAllType(
        F->getParamNames(), {{}, {}, fgTypeFromSf(FgCtx, F->getParts().Body)});
  }
  case sf::TypeKind::Param: // Builtin types are closed.
  case sf::TypeKind::Assoc: // System F has no associated types.
    break;
  }
  assert(false && "unknown System F type kind");
  return nullptr;
}

void fg::bindPrelude(Checker &C, TypeContext &FgCtx, const sf::Prelude &P) {
  for (const sf::BuiltinEntry &E : P.Entries)
    C.bindGlobal(E.Name, fgTypeFromSf(FgCtx, E.Ty));
}
