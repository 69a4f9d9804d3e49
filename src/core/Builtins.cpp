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
  case sf::TypeKind::Param: {
    const auto *P = cast<sf::ParamType>(T);
    // System F parameter ids live in a different id space; builtin types
    // are closed, so reusing the numeric id on the F_G side is safe as
    // long as the F_G context hands out ids from its own counter.  To
    // avoid any overlap we offset into a reserved range.
    return FgCtx.getParamType(P->getId() + (1u << 30), P->getName());
  }
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
    std::vector<TypeParamDecl> Params;
    for (const sf::TypeParamDecl &P : F->getParams())
      Params.push_back({P.Id + (1u << 30), P.Name});
    return FgCtx.getForAllType(std::move(Params), {}, {},
                               fgTypeFromSf(FgCtx, F->getBody()));
  }
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
