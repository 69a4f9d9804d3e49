//===- systemf/Type.cpp - System F types ----------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Type.h"
#include <cassert>
#include <sstream>

using namespace fg;
using namespace fg::sf;

//===----------------------------------------------------------------------===//
// Alpha-aware hashing and equality
//===----------------------------------------------------------------------===//

namespace {

/// Stack of binder param ids in binding order; inside two foralls being
/// compared, a bound parameter compares by its distance from the top
/// rather than by its id.
using BinderStack = std::vector<unsigned>;

/// Returns the de Bruijn-style index of \p Id in \p Binders, or -1 if
/// the parameter is free in the type being traversed.
int lookupBinder(const BinderStack &Binders, unsigned Id) {
  for (size_t I = Binders.size(); I != 0; --I)
    if (Binders[I - 1] == Id)
      return static_cast<int>(Binders.size() - I);
  return -1;
}

size_t combineHash(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// The arity of a node: what, besides its kind, its children and its
/// parameter id, tells two nodes apart.
size_t arity(const Type *T) {
  switch (T->getKind()) {
  case TypeKind::Arrow:
    return cast<ArrowType>(T)->getNumParams();
  case TypeKind::Tuple:
    return cast<TupleType>(T)->getNumElements();
  case TypeKind::ForAll:
    return cast<ForAllType>(T)->getNumParams();
  default:
    return 0;
  }
}

/// True when \p A and \p B agree on everything but their children and
/// parameter ids.
bool sameShape(const Type *A, const Type *B) {
  return A->getKind() == B->getKind() && arity(A) == arity(B);
}

/// Calls \p Fn on the paired children of two nodes of the same shape,
/// in allChildren's order, and stops at the first false.
template <typename FnT>
bool zipChildren(const Type *A, const Type *B, FnT &&Fn) {
  // Most nodes have a few children; a wider one spills to the heap.
  constexpr size_t InlineCount = 8;
  const Type *Inline[InlineCount] = {};
  std::vector<const Type *> Spilled;
  size_t N = 0;
  allChildren(B, [&](const Type *C) {
    if (N == InlineCount)
      Spilled.assign(Inline, Inline + InlineCount);
    if (N < InlineCount)
      Inline[N] = C;
    else
      Spilled.push_back(C);
    ++N;
    return true;
  });
  const Type *const *Right = N > InlineCount ? Spilled.data() : Inline;
  size_t I = 0;
  return allChildren(A, [&](const Type *C) { return Fn(C, Right[I++]); });
}

/// Alpha-equivalence of \p A and \p B, whose children are interned,
/// under the binders \p BA and \p BB.  Interned nodes under no binders
/// are equivalent only when they are one node, so the children of two
/// nodes other than foralls compare by pointer, and the only walk left
/// is the one over two foralls' bodies under binder stacks.
bool alphaEqualImpl(const Type *A, const Type *B, BinderStack &BA,
                    BinderStack &BB) {
  if (A->getBinderBlindHash() != B->getBinderBlindHash() || !sameShape(A, B))
    return false;
  if (const auto *PA = dyn_cast<ParamType>(A)) {
    unsigned IdB = cast<ParamType>(B)->getId();
    int IA = lookupBinder(BA, PA->getId());
    int IB = lookupBinder(BB, IdB);
    if (IA >= 0 || IB >= 0)
      return IA == IB;
    return PA->getId() == IdB;
  }
  size_t BeforeA = BA.size(), BeforeB = BB.size();
  if (const auto *FA = dyn_cast<ForAllType>(A)) {
    for (const TypeParamDecl &P : FA->getParams())
      BA.push_back(P.Id);
    for (const TypeParamDecl &P : cast<ForAllType>(B)->getParams())
      BB.push_back(P.Id);
  }
  bool Eq = zipChildren(A, B, [&](const Type *CA, const Type *CB) {
    if (BA.empty() && BB.empty())
      return CA == CB;
    return (CA == CB && BA == BB) || alphaEqualImpl(CA, CB, BA, BB);
  });
  BA.resize(BeforeA);
  BB.resize(BeforeB);
  return Eq;
}

} // namespace

size_t TypeContext::Hash::operator()(const Type *T) const {
  return T->getHash();
}

bool TypeContext::AlphaEq::operator()(const Type *A, const Type *B) const {
  BinderStack BA, BB;
  return A->getHash() == B->getHash() && alphaEqualImpl(A, B, BA, BB);
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

TypeContext::TypeContext() {
  IntTy = intern(new IntType());
  BoolTy = intern(new BoolType());
}

TypeContext::~TypeContext() = default;

const Type *TypeContext::intern(Type *Candidate) {
  std::unique_ptr<Type> Holder(Candidate);
  size_t Blind = combineHash(
      static_cast<size_t>(Candidate->getKind()) * 0x9e3779b1u,
      arity(Candidate));
  size_t H = Blind;
  if (const auto *P = dyn_cast<ParamType>(Candidate))
    H = combineHash(H, P->getId());
  allChildren(Candidate, [&](const Type *C) {
    H = combineHash(H, C->Hash);
    Blind = combineHash(Blind, C->BlindHash);
    return true;
  });
  Candidate->Hash = isa<ForAllType>(Candidate) ? Blind : H;
  Candidate->BlindHash = Blind;
  auto It = Uniq.find(Candidate);
  if (It != Uniq.end())
    return *It;
  Owned.push_back(std::move(Holder));
  Uniq.insert(Candidate);
  return Candidate;
}

const Type *TypeContext::getParamType(unsigned Id, const std::string &Name) {
  return intern(new ParamType(Id, Name));
}

const Type *TypeContext::getArrowType(std::vector<const Type *> Params,
                                      const Type *Result) {
  assert(Result && "arrow result type must be non-null");
  return intern(new ArrowType(std::move(Params), Result));
}

const Type *TypeContext::getTupleType(std::vector<const Type *> Elements) {
  return intern(new TupleType(std::move(Elements)));
}

const Type *TypeContext::getListType(const Type *Element) {
  assert(Element && "list element type must be non-null");
  return intern(new ListType(Element));
}

const Type *TypeContext::getForAllType(std::vector<TypeParamDecl> Params,
                                       const Type *Body) {
  assert(!Params.empty() && "forall must bind at least one parameter");
  assert(Body && "forall body type must be non-null");
  return intern(new ForAllType(std::move(Params), Body));
}

const Type *TypeContext::substitute(const Type *T, const TypeSubst &Subst) {
  if (Subst.empty())
    return T;
  if (const auto *P = dyn_cast<ParamType>(T)) {
    auto It = Subst.find(P->getId());
    return It == Subst.end() ? T : It->second;
  }
  // Binder ids are globally unique; the substitution's domain can only
  // mention binders that have been opened, never this one.
  if (const auto *F = dyn_cast<ForAllType>(T))
    for ([[maybe_unused]] const TypeParamDecl &P : F->getParams())
      assert(!Subst.count(P.Id) && "substitution would capture a binder");
  return mapChildren(*this, T,
                     [&](const Type *C) { return substitute(C, Subst); });
}

void TypeContext::collectFreeParams(const Type *T,
                                    std::unordered_set<unsigned> &Out) const {
  if (const auto *P = dyn_cast<ParamType>(T)) {
    Out.insert(P->getId());
    return;
  }
  allChildren(T, [&](const Type *C) {
    collectFreeParams(C, Out);
    return true;
  });
  if (const auto *F = dyn_cast<ForAllType>(T))
    for (const TypeParamDecl &P : F->getParams())
      Out.erase(P.Id);
}

//===----------------------------------------------------------------------===//
// Pretty printing
//===----------------------------------------------------------------------===//

namespace {

void printType(std::ostringstream &OS, const Type *T, bool Parens) {
  switch (T->getKind()) {
  case TypeKind::Int:
    OS << "int";
    return;
  case TypeKind::Bool:
    OS << "bool";
    return;
  case TypeKind::Param:
    OS << cast<ParamType>(T)->getName();
    return;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    if (Parens)
      OS << '(';
    OS << "fn(";
    for (unsigned I = 0, E = A->getNumParams(); I != E; ++I) {
      if (I)
        OS << ", ";
      printType(OS, A->getParams()[I], /*Parens=*/false);
    }
    OS << ") -> ";
    printType(OS, A->getResult(), /*Parens=*/false);
    if (Parens)
      OS << ')';
    return;
  }
  case TypeKind::Tuple: {
    const auto *Tu = cast<TupleType>(T);
    OS << '(';
    for (unsigned I = 0, E = Tu->getNumElements(); I != E; ++I) {
      if (I)
        OS << " * ";
      printType(OS, Tu->getElement(I), /*Parens=*/true);
    }
    OS << ')';
    return;
  }
  case TypeKind::List: {
    if (Parens)
      OS << '(';
    OS << "list ";
    printType(OS, cast<ListType>(T)->getElement(), /*Parens=*/true);
    if (Parens)
      OS << ')';
    return;
  }
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    if (Parens)
      OS << '(';
    OS << "forall ";
    for (unsigned I = 0, E = F->getNumParams(); I != E; ++I) {
      if (I)
        OS << ", ";
      OS << F->getParams()[I].Name;
    }
    OS << ". ";
    printType(OS, F->getBody(), /*Parens=*/false);
    if (Parens)
      OS << ')';
    return;
  }
  }
}

} // namespace

std::string fg::sf::typeToString(const Type *T) {
  std::ostringstream OS;
  if (!T)
    return "<null-type>";
  printType(OS, T, /*Parens=*/false);
  return OS.str();
}
