//===- types/Type.cpp - The types of F_G and System F ---------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "types/Type.h"
#include "support/Stats.h"
#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

using namespace fg;
using namespace fg::types;

//===----------------------------------------------------------------------===//
// Interning
//===----------------------------------------------------------------------===//

namespace {

size_t combineHash(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2));
}

/// Rebuilds \p T, under \p Depth parameters of foralls inside the one
/// being opened or closed, with Leaf(N, Depth) for each node N on which
/// Leaf is not null.
template <class L, typename FnT>
const Type<L> *rebind(TypeContext<L> &Ctx, const Type<L> *T, unsigned Depth,
                      FnT &Leaf) {
  if (const Type<L> *New = Leaf(T, Depth))
    return New;
  if (const auto *F = dyn_cast<ForAllType<L>>(T))
    Depth += F->getNumParams();
  return mapChildren(Ctx, T, [&](const Type<L> *C) {
    return rebind(Ctx, C, Depth, Leaf);
  });
}

} // namespace

template <class L>
bool TypeContext<L>::SameNode::operator()(const Type<L> *A,
                                          const Type<L> *B) const {
  if (A->Hash != B->Hash || A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case TypeKind::Param:
    return cast<ParamType<L>>(A)->getId() == cast<ParamType<L>>(B)->getId();
  case TypeKind::Bound:
    return cast<BoundType<L>>(A)->getIndex() ==
           cast<BoundType<L>>(B)->getIndex();
  case TypeKind::Arrow: {
    const auto *X = cast<ArrowType<L>>(A), *Y = cast<ArrowType<L>>(B);
    return X->getParams() == Y->getParams() && X->getResult() == Y->getResult();
  }
  case TypeKind::Tuple:
    return cast<TupleType<L>>(A)->getElements() ==
           cast<TupleType<L>>(B)->getElements();
  case TypeKind::List:
    return cast<ListType<L>>(A)->getElement() ==
           cast<ListType<L>>(B)->getElement();
  case TypeKind::Assoc: {
    const auto *X = cast<AssocType<L>>(A), *Y = cast<AssocType<L>>(B);
    return X->getConceptId() == Y->getConceptId() &&
           X->getMember() == Y->getMember() && X->getArgs() == Y->getArgs();
  }
  case TypeKind::ForAll: {
    const auto *X = cast<ForAllType<L>>(A), *Y = cast<ForAllType<L>>(B);
    return X->getNumParams() == Y->getNumParams() &&
           X->getParts() == Y->getParts();
  }
  default: // Int and Bool.
    return true;
  }
}

template <class L> TypeContext<L>::TypeContext() {
  IntTy = intern(new IntType<L>());
  BoolTy = intern(new BoolType<L>());
}

template <class L> TypeContext<L>::~TypeContext() = default;

template <class L> const Type<L> *TypeContext<L>::intern(Type<L> *Candidate) {
  std::unique_ptr<Type<L>> Holder(Candidate);
  // The hash covers the kind, the own fields (arities aside: the
  // children fix them) and the children's stored hashes; the summaries
  // combine the children's.
  Type<L> &N = *Candidate;
  N.Hash = static_cast<size_t>(N.getKind()) * 0x9e3779b1u;
  if (const auto *P = dyn_cast<ParamType<L>>(Candidate)) {
    N.Hash = combineHash(N.Hash, P->getId());
    N.MinFree = N.MaxFree = P->getId();
  } else if (const auto *B = dyn_cast<BoundType<L>>(Candidate)) {
    N.Hash = combineHash(N.Hash, B->getIndex());
    N.LooseBound = B->getIndex() + 1;
  } else if (const auto *A = dyn_cast<AssocType<L>>(Candidate)) {
    N.Hash = combineHash(combineHash(N.Hash, A->getConceptId()),
                         std::hash<std::string>()(A->getMember()));
  } else if (const auto *F = dyn_cast<ForAllType<L>>(Candidate)) {
    N.Hash = combineHash(N.Hash, F->getNumParams());
    for (const ConceptRef<L> &R : F->getParts().Requirements)
      N.Hash = combineHash(N.Hash, R.ConceptId);
  }
  allChildren(Candidate, [&](const Type<L> *C) {
    N.Hash = combineHash(N.Hash, C->Hash);
    N.LooseBound = std::max(N.LooseBound, C->LooseBound);
    N.MinFree = std::min(N.MinFree, C->MinFree);
    N.MaxFree = std::max(N.MaxFree, C->MaxFree);
    return true;
  });
  if (const auto *F = dyn_cast<ForAllType<L>>(Candidate))
    N.LooseBound -= std::min(N.LooseBound, F->getNumParams());
  auto [It, Inserted] = Uniq.insert(Candidate);
  if (Inserted)
    Owned.push_back(std::move(Holder));
  return *It;
}

template <class L>
const Type<L> *TypeContext<L>::getParamType(unsigned Id,
                                            const std::string &Name) {
  return intern(new ParamType<L>(Id, Name));
}

template <class L>
const Type<L> *
TypeContext<L>::getArrowType(std::vector<const Type<L> *> Params,
                             const Type<L> *Result) {
  assert(Result && "arrow result type must be non-null");
  return intern(new ArrowType<L>(std::move(Params), Result));
}

template <class L>
const Type<L> *
TypeContext<L>::getTupleType(std::vector<const Type<L> *> Elements) {
  return intern(new TupleType<L>(std::move(Elements)));
}

template <class L>
const Type<L> *TypeContext<L>::getListType(const Type<L> *Element) {
  assert(Element && "list element type must be non-null");
  return intern(new ListType<L>(Element));
}

template <class L>
const Type<L> *TypeContext<L>::getAssocType(unsigned ConceptId,
                                            const std::string &ConceptName,
                                            std::vector<const Type<L> *> Args,
                                            const std::string &Member)
  requires L::HasConcepts
{
  return intern(
      new AssocType<L>(ConceptId, ConceptName, std::move(Args), Member));
}

template <class L>
const Type<L> *TypeContext<L>::close(const std::vector<TypeParamDecl> &Params,
                                     ForAllParts<L> Parts) {
  unsigned Lo = ~0u, Hi = 0;
  std::vector<std::string> Names;
  for (const TypeParamDecl &P : Params) {
    Lo = std::min(Lo, P.Id);
    Hi = std::max(Hi, P.Id);
    Names.push_back(P.Name);
  }
  auto Leaf = [&](const Type<L> *T, unsigned Depth) -> const Type<L> * {
    if (!T->mayMention(Lo, Hi))
      return T;
    const auto *P = dyn_cast<ParamType<L>>(T);
    for (unsigned I = 0; P && I != Params.size(); ++I)
      if (Params[I].Id == P->getId())
        return getBoundType(Depth + I);
    return P ? T : nullptr;
  };
  return getNamelessForAllType(
      std::move(Names), mapParts(std::move(Parts), [&](const Type<L> *T) {
        assert(T->getLooseBound() == 0 && "a loose index would be misbound");
        return rebind(*this, T, 0, Leaf);
      }));
}

template <class L>
ForAllParts<L> TypeContext<L>::open(const ForAllType<L> *F,
                                    const std::vector<const Type<L> *> &Args) {
  assert(Args.size() == F->getNumParams() && F->getLooseBound() == 0 &&
         "open a closed forall at one type per parameter");
  for ([[maybe_unused]] const Type<L> *A : Args)
    assert(A->getLooseBound() == 0 && "an argument's index would be captured");
  auto Leaf = [&](const Type<L> *T, unsigned Depth) -> const Type<L> * {
    if (T->getLooseBound() <= Depth)
      return T;
    const auto *B = dyn_cast<BoundType<L>>(T);
    return B ? Args[B->getIndex() - Depth] : nullptr;
  };
  return mapParts(F->getParts(), [&](const Type<L> *T) {
    return rebind(*this, T, 0, Leaf);
  });
}

template <class L>
ConceptRef<L> TypeContext<L>::substitute(const ConceptRef<L> &R,
                                         const TypeSubst<L> &Subst)
  requires L::HasConcepts
{
  ConceptRef<L> Out{R.ConceptId, R.ConceptName, {}};
  for (const Type<L> *A : R.Args)
    Out.Args.push_back(substitute(A, Subst));
  return Out;
}

template <class L>
TypeEquation<L> TypeContext<L>::substitute(const TypeEquation<L> &E,
                                           const TypeSubst<L> &Subst)
  requires L::HasConcepts
{
  return {substitute(E.Lhs, Subst), substitute(E.Rhs, Subst)};
}

template <class L>
const Type<L> *TypeContext<L>::substitute(const Type<L> *T,
                                          const TypeSubst<L> &Subst) {
  static std::atomic<uint64_t> &SubstCount =
      stats::Statistics::global().counter("types.substitutions");
  ++SubstCount;
  if (Subst.empty() || !T->hasFree())
    return T;
  if (const auto *P = dyn_cast<ParamType<L>>(T)) {
    auto It = Subst.find(P->getId());
    if (It == Subst.end())
      return T;
    assert(It->second->getLooseBound() == 0 && "an index would be captured");
    return It->second;
  }
  return mapChildren(*this, T,
                     [&](const Type<L> *C) { return substitute(C, Subst); });
}

template <class L>
void TypeContext<L>::collectFreeParams(
    const Type<L> *T, std::unordered_set<unsigned> &Out) const {
  if (const auto *P = dyn_cast<ParamType<L>>(T))
    Out.insert(P->getId());
  else if (T->hasFree())
    allChildren(T, [&](const Type<L> *C) {
      collectFreeParams(C, Out);
      return true;
    });
}

template <class L>
void TypeContext<L>::collectConceptIds(const Type<L> *T,
                                       std::unordered_set<unsigned> &Out) const
  requires L::HasConcepts
{
  if (const auto *A = dyn_cast<AssocType<L>>(T))
    Out.insert(A->getConceptId());
  if (const auto *F = dyn_cast<ForAllType<L>>(T))
    for (const ConceptRef<L> &R : F->getParts().Requirements)
      Out.insert(R.ConceptId);
  allChildren(T, [&](const Type<L> *C) {
    collectConceptIds(C, Out);
    return true;
  });
}

//===----------------------------------------------------------------------===//
// Pretty printing
//===----------------------------------------------------------------------===//

namespace {

/// Prints types in the paper's syntax, naming each index after its
/// binder.  A binder whose name a name free in its forall already prints
/// as takes the smallest numeric suffix that no name in the forall uses.
template <class L> struct Printer {
  std::ostream &OS;
  /// The printed binder names in scope, the innermost forall's parameter
  /// 0 last; and how often each of them, or a free parameter's name of
  /// the printed types, is visible, which a binder could capture.
  std::vector<std::string> Scope;
  std::unordered_map<std::string, unsigned> Visible;

  Printer(std::ostream &OS, const std::vector<const Type<L> *> &Roots)
      : OS(OS) {
    std::unordered_set<std::string> Free;
    for (const Type<L> *T : Roots)
      freeNames(T, 0, Free);
    for (const std::string &N : Free)
      Visible[N] = 1;
  }

  std::string nameOf(unsigned I) const {
    return I < Scope.size() ? Scope[Scope.size() - 1 - I] : "?";
  }

  /// Adds the names of \p T's free parameters, and of the binders its
  /// indices from \p Depth up stand for, to \p Out.
  void freeNames(const Type<L> *T, unsigned Depth,
                 std::unordered_set<std::string> &Out) const {
    if (T->getLooseBound() <= Depth && !T->hasFree())
      return;
    if (const auto *P = dyn_cast<ParamType<L>>(T))
      Out.insert(P->getName());
    if (const auto *B = dyn_cast<BoundType<L>>(T))
      Out.insert(nameOf(B->getIndex() - Depth));
    if (const auto *F = dyn_cast<ForAllType<L>>(T))
      Depth += F->getNumParams();
    allChildren(T, [&](const Type<L> *C) {
      freeNames(C, Depth, Out);
      return true;
    });
  }

  std::vector<std::string> binderNames(const ForAllType<L> *F) const {
    std::vector<std::string> Names = F->getParamNames();
    std::unordered_set<std::string> Free, Used(Names.begin(), Names.end());
    for (std::string &N : Names) {
      if (!Visible.count(N))
        continue; // Nothing free in F prints as N.
      if (Free.empty())
        freeNames(F, 0, Free);
      std::string Base = N;
      for (unsigned K = 1; Free.count(N) || (K > 1 && Used.count(N)); ++K)
        N = Base + std::to_string(K);
      Used.insert(N);
    }
    return Names;
  }

  void printAll(const std::vector<const Type<L> *> &Ts, const char *Sep,
                bool Parens) {
    for (size_t I = 0; I != Ts.size(); ++I) {
      if (I)
        OS << Sep;
      print(Ts[I], Parens);
    }
  }

  void printRef(const ConceptRef<L> &R) {
    OS << R.ConceptName << '<';
    printAll(R.Args, ", ", /*Parens=*/false);
    OS << '>';
  }

  /// Prints \p T; with \p Parens, an arrow, list or forall is wrapped in
  /// parentheses.
  void print(const Type<L> *T, bool Parens) {
    TypeKind K = T->getKind();
    bool Wrap = Parens && (K == TypeKind::Arrow || K == TypeKind::List ||
                           K == TypeKind::ForAll);
    if (Wrap)
      OS << '(';
    switch (K) {
    case TypeKind::Int:
      OS << "int";
      break;
    case TypeKind::Bool:
      OS << "bool";
      break;
    case TypeKind::Param:
      OS << cast<ParamType<L>>(T)->getName();
      break;
    case TypeKind::Bound:
      OS << nameOf(cast<BoundType<L>>(T)->getIndex());
      break;
    case TypeKind::Arrow: {
      const auto *A = cast<ArrowType<L>>(T);
      OS << "fn(";
      printAll(A->getParams(), ", ", /*Parens=*/false);
      OS << ") -> ";
      print(A->getResult(), /*Parens=*/false);
      break;
    }
    case TypeKind::Tuple:
      OS << '(';
      printAll(cast<TupleType<L>>(T)->getElements(), " * ", /*Parens=*/true);
      OS << ')';
      break;
    case TypeKind::List:
      OS << "list ";
      print(cast<ListType<L>>(T)->getElement(), /*Parens=*/true);
      break;
    case TypeKind::Assoc: {
      const auto *A = cast<AssocType<L>>(T);
      OS << A->getConceptName() << '<';
      printAll(A->getArgs(), ", ", /*Parens=*/false);
      OS << ">." << A->getMember();
      break;
    }
    case TypeKind::ForAll: {
      const auto *F = cast<ForAllType<L>>(T);
      std::vector<std::string> Names = binderNames(F);
      OS << "forall ";
      for (size_t I = 0; I != Names.size(); ++I)
        OS << (I ? ", " : "") << Names[I];
      for (size_t I = Names.size(); I-- != 0; ++Visible[Names[I]])
        Scope.push_back(Names[I]);
      const char *Sep = " where ";
      for (const ConceptRef<L> &R : F->getParts().Requirements) {
        OS << std::exchange(Sep, ", ");
        printRef(R);
      }
      for (const TypeEquation<L> &E : F->getParts().Equations) {
        OS << std::exchange(Sep, ", ");
        print(E.Lhs, /*Parens=*/false);
        OS << " == ";
        print(E.Rhs, /*Parens=*/false);
      }
      OS << ". ";
      print(F->getParts().Body, /*Parens=*/false);
      Scope.resize(Scope.size() - Names.size());
      for (const std::string &N : Names)
        if (--Visible[N] == 0)
          Visible.erase(N);
      break;
    }
    }
    if (Wrap)
      OS << ')';
  }
};

} // namespace

template <class L> std::string types::typeToString(const Type<L> *T) {
  if (!T)
    return "<null-type>";
  std::ostringstream OS;
  Printer<L>(OS, {T}).print(T, /*Parens=*/false);
  return OS.str();
}

std::string types::conceptRefToString(const ConceptRef<FG> &R) {
  std::ostringstream OS;
  Printer<FG>(OS, R.Args).printRef(R);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// The two instantiations
//===----------------------------------------------------------------------===//

namespace fg::types {
template class TypeContext<SystemF>;
template class TypeContext<FG>;
template std::string typeToString(const Type<SystemF> *T);
template std::string typeToString(const Type<FG> *T);
} // namespace fg::types
