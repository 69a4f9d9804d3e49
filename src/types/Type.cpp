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

using namespace fg;
using namespace fg::types;

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

/// True when \p A and \p B agree on everything but their children and
/// parameter ids: kind, arities, concept ids and member names.
template <class L> bool sameShape(const Type<L> *A, const Type<L> *B) {
  if (A->getKind() != B->getKind())
    return false;
  switch (A->getKind()) {
  case TypeKind::Arrow:
    return cast<ArrowType<L>>(A)->getNumParams() ==
           cast<ArrowType<L>>(B)->getNumParams();
  case TypeKind::Tuple:
    return cast<TupleType<L>>(A)->getNumElements() ==
           cast<TupleType<L>>(B)->getNumElements();
  case TypeKind::Assoc: {
    const auto *SA = cast<AssocType<L>>(A);
    const auto *SB = cast<AssocType<L>>(B);
    return SA->getConceptId() == SB->getConceptId() &&
           SA->getMember() == SB->getMember() &&
           SA->getArgs().size() == SB->getArgs().size();
  }
  case TypeKind::ForAll: {
    const auto *FA = cast<ForAllType<L>>(A);
    const auto *FB = cast<ForAllType<L>>(B);
    auto SameConcept = [](const ConceptRef<L> &RA, const ConceptRef<L> &RB) {
      return RA.ConceptId == RB.ConceptId && RA.Args.size() == RB.Args.size();
    };
    return FA->getNumParams() == FB->getNumParams() &&
           FA->getEquations().size() == FB->getEquations().size() &&
           std::equal(FA->getRequirements().begin(),
                      FA->getRequirements().end(),
                      FB->getRequirements().begin(),
                      FB->getRequirements().end(), SameConcept);
  }
  default:
    return true;
  }
}

/// Hashes what sameShape compares.
template <class L> size_t shapeHash(const Type<L> *T) {
  size_t H = static_cast<size_t>(T->getKind()) * 0x9e3779b1u;
  switch (T->getKind()) {
  case TypeKind::Arrow:
    return combineHash(H, cast<ArrowType<L>>(T)->getNumParams());
  case TypeKind::Tuple:
    return combineHash(H, cast<TupleType<L>>(T)->getNumElements());
  case TypeKind::Assoc: {
    const auto *A = cast<AssocType<L>>(T);
    H = combineHash(H, A->getConceptId());
    return combineHash(H, std::hash<std::string>()(A->getMember()));
  }
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType<L>>(T);
    H = combineHash(H, F->getNumParams());
    for (const ConceptRef<L> &R : F->getRequirements())
      H = combineHash(combineHash(H, R.ConceptId), R.Args.size());
    return combineHash(H, F->getEquations().size());
  }
  default:
    return H;
  }
}

/// Calls \p Fn on the paired children of two nodes of the same shape,
/// in allChildren's order, and stops at the first false.
template <class L, typename FnT>
bool zipChildren(const Type<L> *A, const Type<L> *B, FnT &&Fn) {
  // Most nodes have a few children; a wider one spills to the heap.
  constexpr size_t InlineCount = 8;
  const Type<L> *Inline[InlineCount] = {};
  std::vector<const Type<L> *> Spilled;
  size_t N = 0;
  allChildren(B, [&](const Type<L> *C) {
    if (N == InlineCount)
      Spilled.assign(Inline, Inline + InlineCount);
    if (N < InlineCount)
      Inline[N] = C;
    else
      Spilled.push_back(C);
    ++N;
    return true;
  });
  const Type<L> *const *Right = N > InlineCount ? Spilled.data() : Inline;
  size_t I = 0;
  return allChildren(A, [&](const Type<L> *C) { return Fn(C, Right[I++]); });
}

/// Alpha-equivalence of \p A and \p B, whose children are interned,
/// under the binders \p BA and \p BB.  Interned nodes under no binders
/// are equivalent only when they are one node, so the children of two
/// nodes other than foralls compare by pointer, and the only walk left
/// is the one over two foralls' where clauses and bodies under binder
/// stacks.
template <class L>
bool alphaEqualImpl(const Type<L> *A, const Type<L> *B, BinderStack &BA,
                    BinderStack &BB) {
  if (A->getBinderBlindHash() != B->getBinderBlindHash() || !sameShape(A, B))
    return false;
  if (const auto *PA = dyn_cast<ParamType<L>>(A)) {
    unsigned IdB = cast<ParamType<L>>(B)->getId();
    int IA = lookupBinder(BA, PA->getId());
    int IB = lookupBinder(BB, IdB);
    if (IA >= 0 || IB >= 0)
      return IA == IB;
    return PA->getId() == IdB;
  }
  size_t BeforeA = BA.size(), BeforeB = BB.size();
  if (const auto *FA = dyn_cast<ForAllType<L>>(A)) {
    for (const TypeParamDecl &P : FA->getParams())
      BA.push_back(P.Id);
    for (const TypeParamDecl &P : cast<ForAllType<L>>(B)->getParams())
      BB.push_back(P.Id);
  }
  bool Eq = zipChildren(A, B, [&](const Type<L> *CA, const Type<L> *CB) {
    if (BA.empty() && BB.empty())
      return CA == CB;
    return (CA == CB && BA == BB) || alphaEqualImpl(CA, CB, BA, BB);
  });
  BA.resize(BeforeA);
  BB.resize(BeforeB);
  return Eq;
}

} // namespace

template <class L>
bool TypeContext<L>::AlphaEq::operator()(const Type<L> *A,
                                         const Type<L> *B) const {
  BinderStack BA, BB;
  return A->getHash() == B->getHash() && alphaEqualImpl(A, B, BA, BB);
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

template <class L> TypeContext<L>::TypeContext() {
  IntTy = intern(new IntType<L>());
  BoolTy = intern(new BoolType<L>());
}

template <class L> TypeContext<L>::~TypeContext() = default;

template <class L> const Type<L> *TypeContext<L>::intern(Type<L> *Candidate) {
  std::unique_ptr<Type<L>> Holder(Candidate);
  size_t Blind = shapeHash(Candidate);
  size_t H = Blind;
  if (const auto *P = dyn_cast<ParamType<L>>(Candidate))
    H = combineHash(H, P->getId());
  allChildren(Candidate, [&](const Type<L> *C) {
    H = combineHash(H, C->Hash);
    Blind = combineHash(Blind, C->BlindHash);
    return true;
  });
  Candidate->Hash = isa<ForAllType<L>>(Candidate) ? Blind : H;
  Candidate->BlindHash = Blind;
  auto It = Uniq.find(Candidate);
  if (It != Uniq.end())
    return *It;
  Owned.push_back(std::move(Holder));
  Uniq.insert(Candidate);
  return Candidate;
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
const Type<L> *TypeContext<L>::getForAllType(std::vector<TypeParamDecl> Params,
                                             const Type<L> *Body)
  requires(!L::HasConcepts)
{
  assert(!Params.empty() && "forall must bind at least one parameter");
  assert(Body && "forall body type must be non-null");
  return intern(new ForAllType<L>(std::move(Params), {}, {}, Body));
}

template <class L>
const Type<L> *
TypeContext<L>::getForAllType(std::vector<TypeParamDecl> Params,
                              std::vector<ConceptRef<L>> Requirements,
                              std::vector<TypeEquation<L>> Equations,
                              const Type<L> *Body)
  requires L::HasConcepts
{
  assert(!Params.empty() && "forall must bind at least one parameter");
  assert(Body && "forall body type must be non-null");
  return intern(new ForAllType<L>(std::move(Params), std::move(Requirements),
                                  std::move(Equations), Body));
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
  if (Subst.empty())
    return T;
  if (const auto *P = dyn_cast<ParamType<L>>(T)) {
    auto It = Subst.find(P->getId());
    return It == Subst.end() ? T : It->second;
  }
  // Binder ids are globally unique; the substitution's domain can only
  // mention binders that have been opened, never this one.
  if (const auto *F = dyn_cast<ForAllType<L>>(T))
    for ([[maybe_unused]] const TypeParamDecl &P : F->getParams())
      assert(!Subst.count(P.Id) && "substitution would capture a binder");
  return mapChildren(*this, T,
                     [&](const Type<L> *C) { return substitute(C, Subst); });
}

template <class L>
void TypeContext<L>::collectFreeParams(
    const Type<L> *T, std::unordered_set<unsigned> &Out) const {
  if (const auto *P = dyn_cast<ParamType<L>>(T)) {
    Out.insert(P->getId());
    return;
  }
  // A forall's parameters are bound in its where clause and body only.
  const auto *F = dyn_cast<ForAllType<L>>(T);
  std::unordered_set<unsigned> Inner;
  allChildren(T, [&](const Type<L> *C) {
    collectFreeParams(C, F ? Inner : Out);
    return true;
  });
  if (!F)
    return;
  for (const TypeParamDecl &P : F->getParams())
    Inner.erase(P.Id);
  Out.insert(Inner.begin(), Inner.end());
}

template <class L>
void TypeContext<L>::collectConceptIds(const Type<L> *T,
                                       std::unordered_set<unsigned> &Out) const
  requires L::HasConcepts
{
  if (const auto *A = dyn_cast<AssocType<L>>(T))
    Out.insert(A->getConceptId());
  if (const auto *F = dyn_cast<ForAllType<L>>(T))
    for (const ConceptRef<L> &R : F->getRequirements())
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

template <class L>
void printType(std::ostream &OS, const Type<L> *T, bool Parens);

template <class L>
void printTypes(std::ostream &OS, const std::vector<const Type<L> *> &Ts,
                const char *Sep, bool Parens) {
  for (size_t I = 0; I != Ts.size(); ++I) {
    if (I)
      OS << Sep;
    printType(OS, Ts[I], Parens);
  }
}

template <class L>
void printConceptRef(std::ostream &OS, const ConceptRef<L> &R) {
  OS << R.ConceptName << '<';
  printTypes(OS, R.Args, ", ", /*Parens=*/false);
  OS << '>';
}

/// Prints \p T; with \p Parens, an arrow, list or forall is wrapped in
/// parentheses.
template <class L>
void printType(std::ostream &OS, const Type<L> *T, bool Parens) {
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
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType<L>>(T);
    OS << "fn(";
    printTypes(OS, A->getParams(), ", ", /*Parens=*/false);
    OS << ") -> ";
    printType(OS, A->getResult(), /*Parens=*/false);
    break;
  }
  case TypeKind::Tuple:
    OS << '(';
    printTypes(OS, cast<TupleType<L>>(T)->getElements(), " * ",
               /*Parens=*/true);
    OS << ')';
    break;
  case TypeKind::List:
    OS << "list ";
    printType(OS, cast<ListType<L>>(T)->getElement(), /*Parens=*/true);
    break;
  case TypeKind::Assoc: {
    const auto *A = cast<AssocType<L>>(T);
    OS << A->getConceptName() << '<';
    printTypes(OS, A->getArgs(), ", ", /*Parens=*/false);
    OS << ">." << A->getMember();
    break;
  }
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType<L>>(T);
    OS << "forall ";
    for (unsigned I = 0, E = F->getNumParams(); I != E; ++I)
      OS << (I ? ", " : "") << F->getParams()[I].Name;
    const char *Sep = " where ";
    for (const ConceptRef<L> &R : F->getRequirements()) {
      OS << Sep;
      printConceptRef(OS, R);
      Sep = ", ";
    }
    for (const TypeEquation<L> &E : F->getEquations()) {
      OS << Sep;
      printType(OS, E.Lhs, /*Parens=*/false);
      OS << " == ";
      printType(OS, E.Rhs, /*Parens=*/false);
      Sep = ", ";
    }
    OS << ". ";
    printType(OS, F->getBody(), /*Parens=*/false);
    break;
  }
  }
  if (Wrap)
    OS << ')';
}

} // namespace

template <class L> std::string types::typeToString(const Type<L> *T) {
  if (!T)
    return "<null-type>";
  std::ostringstream OS;
  printType(OS, T, /*Parens=*/false);
  return OS.str();
}

std::string types::conceptRefToString(const ConceptRef<FG> &R) {
  std::ostringstream OS;
  printConceptRef(OS, R);
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
