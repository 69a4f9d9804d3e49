//===- types/Type.h - The types of F_G and System F -------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one type language of the compiler.  System F, the translation
/// target of F_G (paper Figure 2), has
///
///   sigma, tau ::= t | fn(tau...) -> tau | forall t... . tau
///
/// and F_G (Figures 4 and 11) adds where clauses, with concept
/// requirements and same-type constraints (section 5), and associated
/// types:
///
///   sigma, tau ::= ... | forall t... where c<sigma...>, sigma == sigma . tau
///               | c<tau...>.s
///
/// Both have int, bool, tuples and the builtin `list` constructor, which
/// the paper's example programs use freely (Figure 3).
///
/// Each class here is a template over a language tag, SystemF or FG, and
/// types/Type.cpp compiles both instantiations once; systemf/Type.h and
/// core/Type.h name them (sf::ForAllType, fg::ArrowType, ...).  The two
/// languages' nodes are distinct C++ types, so neither can be passed for
/// the other, and only TypeContext<FG> builds where clauses and
/// associated types: a System F forall's where clause is always empty.
///
/// A TypeContext hash-conses every type.  Free parameters have globally
/// unique ids, and a forall stores its where clause and body *locally
/// nameless*, with de Bruijn indices for its own parameters.  So every
/// node interns by its kind, own fields and child pointers, and *pointer
/// equality coincides with alpha-equivalence* everywhere in the compiler.
/// TypeContext::open shows a forall's parts with parameters in them.
///
/// allChildren and mapChildren, at the end of this file, name a type's
/// children and their order; the walks over types that recurse the same
/// way at every kind go through them.
///
//===----------------------------------------------------------------------===//

#ifndef FG_TYPES_TYPE_H
#define FG_TYPES_TYPE_H

#include "support/Casting.h"
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fg {
namespace types {

/// The language tags.
struct SystemF {
  static constexpr bool HasConcepts = false;
};
struct FG {
  static constexpr bool HasConcepts = true;
};

template <class L> class Type;
template <class L> class TypeContext;

/// A quantified type parameter: globally unique id plus a display name.
struct TypeParamDecl {
  unsigned Id;
  std::string Name;
};

/// A reference to a concept applied to type arguments, e.g. Monoid<t>,
/// in a where clause or a refinement list.  The concept is named by the
/// id the parser assigned when it resolved the declaration lexically;
/// the name is kept only for display, so shadowed concept names stay
/// distinct under hash-consing.
template <class L> struct ConceptRef {
  unsigned ConceptId = 0;
  std::string ConceptName;
  std::vector<const Type<L> *> Args;

  friend bool operator==(const ConceptRef &A, const ConceptRef &B) {
    return A.ConceptId == B.ConceptId && A.Args == B.Args;
  }
};

/// A same-type constraint sigma == tau (paper section 5).
template <class L> struct TypeEquation {
  const Type<L> *Lhs = nullptr;
  const Type<L> *Rhs = nullptr;

  friend bool operator==(const TypeEquation &, const TypeEquation &) = default;
};

/// A forall's where clause and body: stored with indices for its
/// parameters, and returned by TypeContext::open with types in their
/// place.  System F's where clause is empty.
template <class L> struct ForAllParts {
  std::vector<ConceptRef<L>> Requirements;
  std::vector<TypeEquation<L>> Equations;
  const Type<L> *Body = nullptr;

  friend bool operator==(const ForAllParts &, const ForAllParts &) = default;
};

/// Discriminator for the Type hierarchy.  Only F_G has Assoc nodes.
enum class TypeKind : uint8_t {
  Int,
  Bool,
  Param,
  Bound,
  Arrow,
  Tuple,
  List,
  ForAll,
  Assoc,
};

/// Base class of all types.  Instances are immutable and owned by a
/// TypeContext; never allocate one directly.
template <class L> class Type {
public:
  TypeKind getKind() const { return Kind; }

  /// One more than the largest index in this node that no forall in it
  /// binds; 0 everywhere but inside a forall's stored parts.
  unsigned getLooseBound() const { return LooseBound; }

  /// False when no parameter with an id in [Lo, Hi] is free in this node.
  bool mayMention(unsigned Lo, unsigned Hi) const {
    return MinFree <= Hi && Lo <= MaxFree;
  }
  /// True when some parameter is free in this node.
  bool hasFree() const { return MinFree <= MaxFree; }

  Type(const Type &) = delete;
  Type &operator=(const Type &) = delete;
  virtual ~Type() = default;

protected:
  explicit Type(TypeKind K) : Kind(K) {}

private:
  friend class TypeContext<L>;
  TypeKind Kind;
  // Hash covers the kind, own fields and children's hashes.  The two
  // summaries fill the padding after Kind and the word after Hash.
  unsigned LooseBound = 0;
  size_t Hash = 0;
  unsigned MinFree = ~0u, MaxFree = 0;
};

/// The base of each node kind \p K: what isa, cast and dyn_cast test.
template <class L, TypeKind K> class TypeNode : public Type<L> {
public:
  static bool classof(const Type<L> *T) { return T->getKind() == K; }

protected:
  TypeNode() : Type<L>(K) {}
};

/// The base type of machine integers.
template <class L> class IntType : public TypeNode<L, TypeKind::Int> {
  friend class TypeContext<L>;
  IntType() = default;
};

/// The base type of booleans.
template <class L> class BoolType : public TypeNode<L, TypeKind::Bool> {
  friend class TypeContext<L>;
  BoolType() = default;
};

/// A reference to a type parameter (a type variable).
template <class L> class ParamType : public TypeNode<L, TypeKind::Param> {
public:
  unsigned getId() const { return Id; }
  const std::string &getName() const { return Name; }

private:
  friend class TypeContext<L>;
  ParamType(unsigned Id, std::string Name) : Id(Id), Name(std::move(Name)) {}

  unsigned Id;
  std::string Name;
};

/// A de Bruijn index in a forall's stored parts: parameter I of the
/// forall is index D + I, D the parameter count of the foralls between.
template <class L> class BoundType : public TypeNode<L, TypeKind::Bound> {
public:
  unsigned getIndex() const { return Index; }

private:
  friend class TypeContext<L>;
  explicit BoundType(unsigned Index) : Index(Index) {}

  unsigned Index;
};

/// A (possibly multi-parameter) function type fn(tau...) -> tau.
template <class L> class ArrowType : public TypeNode<L, TypeKind::Arrow> {
public:
  const std::vector<const Type<L> *> &getParams() const { return Params; }
  const Type<L> *getResult() const { return Result; }
  unsigned getNumParams() const { return Params.size(); }

private:
  friend class TypeContext<L>;
  ArrowType(std::vector<const Type<L> *> Params, const Type<L> *Result)
      : Params(std::move(Params)), Result(Result) {}

  std::vector<const Type<L> *> Params;
  const Type<L> *Result;
};

/// A tuple type tau1 * ... * taun.  Dictionaries are tuples (Figure 7).
template <class L> class TupleType : public TypeNode<L, TypeKind::Tuple> {
public:
  const std::vector<const Type<L> *> &getElements() const {
    return Elements;
  }
  unsigned getNumElements() const { return Elements.size(); }
  const Type<L> *getElement(unsigned I) const { return Elements[I]; }

private:
  friend class TypeContext<L>;
  explicit TupleType(std::vector<const Type<L> *> Elements)
      : Elements(std::move(Elements)) {}

  std::vector<const Type<L> *> Elements;
};

/// The builtin homogeneous list constructor `list tau`.
template <class L> class ListType : public TypeNode<L, TypeKind::List> {
public:
  const Type<L> *getElement() const { return Element; }

private:
  friend class TypeContext<L>;
  explicit ListType(const Type<L> *Element) : Element(Element) {}

  const Type<L> *Element;
};

/// forall t... where c<sigma...>, sigma == sigma . tau
///
/// The requirement list and equation list together form the paper's
/// where clause.  Requirements are processed in order, so later ones may
/// mention associated types introduced by earlier ones (section 5.2).
/// The parameters keep only their names, for printing.
template <class L> class ForAllType : public TypeNode<L, TypeKind::ForAll> {
public:
  const std::vector<std::string> &getParamNames() const { return Names; }
  unsigned getNumParams() const { return Names.size(); }
  /// The where clause and body as stored, with indices.
  const ForAllParts<L> &getParts() const { return Parts; }

private:
  friend class TypeContext<L>;
  ForAllType(std::vector<std::string> Names, ForAllParts<L> Parts)
      : Names(std::move(Names)), Parts(std::move(Parts)) {}

  std::vector<std::string> Names;
  ForAllParts<L> Parts;
};

/// An associated-type reference c<tau...>.s, e.g. Iterator<Iter>.elt.
template <class L> class AssocType : public TypeNode<L, TypeKind::Assoc> {
public:
  unsigned getConceptId() const { return ConceptId; }
  const std::string &getConceptName() const { return ConceptName; }
  const std::vector<const Type<L> *> &getArgs() const { return Args; }
  const std::string &getMember() const { return Member; }

private:
  friend class TypeContext<L>;
  AssocType(unsigned ConceptId, std::string ConceptName,
            std::vector<const Type<L> *> Args, std::string Member)
      : ConceptId(ConceptId), ConceptName(std::move(ConceptName)),
        Args(std::move(Args)), Member(std::move(Member)) {}

  unsigned ConceptId;
  std::string ConceptName;
  std::vector<const Type<L> *> Args;
  std::string Member;
};

/// Map from type parameter ids to replacement types.
template <class L>
using TypeSubst = std::unordered_map<unsigned, const Type<L> *>;

/// Owns and hash-conses all types of one language.  Pointer equality on
/// the returned nodes is alpha-equivalence.
template <class L> class TypeContext {
public:
  TypeContext();
  ~TypeContext();

  const Type<L> *getIntType() const { return IntTy; }
  const Type<L> *getBoolType() const { return BoolTy; }
  const Type<L> *getParamType(unsigned Id, const std::string &Name);
  const Type<L> *getArrowType(std::vector<const Type<L> *> Params,
                              const Type<L> *Result);
  const Type<L> *getTupleType(std::vector<const Type<L> *> Elements);
  const Type<L> *getListType(const Type<L> *Element);
  /// The forall over \p Params, closed over them: each Params[I] in the
  /// where clause and body becomes index I.
  const Type<L> *getForAllType(std::vector<TypeParamDecl> Params,
                               const Type<L> *Body)
    requires(!L::HasConcepts)
  {
    return close(Params, {{}, {}, Body});
  }
  const Type<L> *getForAllType(std::vector<TypeParamDecl> Params,
                               std::vector<ConceptRef<L>> Requirements,
                               std::vector<TypeEquation<L>> Equations,
                               const Type<L> *Body)
    requires L::HasConcepts
  {
    return close(Params, {std::move(Requirements), std::move(Equations), Body});
  }
  /// An index, and a forall over parts with indices already: for code
  /// that reads or rebuilds stored forms.
  const Type<L> *getBoundType(unsigned Index) {
    return intern(new BoundType<L>(Index));
  }
  const Type<L> *getNamelessForAllType(std::vector<std::string> Names,
                                       ForAllParts<L> Parts) {
    assert(!Names.empty() && Parts.Body && "a forall binds and has a body");
    return intern(new ForAllType<L>(std::move(Names), std::move(Parts)));
  }
  const Type<L> *getAssocType(unsigned ConceptId,
                              const std::string &ConceptName,
                              std::vector<const Type<L> *> Args,
                              const std::string &Member)
    requires L::HasConcepts;

  /// Returns a fresh, never-before-used type parameter id.
  unsigned freshParamId() { return NextParamId++; }

  /// Returns a fresh concept id; the parser assigns one per concept
  /// declaration so that shadowed concept names stay distinct.
  unsigned freshConceptId()
    requires L::HasConcepts
  {
    return NextConceptId++;
  }

  /// Returns a fresh parameter type with a new id, named \p Name.
  const Type<L> *freshParam(const std::string &Name) {
    return getParamType(freshParamId(), Name);
  }

  /// \p F's parts with Args[I] for parameter I: the type arguments to
  /// instantiate \p F, or fresh parameters to enter it.
  ForAllParts<L> open(const ForAllType<L> *F,
                      const std::vector<const Type<L> *> &Args);

  /// Substitution of types for free parameter ids.  Bound parameters
  /// are indices, which no substitution names, and a replacement has no
  /// loose indices, so nothing is captured.
  /// Counts each call, in either language, under `types.substitutions`.
  const Type<L> *substitute(const Type<L> *T, const TypeSubst<L> &Subst);

  /// Applies \p Subst to every type in a ConceptRef.
  ConceptRef<L> substitute(const ConceptRef<L> &R, const TypeSubst<L> &Subst)
    requires L::HasConcepts;

  /// Applies \p Subst to both sides of \p E.
  TypeEquation<L> substitute(const TypeEquation<L> &E,
                             const TypeSubst<L> &Subst)
    requires L::HasConcepts;

  /// Collects the free parameter ids of \p T into \p Out.
  void collectFreeParams(const Type<L> *T,
                         std::unordered_set<unsigned> &Out) const;

  /// Collects all concept ids occurring anywhere in \p T (the paper's
  /// CV function; used for the concept-escape check in rule CPT).
  void collectConceptIds(const Type<L> *T,
                         std::unordered_set<unsigned> &Out) const
    requires L::HasConcepts;

private:
  const Type<L> *intern(Type<L> *Candidate);
  const Type<L> *close(const std::vector<TypeParamDecl> &Params,
                       ForAllParts<L> Parts);

  struct Hash {
    size_t operator()(const Type<L> *T) const { return T->Hash; }
  };
  /// Equal exactly when kind, own fields and child pointers are.
  struct SameNode {
    bool operator()(const Type<L> *A, const Type<L> *B) const;
  };

  const Type<L> *IntTy;
  const Type<L> *BoolTy;
  std::unordered_set<const Type<L> *, Hash, SameNode> Uniq;
  std::deque<std::unique_ptr<Type<L>>> Owned;
  unsigned NextParamId = 0;
  unsigned NextConceptId = 0;
};

extern template class TypeContext<SystemF>;
extern template class TypeContext<FG>;

/// Calls \p Fn on each child type of \p T in one fixed order — the
/// Arrow parameters, then its result; the Tuple elements; the List
/// element; the Assoc arguments; the ForAll requirement arguments, then
/// each equation's left and right side, then the body — and stops at
/// the first call that returns false.  Returns false exactly when some
/// call did.  The callback sees a forall's where clause and body as
/// stored, with indices for its parameters.
template <class L, typename FnT>
bool allChildren(const Type<L> *T, FnT &&Fn) {
  auto All = [&](const std::vector<const Type<L> *> &Children) {
    for (const Type<L> *C : Children)
      if (!Fn(C))
        return false;
    return true;
  };
  switch (T->getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Param:
  case TypeKind::Bound:
    return true;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType<L>>(T);
    return All(A->getParams()) && Fn(A->getResult());
  }
  case TypeKind::Tuple:
    return All(cast<TupleType<L>>(T)->getElements());
  case TypeKind::List:
    return Fn(cast<ListType<L>>(T)->getElement());
  case TypeKind::Assoc:
    return All(cast<AssocType<L>>(T)->getArgs());
  case TypeKind::ForAll: {
    const ForAllParts<L> &P = cast<ForAllType<L>>(T)->getParts();
    for (const ConceptRef<L> &R : P.Requirements)
      if (!All(R.Args))
        return false;
    for (const TypeEquation<L> &E : P.Equations)
      if (!Fn(E.Lhs) || !Fn(E.Rhs))
        return false;
    return Fn(P.Body);
  }
  }
  return true;
}

/// \p Parts with each type T in them replaced by Fn(T), called in
/// allChildren's order.
template <class L, typename FnT>
ForAllParts<L> mapParts(ForAllParts<L> Parts, FnT &&Fn) {
  for (ConceptRef<L> &R : Parts.Requirements)
    for (const Type<L> *&A : R.Args)
      A = Fn(A);
  for (TypeEquation<L> &E : Parts.Equations)
    E = {Fn(E.Lhs), Fn(E.Rhs)};
  Parts.Body = Fn(Parts.Body);
  return Parts;
}

/// Rebuilds \p T with each child type C replaced by Fn(C), calling
/// \p Fn in allChildren's order.  Returns \p T itself when every call
/// returned its argument; otherwise the node of \p T's kind that
/// \p Ctx's factory interns for the new children, with the forall
/// parameter names, concept ids and names and member name copied.  A
/// forall's children are rebuilt as stored, with indices.
template <class L, typename FnT>
const Type<L> *mapChildren(TypeContext<L> &Ctx, const Type<L> *T,
                           FnT &&Fn) {
  bool Changed = false;
  auto One = [&](const Type<L> *C) {
    const Type<L> *New = Fn(C);
    Changed |= New != C;
    return New;
  };
  auto All = [&](const std::vector<const Type<L> *> &Children) {
    std::vector<const Type<L> *> New;
    New.reserve(Children.size());
    for (const Type<L> *C : Children)
      New.push_back(One(C));
    return New;
  };
  switch (T->getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Param:
  case TypeKind::Bound:
    return T;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType<L>>(T);
    std::vector<const Type<L> *> Params = All(A->getParams());
    const Type<L> *Result = One(A->getResult());
    return Changed ? Ctx.getArrowType(std::move(Params), Result) : T;
  }
  case TypeKind::Tuple: {
    std::vector<const Type<L> *> Elems =
        All(cast<TupleType<L>>(T)->getElements());
    return Changed ? Ctx.getTupleType(std::move(Elems)) : T;
  }
  case TypeKind::List: {
    const Type<L> *Elem = One(cast<ListType<L>>(T)->getElement());
    return Changed ? Ctx.getListType(Elem) : T;
  }
  case TypeKind::Assoc: {
    if constexpr (L::HasConcepts) {
      const auto *A = cast<AssocType<L>>(T);
      std::vector<const Type<L> *> Args = All(A->getArgs());
      return Changed ? Ctx.getAssocType(A->getConceptId(),
                                        A->getConceptName(), std::move(Args),
                                        A->getMember())
                     : T;
    }
    return T;
  }
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType<L>>(T);
    ForAllParts<L> Parts = mapParts(F->getParts(), One);
    return Changed ? Ctx.getNamelessForAllType(F->getParamNames(),
                                               std::move(Parts))
                   : T;
  }
  }
  return T;
}

/// Renders \p T in the paper's concrete syntax, e.g.
/// "forall t. fn(list t, fn(t, t) -> t, t) -> t".
template <class L> std::string typeToString(const Type<L> *T);

extern template std::string typeToString(const Type<SystemF> *T);
extern template std::string typeToString(const Type<FG> *T);

/// Renders a concept requirement, e.g. "Monoid<t>".
std::string conceptRefToString(const ConceptRef<FG> &R);

} // namespace types
} // namespace fg

#endif // FG_TYPES_TYPE_H
