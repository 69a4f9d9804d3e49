//===- core/Type.h - F_G types ----------------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of F_G (paper Figures 4 and 11):
///
///   sigma, tau ::= t | fn(tau...) -> tau
///               | forall t... where c<sigma...>, sigma == sigma . tau
///               | c<tau...>.s                     (associated type)
///
/// plus int, bool, tuples, and the builtin list constructor.  The
/// `where` clause of a quantified type carries both concept requirements
/// and same-type constraints (section 5).
///
/// Concept occurrences in types reference the *concept id* assigned by
/// the parser when the concept declaration was resolved lexically; the
/// name is kept only for display.  This keeps hash-consing sound in the
/// presence of shadowed concept names.
///
/// As in the System F back end, all types are hash-consed and the
/// interner is alpha-aware: pointer equality is alpha-equivalence.
/// Semantic equality modulo same-type constraints is decided separately
/// by the congruence closure (core/Congruence.h).
///
/// allChildren and mapChildren, at the end of this file, name a type's
/// children and their order; the walks over types that recurse the same
/// way at every kind go through them.
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORE_TYPE_H
#define FG_CORE_TYPE_H

#include "support/Casting.h"
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fg {

class Type;
class TypeContext;

/// A quantified type parameter: globally unique id plus a display name.
struct TypeParamDecl {
  unsigned Id;
  std::string Name;

  friend bool operator==(const TypeParamDecl &A, const TypeParamDecl &B) {
    return A.Id == B.Id;
  }
};

/// A reference to a concept applied to type arguments, e.g. Monoid<t>.
/// Appears in where clauses and refinement lists.
struct ConceptRef {
  unsigned ConceptId = 0;
  std::string ConceptName;
  std::vector<const Type *> Args;
};

/// A same-type constraint sigma == tau (paper section 5).
struct TypeEquation {
  const Type *Lhs = nullptr;
  const Type *Rhs = nullptr;
};

/// Discriminator for the Type hierarchy.
enum class TypeKind : uint8_t {
  Int,
  Bool,
  Param,
  Arrow,
  Tuple,
  List,
  ForAll,
  Assoc,
};

/// Base class of all F_G types; instances are immutable and interned.
class Type {
public:
  TypeKind getKind() const { return Kind; }

  /// The hash the TypeContext stored when it interned this node, made
  /// from the node's own fields and its children's stored hashes:
  /// parameters hash by id, and a forall hashes as its
  /// getBinderBlindHash(), so alpha-equivalent types hash alike.
  size_t getHash() const { return Hash; }

  /// Like getHash(), except that every parameter, bound or free,
  /// hashes alike.
  size_t getBinderBlindHash() const { return BlindHash; }

  Type(const Type &) = delete;
  Type &operator=(const Type &) = delete;
  virtual ~Type() = default;

protected:
  explicit Type(TypeKind K) : Kind(K) {}

private:
  friend class TypeContext;
  TypeKind Kind;
  size_t Hash = 0;
  size_t BlindHash = 0;
};

class IntType : public Type {
public:
  static bool classof(const Type *T) { return T->getKind() == TypeKind::Int; }

private:
  friend class TypeContext;
  IntType() : Type(TypeKind::Int) {}
};

class BoolType : public Type {
public:
  static bool classof(const Type *T) { return T->getKind() == TypeKind::Bool; }

private:
  friend class TypeContext;
  BoolType() : Type(TypeKind::Bool) {}
};

/// A reference to a type parameter (a type variable).
class ParamType : public Type {
public:
  unsigned getId() const { return Id; }
  const std::string &getName() const { return Name; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Param;
  }

private:
  friend class TypeContext;
  ParamType(unsigned Id, std::string Name)
      : Type(TypeKind::Param), Id(Id), Name(std::move(Name)) {}

  unsigned Id;
  std::string Name;
};

/// fn(tau...) -> tau.
class ArrowType : public Type {
public:
  const std::vector<const Type *> &getParams() const { return Params; }
  const Type *getResult() const { return Result; }
  unsigned getNumParams() const { return Params.size(); }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Arrow;
  }

private:
  friend class TypeContext;
  ArrowType(std::vector<const Type *> Params, const Type *Result)
      : Type(TypeKind::Arrow), Params(std::move(Params)), Result(Result) {}

  std::vector<const Type *> Params;
  const Type *Result;
};

/// tau1 * ... * taun.
class TupleType : public Type {
public:
  const std::vector<const Type *> &getElements() const { return Elements; }
  unsigned getNumElements() const { return Elements.size(); }
  const Type *getElement(unsigned I) const { return Elements[I]; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Tuple;
  }

private:
  friend class TypeContext;
  explicit TupleType(std::vector<const Type *> Elements)
      : Type(TypeKind::Tuple), Elements(std::move(Elements)) {}

  std::vector<const Type *> Elements;
};

/// list tau.
class ListType : public Type {
public:
  const Type *getElement() const { return Element; }

  static bool classof(const Type *T) { return T->getKind() == TypeKind::List; }

private:
  friend class TypeContext;
  explicit ListType(const Type *Element)
      : Type(TypeKind::List), Element(Element) {}

  const Type *Element;
};

/// forall t... where c<sigma...>, sigma == sigma . tau
///
/// The requirement list and equation list together form the paper's
/// where clause.  Requirements are processed in order, so later ones may
/// mention associated types introduced by earlier ones (section 5.2).
class ForAllType : public Type {
public:
  const std::vector<TypeParamDecl> &getParams() const { return Params; }
  unsigned getNumParams() const { return Params.size(); }
  const std::vector<ConceptRef> &getRequirements() const {
    return Requirements;
  }
  const std::vector<TypeEquation> &getEquations() const { return Equations; }
  const Type *getBody() const { return Body; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::ForAll;
  }

private:
  friend class TypeContext;
  ForAllType(std::vector<TypeParamDecl> Params,
             std::vector<ConceptRef> Requirements,
             std::vector<TypeEquation> Equations, const Type *Body)
      : Type(TypeKind::ForAll), Params(std::move(Params)),
        Requirements(std::move(Requirements)),
        Equations(std::move(Equations)), Body(Body) {}

  std::vector<TypeParamDecl> Params;
  std::vector<ConceptRef> Requirements;
  std::vector<TypeEquation> Equations;
  const Type *Body;
};

/// An associated-type reference c<tau...>.s, e.g. Iterator<Iter>.elt.
class AssocType : public Type {
public:
  unsigned getConceptId() const { return ConceptId; }
  const std::string &getConceptName() const { return ConceptName; }
  const std::vector<const Type *> &getArgs() const { return Args; }
  const std::string &getMember() const { return Member; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::Assoc;
  }

private:
  friend class TypeContext;
  AssocType(unsigned ConceptId, std::string ConceptName,
            std::vector<const Type *> Args, std::string Member)
      : Type(TypeKind::Assoc), ConceptId(ConceptId),
        ConceptName(std::move(ConceptName)), Args(std::move(Args)),
        Member(std::move(Member)) {}

  unsigned ConceptId;
  std::string ConceptName;
  std::vector<const Type *> Args;
  std::string Member;
};

/// Map from type parameter ids to replacement types.
using TypeSubst = std::unordered_map<unsigned, const Type *>;

/// Owns and hash-conses all F_G types.
class TypeContext {
public:
  TypeContext();
  ~TypeContext();

  const Type *getIntType() const { return IntTy; }
  const Type *getBoolType() const { return BoolTy; }
  const Type *getParamType(unsigned Id, const std::string &Name);
  const Type *getArrowType(std::vector<const Type *> Params,
                           const Type *Result);
  const Type *getTupleType(std::vector<const Type *> Elements);
  const Type *getListType(const Type *Element);
  const Type *getForAllType(std::vector<TypeParamDecl> Params,
                            std::vector<ConceptRef> Requirements,
                            std::vector<TypeEquation> Equations,
                            const Type *Body);
  const Type *getAssocType(unsigned ConceptId, const std::string &ConceptName,
                           std::vector<const Type *> Args,
                           const std::string &Member);

  /// Returns a fresh, never-before-used type parameter id.
  unsigned freshParamId() { return NextParamId++; }

  /// Returns a fresh concept id; the parser assigns one per concept
  /// declaration so that shadowed concept names stay distinct.
  unsigned freshConceptId() { return NextConceptId++; }

  /// Returns a fresh parameter type with a new id, named \p Name.
  const Type *freshParam(const std::string &Name) {
    return getParamType(freshParamId(), Name);
  }

  /// Capture-avoiding substitution of parameter ids for types (binder
  /// ids are globally unique; see systemf/Type.h for the argument).
  const Type *substitute(const Type *T, const TypeSubst &Subst);

  /// Applies \p Subst to every type in a ConceptRef.
  ConceptRef substitute(const ConceptRef &R, const TypeSubst &Subst);

  /// Applies \p Subst to both sides of \p E.
  TypeEquation substitute(const TypeEquation &E, const TypeSubst &Subst);

  /// Collects the free parameter ids of \p T into \p Out.
  void collectFreeParams(const Type *T,
                         std::unordered_set<unsigned> &Out) const;

  /// Collects all concept ids occurring anywhere in \p T (the paper's
  /// CV function; used for the concept-escape check in rule CPT).
  void collectConceptIds(const Type *T,
                         std::unordered_set<unsigned> &Out) const;

private:
  const Type *intern(Type *Candidate);

  struct Hash {
    size_t operator()(const Type *T) const;
  };
  struct AlphaEq {
    bool operator()(const Type *A, const Type *B) const;
  };

  const Type *IntTy;
  const Type *BoolTy;
  std::unordered_set<const Type *, Hash, AlphaEq> Uniq;
  std::deque<std::unique_ptr<Type>> Owned;
  unsigned NextParamId = 0;
  unsigned NextConceptId = 0;
};

/// Calls \p Fn on each child type of \p T in one fixed order — the
/// Arrow parameters, then its result; the Tuple elements; the List
/// element; the Assoc arguments; the ForAll requirement arguments, then
/// each equation's left and right side, then the body — and stops at
/// the first call that returns false.  Returns false exactly when some
/// call did.  Binders are the caller's business: the callback sees a
/// forall's where clause and body without its parameters bound.
template <typename FnT> bool allChildren(const Type *T, FnT &&Fn) {
  auto All = [&](const std::vector<const Type *> &Children) {
    for (const Type *C : Children)
      if (!Fn(C))
        return false;
    return true;
  };
  switch (T->getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Param:
    return true;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    return All(A->getParams()) && Fn(A->getResult());
  }
  case TypeKind::Tuple:
    return All(cast<TupleType>(T)->getElements());
  case TypeKind::List:
    return Fn(cast<ListType>(T)->getElement());
  case TypeKind::Assoc:
    return All(cast<AssocType>(T)->getArgs());
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    for (const ConceptRef &R : F->getRequirements())
      if (!All(R.Args))
        return false;
    for (const TypeEquation &E : F->getEquations())
      if (!Fn(E.Lhs) || !Fn(E.Rhs))
        return false;
    return Fn(F->getBody());
  }
  }
  return true;
}

/// Rebuilds \p T with each child type C replaced by Fn(C), calling
/// \p Fn in allChildren's order.  Returns \p T itself when every call
/// returned its argument; otherwise the node of \p T's kind that
/// \p Ctx's factory interns for the new children, with the forall
/// parameters, concept ids and names and member name copied.
template <typename FnT>
const Type *mapChildren(TypeContext &Ctx, const Type *T, FnT &&Fn) {
  bool Changed = false;
  auto One = [&](const Type *C) {
    const Type *New = Fn(C);
    Changed |= New != C;
    return New;
  };
  auto All = [&](const std::vector<const Type *> &Children) {
    std::vector<const Type *> New;
    New.reserve(Children.size());
    for (const Type *C : Children)
      New.push_back(One(C));
    return New;
  };
  switch (T->getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Param:
    return T;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    std::vector<const Type *> Params = All(A->getParams());
    const Type *Result = One(A->getResult());
    return Changed ? Ctx.getArrowType(std::move(Params), Result) : T;
  }
  case TypeKind::Tuple: {
    std::vector<const Type *> Elems = All(cast<TupleType>(T)->getElements());
    return Changed ? Ctx.getTupleType(std::move(Elems)) : T;
  }
  case TypeKind::List: {
    const Type *Elem = One(cast<ListType>(T)->getElement());
    return Changed ? Ctx.getListType(Elem) : T;
  }
  case TypeKind::Assoc: {
    const auto *A = cast<AssocType>(T);
    std::vector<const Type *> Args = All(A->getArgs());
    return Changed ? Ctx.getAssocType(A->getConceptId(), A->getConceptName(),
                                      std::move(Args), A->getMember())
                   : T;
  }
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    std::vector<ConceptRef> Reqs;
    Reqs.reserve(F->getRequirements().size());
    for (const ConceptRef &R : F->getRequirements())
      Reqs.push_back({R.ConceptId, R.ConceptName, All(R.Args)});
    std::vector<TypeEquation> Eqs;
    Eqs.reserve(F->getEquations().size());
    for (const TypeEquation &E : F->getEquations())
      Eqs.push_back({One(E.Lhs), One(E.Rhs)});
    const Type *Body = One(F->getBody());
    return Changed ? Ctx.getForAllType(F->getParams(), std::move(Reqs),
                                       std::move(Eqs), Body)
                   : T;
  }
  }
  return T;
}

/// Renders a type in the paper's concrete syntax.
std::string typeToString(const Type *T);

/// Renders a concept requirement, e.g. "Monoid<t>".
std::string conceptRefToString(const ConceptRef &R);

} // namespace fg

#endif // FG_CORE_TYPE_H
