//===- systemf/Type.h - System F types --------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types of System F, the translation target of F_G (paper Figure 2):
///
///   sigma, tau ::= t | fn(tau...) -> tau | tau x ... x tau | forall t. tau
///
/// extended with the base types int and bool and the builtin `list`
/// constructor, which the paper's example programs use freely (Figure 3).
///
/// All types are hash-consed by a TypeContext.  Quantified types bind
/// parameters with globally unique ids, and the interner compares and
/// hashes modulo alpha-equivalence, so *pointer equality coincides with
/// alpha-equivalence* everywhere in the compiler.
///
/// allChildren and mapChildren, at the end of this file, name a type's
/// children and their order; the walks over types that recurse the same
/// way at every kind go through them.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_TYPE_H
#define FG_SYSTEMF_TYPE_H

#include "support/Casting.h"
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fg {
namespace sf {

class TypeContext;

/// Discriminator for the Type hierarchy.
enum class TypeKind : uint8_t {
  Int,
  Bool,
  Param,
  Arrow,
  Tuple,
  List,
  ForAll,
};

/// A quantified type parameter: globally unique id plus a display name.
struct TypeParamDecl {
  unsigned Id;
  std::string Name;

  friend bool operator==(const TypeParamDecl &A, const TypeParamDecl &B) {
    return A.Id == B.Id;
  }
};

/// Base class of all System F types.  Instances are immutable and owned
/// by a TypeContext; never allocate one directly.
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

/// The base type of machine integers.
class IntType : public Type {
public:
  static bool classof(const Type *T) { return T->getKind() == TypeKind::Int; }

private:
  friend class TypeContext;
  IntType() : Type(TypeKind::Int) {}
};

/// The base type of booleans.
class BoolType : public Type {
public:
  static bool classof(const Type *T) { return T->getKind() == TypeKind::Bool; }

private:
  friend class TypeContext;
  BoolType() : Type(TypeKind::Bool) {}
};

/// A reference to a quantified type parameter.
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

/// A (possibly multi-parameter) function type fn(tau...) -> tau.
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

/// A tuple type tau1 x ... x taun.  Dictionaries are tuples (Figure 7).
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

/// The builtin homogeneous list constructor `list tau`.
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

/// A universally quantified type: forall t... . tau.
class ForAllType : public Type {
public:
  const std::vector<TypeParamDecl> &getParams() const { return Params; }
  unsigned getNumParams() const { return Params.size(); }
  const Type *getBody() const { return Body; }

  static bool classof(const Type *T) {
    return T->getKind() == TypeKind::ForAll;
  }

private:
  friend class TypeContext;
  ForAllType(std::vector<TypeParamDecl> Params, const Type *Body)
      : Type(TypeKind::ForAll), Params(std::move(Params)), Body(Body) {}

  std::vector<TypeParamDecl> Params;
  const Type *Body;
};

/// Map from type parameter ids to replacement types.
using TypeSubst = std::unordered_map<unsigned, const Type *>;

/// Owns and hash-conses all types.  Pointer equality on the returned
/// nodes is alpha-equivalence.
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
                            const Type *Body);

  /// Returns a fresh, never-before-used type parameter id.
  unsigned freshParamId() { return NextParamId++; }

  /// Returns a fresh parameter type with a new id, named \p Name.
  const Type *freshParam(const std::string &Name) {
    return getParamType(freshParamId(), Name);
  }

  /// Capture-avoiding substitution of parameter ids for types.
  /// Binder ids are globally unique and checker-opened binders are always
  /// fresh, so no renaming is ever required; this is asserted.
  const Type *substitute(const Type *T, const TypeSubst &Subst);

  /// Collects the free parameter ids of \p T into \p Out.
  void collectFreeParams(const Type *T,
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
};

/// Calls \p Fn on each child type of \p T in one fixed order — the
/// Arrow parameters, then its result; the Tuple elements; the List
/// element; the ForAll body — and stops at the first call that returns
/// false.  Returns false exactly when some call did.  Binders are the
/// caller's business: the callback sees a forall's body without its
/// parameters bound.
template <typename FnT> bool allChildren(const Type *T, FnT &&Fn) {
  switch (T->getKind()) {
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Param:
    return true;
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    for (const Type *P : A->getParams())
      if (!Fn(P))
        return false;
    return Fn(A->getResult());
  }
  case TypeKind::Tuple:
    for (const Type *E : cast<TupleType>(T)->getElements())
      if (!Fn(E))
        return false;
    return true;
  case TypeKind::List:
    return Fn(cast<ListType>(T)->getElement());
  case TypeKind::ForAll:
    return Fn(cast<ForAllType>(T)->getBody());
  }
  return true;
}

/// Rebuilds \p T with each child type C replaced by Fn(C), calling
/// \p Fn in allChildren's order.  Returns \p T itself when every call
/// returned its argument; otherwise the node of \p T's kind that
/// \p Ctx's factory interns for the new children, with a forall's
/// parameters copied.
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
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    const Type *Body = One(F->getBody());
    return Changed ? Ctx.getForAllType(F->getParams(), Body) : T;
  }
  }
  return T;
}

/// Renders \p T in the paper's concrete syntax, e.g.
/// "forall t. fn(list t, fn(t, t) -> t, t) -> t".
std::string typeToString(const Type *T);

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_TYPE_H
