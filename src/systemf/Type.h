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

  Type(const Type &) = delete;
  Type &operator=(const Type &) = delete;
  virtual ~Type() = default;

protected:
  explicit Type(TypeKind K) : Kind(K) {}

private:
  friend class TypeContext;
  TypeKind Kind;
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

/// Renders \p T in the paper's concrete syntax, e.g.
/// "forall t. fn(list t, fn(t, t) -> t, t) -> t".
std::string typeToString(const Type *T);

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_TYPE_H
