//===- systemf/Term.h - System F terms --------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Terms of System F (paper Figure 2):
///
///   f ::= x | f(f...) | \y:tau. f | /\t. f | f[tau...]
///       | let x = f in f | (f, ..., f) | nth f n
///
/// extended with integer/boolean literals, `if`, and `fix` which the
/// paper's examples use (Figure 3 writes the higher-order `sum` with a
/// fixpoint).  Terms are plain immutable trees owned by a TermArena.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_TERM_H
#define FG_SYSTEMF_TERM_H

#include "support/Casting.h"
#include "systemf/Type.h"
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace fg {
namespace sf {

/// Discriminator for the Term hierarchy.
enum class TermKind : uint8_t {
  IntLit,
  BoolLit,
  Var,
  Abs,
  App,
  TyAbs,
  TyApp,
  Let,
  Tuple,
  Nth,
  If,
  Fix,
};

/// Base class of all System F terms.
class Term {
public:
  TermKind getKind() const { return Kind; }

  Term(const Term &) = delete;
  Term &operator=(const Term &) = delete;
  virtual ~Term() = default;

protected:
  explicit Term(TermKind K) : Kind(K) {}

private:
  friend class TermArena;
  TermKind Kind;
};

/// An integer literal.
class IntLit : public Term {
public:
  int64_t getValue() const { return Value; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::IntLit; }

private:
  friend class TermArena;
  explicit IntLit(int64_t Value) : Term(TermKind::IntLit), Value(Value) {}
  int64_t Value;
};

/// A boolean literal.
class BoolLit : public Term {
public:
  bool getValue() const { return Value; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::BoolLit;
  }

private:
  friend class TermArena;
  explicit BoolLit(bool Value) : Term(TermKind::BoolLit), Value(Value) {}
  bool Value;
};

/// A term variable reference, including references to builtins.
class VarTerm : public Term {
public:
  const std::string &getName() const { return Name; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Var; }

private:
  friend class TermArena;
  explicit VarTerm(std::string Name)
      : Term(TermKind::Var), Name(std::move(Name)) {}
  std::string Name;
};

/// One lambda parameter: name plus annotated type.
struct ParamBinding {
  std::string Name;
  const Type *Ty;
};

/// A multi-parameter lambda abstraction \(x1:tau1, ...). body.
class AbsTerm : public Term {
public:
  const std::vector<ParamBinding> &getParams() const { return Params; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Abs; }

private:
  friend class TermArena;
  AbsTerm(std::vector<ParamBinding> Params, const Term *Body)
      : Term(TermKind::Abs), Params(std::move(Params)), Body(Body) {}

  std::vector<ParamBinding> Params;
  const Term *Body;
};

/// A (multi-argument) application f(e1, ..., en).
class AppTerm : public Term {
public:
  const Term *getFn() const { return Fn; }
  const std::vector<const Term *> &getArgs() const { return Args; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::App; }

private:
  friend class TermArena;
  AppTerm(const Term *Fn, std::vector<const Term *> Args)
      : Term(TermKind::App), Fn(Fn), Args(std::move(Args)) {}

  const Term *Fn;
  std::vector<const Term *> Args;
};

/// A type abstraction /\t... . body.
class TyAbsTerm : public Term {
public:
  const std::vector<TypeParamDecl> &getParams() const { return Params; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::TyAbs; }

private:
  friend class TermArena;
  TyAbsTerm(std::vector<TypeParamDecl> Params, const Term *Body)
      : Term(TermKind::TyAbs), Params(std::move(Params)), Body(Body) {}

  std::vector<TypeParamDecl> Params;
  const Term *Body;
};

/// A type application f[tau...].
class TyAppTerm : public Term {
public:
  const Term *getFn() const { return Fn; }
  const std::vector<const Type *> &getTypeArgs() const { return TypeArgs; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::TyApp; }

private:
  friend class TermArena;
  TyAppTerm(const Term *Fn, std::vector<const Type *> TypeArgs)
      : Term(TermKind::TyApp), Fn(Fn), TypeArgs(std::move(TypeArgs)) {}

  const Term *Fn;
  std::vector<const Type *> TypeArgs;
};

/// let x = e1 in e2.
class LetTerm : public Term {
public:
  const std::string &getName() const { return Name; }
  const Term *getInit() const { return Init; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Let; }

private:
  friend class TermArena;
  LetTerm(std::string Name, const Term *Init, const Term *Body)
      : Term(TermKind::Let), Name(std::move(Name)), Init(Init), Body(Body) {}

  std::string Name;
  const Term *Init;
  const Term *Body;
};

/// A tuple construction (e1, ..., en).  Dictionaries are built this way.
class TupleTerm : public Term {
public:
  const std::vector<const Term *> &getElements() const { return Elements; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Tuple; }

private:
  friend class TermArena;
  explicit TupleTerm(std::vector<const Term *> Elements)
      : Term(TermKind::Tuple), Elements(std::move(Elements)) {}

  std::vector<const Term *> Elements;
};

/// Tuple projection `nth e i`.
class NthTerm : public Term {
public:
  const Term *getTuple() const { return Tuple; }
  unsigned getIndex() const { return Index; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Nth; }

private:
  friend class TermArena;
  NthTerm(const Term *Tuple, unsigned Index)
      : Term(TermKind::Nth), Tuple(Tuple), Index(Index) {}

  const Term *Tuple;
  unsigned Index;
};

/// if c then t else e.
class IfTerm : public Term {
public:
  const Term *getCond() const { return Cond; }
  const Term *getThen() const { return Then; }
  const Term *getElse() const { return Else; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::If; }

private:
  friend class TermArena;
  IfTerm(const Term *Cond, const Term *Then, const Term *Else)
      : Term(TermKind::If), Cond(Cond), Then(Then), Else(Else) {}

  const Term *Cond;
  const Term *Then;
  const Term *Else;
};

/// fix e — the call-by-value fixpoint over function types.
class FixTerm : public Term {
public:
  const Term *getOperand() const { return Operand; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Fix; }

private:
  friend class TermArena;
  explicit FixTerm(const Term *Operand)
      : Term(TermKind::Fix), Operand(Operand) {}

  const Term *Operand;
};

/// Owns System F terms; all factory methods return arena pointers that
/// live as long as the arena.
class TermArena {
public:
  const Term *makeIntLit(int64_t Value) { return add(new IntLit(Value)); }
  const Term *makeBoolLit(bool Value) { return add(new BoolLit(Value)); }
  const Term *makeVar(std::string Name) {
    return add(new VarTerm(std::move(Name)));
  }
  const Term *makeAbs(std::vector<ParamBinding> Params, const Term *Body) {
    return add(new AbsTerm(std::move(Params), Body));
  }
  const Term *makeApp(const Term *Fn, std::vector<const Term *> Args) {
    return add(new AppTerm(Fn, std::move(Args)));
  }
  const Term *makeTyAbs(std::vector<TypeParamDecl> Params, const Term *Body) {
    return add(new TyAbsTerm(std::move(Params), Body));
  }
  const Term *makeTyApp(const Term *Fn, std::vector<const Type *> TypeArgs) {
    return add(new TyAppTerm(Fn, std::move(TypeArgs)));
  }
  const Term *makeLet(std::string Name, const Term *Init, const Term *Body) {
    return add(new LetTerm(std::move(Name), Init, Body));
  }
  const Term *makeTuple(std::vector<const Term *> Elements) {
    return add(new TupleTerm(std::move(Elements)));
  }
  const Term *makeNth(const Term *Tuple, unsigned Index) {
    return add(new NthTerm(Tuple, Index));
  }
  const Term *makeIf(const Term *Cond, const Term *Then, const Term *Else) {
    return add(new IfTerm(Cond, Then, Else));
  }
  const Term *makeFix(const Term *Operand) { return add(new FixTerm(Operand)); }

private:
  const Term *add(Term *T) {
    Owned.emplace_back(T);
    return T;
  }

  std::deque<std::unique_ptr<Term>> Owned;
};

/// Renders a term in the paper's concrete syntax.
std::string termToString(const Term *T);

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_TERM_H
