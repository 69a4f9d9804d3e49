//===- core/AST.h - F_G terms -----------------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Terms of F_G (paper Figures 4 and 11):
///
///   e ::= x | e(e...) | \y:tau. e
///       | /\t... where c<sigma...>, sigma == sigma . e | e[tau...]
///       | concept c<t...> { types s...; refines c'<sigma...>;
///                           x : tau...; sigma == sigma; } in e
///       | model c<tau...> { types s = tau...; x = e...; } in e
///       | c<tau...>.x
///       | type t = tau in e
///
/// plus let, if, fix, literals, and tuples, which the paper's example
/// programs use.  Two section-6 extensions are represented directly:
/// named models (`model [name] c<tau> ...` combined with `use name in e`)
/// and concept-member defaults (a member may carry a default body).
///
/// The parser resolves type-variable names to parameter ids and concept
/// names to concept ids; the AST carries no unresolved names except term
/// variables, which the checker resolves against the environment.
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORE_AST_H
#define FG_CORE_AST_H

#include "core/Type.h"
#include "support/SourceLocation.h"
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace fg {

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
  ConceptDecl,
  ModelDecl,
  MemberAccess,
  TypeAlias,
  UseModel,
};

/// Base class of all F_G terms.
class Term {
public:
  TermKind getKind() const { return Kind; }
  SourceLocation getLoc() const { return Loc; }

  Term(const Term &) = delete;
  Term &operator=(const Term &) = delete;
  virtual ~Term() = default;

protected:
  Term(TermKind K, SourceLocation Loc) : Kind(K), Loc(Loc) {}

private:
  TermKind Kind;
  SourceLocation Loc;
};

class IntLit : public Term {
public:
  int64_t getValue() const { return Value; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::IntLit;
  }

private:
  friend class TermArena;
  IntLit(int64_t Value, SourceLocation Loc)
      : Term(TermKind::IntLit, Loc), Value(Value) {}
  int64_t Value;
};

class BoolLit : public Term {
public:
  bool getValue() const { return Value; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::BoolLit;
  }

private:
  friend class TermArena;
  BoolLit(bool Value, SourceLocation Loc)
      : Term(TermKind::BoolLit, Loc), Value(Value) {}
  bool Value;
};

class VarTerm : public Term {
public:
  const std::string &getName() const { return Name; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Var; }

private:
  friend class TermArena;
  VarTerm(std::string Name, SourceLocation Loc)
      : Term(TermKind::Var, Loc), Name(std::move(Name)) {}
  std::string Name;
};

/// One lambda parameter: name plus annotated F_G type.
struct ParamBinding {
  std::string Name;
  const Type *Ty;
};

/// \(x1:tau1, ...). body
class AbsTerm : public Term {
public:
  const std::vector<ParamBinding> &getParams() const { return Params; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Abs; }

private:
  friend class TermArena;
  AbsTerm(std::vector<ParamBinding> Params, const Term *Body,
          SourceLocation Loc)
      : Term(TermKind::Abs, Loc), Params(std::move(Params)), Body(Body) {}

  std::vector<ParamBinding> Params;
  const Term *Body;
};

/// f(e1, ..., en)
class AppTerm : public Term {
public:
  const Term *getFn() const { return Fn; }
  const std::vector<const Term *> &getArgs() const { return Args; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::App; }

private:
  friend class TermArena;
  AppTerm(const Term *Fn, std::vector<const Term *> Args, SourceLocation Loc)
      : Term(TermKind::App, Loc), Fn(Fn), Args(std::move(Args)) {}

  const Term *Fn;
  std::vector<const Term *> Args;
};

/// /\t... where c<sigma...>, sigma == sigma . body   (rule TABS)
class TyAbsTerm : public Term {
public:
  const std::vector<TypeParamDecl> &getParams() const { return Params; }
  const std::vector<ConceptRef> &getRequirements() const {
    return Requirements;
  }
  const std::vector<TypeEquation> &getEquations() const { return Equations; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::TyAbs;
  }

private:
  friend class TermArena;
  TyAbsTerm(std::vector<TypeParamDecl> Params,
            std::vector<ConceptRef> Requirements,
            std::vector<TypeEquation> Equations, const Term *Body,
            SourceLocation Loc)
      : Term(TermKind::TyAbs, Loc), Params(std::move(Params)),
        Requirements(std::move(Requirements)),
        Equations(std::move(Equations)), Body(Body) {}

  std::vector<TypeParamDecl> Params;
  std::vector<ConceptRef> Requirements;
  std::vector<TypeEquation> Equations;
  const Term *Body;
};

/// e[tau...]   (rule TAPP)
class TyAppTerm : public Term {
public:
  const Term *getFn() const { return Fn; }
  const std::vector<const Type *> &getTypeArgs() const { return TypeArgs; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::TyApp;
  }

private:
  friend class TermArena;
  TyAppTerm(const Term *Fn, std::vector<const Type *> TypeArgs,
            SourceLocation Loc)
      : Term(TermKind::TyApp, Loc), Fn(Fn), TypeArgs(std::move(TypeArgs)) {}

  const Term *Fn;
  std::vector<const Type *> TypeArgs;
};

/// let x = e1 in e2
class LetTerm : public Term {
public:
  const std::string &getName() const { return Name; }
  const Term *getInit() const { return Init; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Let; }

private:
  friend class TermArena;
  LetTerm(std::string Name, const Term *Init, const Term *Body,
          SourceLocation Loc)
      : Term(TermKind::Let, Loc), Name(std::move(Name)), Init(Init),
        Body(Body) {}

  std::string Name;
  const Term *Init;
  const Term *Body;
};

/// (e1, ..., en)
class TupleTerm : public Term {
public:
  const std::vector<const Term *> &getElements() const { return Elements; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::Tuple;
  }

private:
  friend class TermArena;
  TupleTerm(std::vector<const Term *> Elements, SourceLocation Loc)
      : Term(TermKind::Tuple, Loc), Elements(std::move(Elements)) {}

  std::vector<const Term *> Elements;
};

/// nth e i
class NthTerm : public Term {
public:
  const Term *getTuple() const { return Tuple; }
  unsigned getIndex() const { return Index; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Nth; }

private:
  friend class TermArena;
  NthTerm(const Term *Tuple, unsigned Index, SourceLocation Loc)
      : Term(TermKind::Nth, Loc), Tuple(Tuple), Index(Index) {}

  const Term *Tuple;
  unsigned Index;
};

/// if c then t else e
class IfTerm : public Term {
public:
  const Term *getCond() const { return Cond; }
  const Term *getThen() const { return Then; }
  const Term *getElse() const { return Else; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::If; }

private:
  friend class TermArena;
  IfTerm(const Term *Cond, const Term *Then, const Term *Else,
         SourceLocation Loc)
      : Term(TermKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  const Term *Cond;
  const Term *Then;
  const Term *Else;
};

/// fix e
class FixTerm : public Term {
public:
  const Term *getOperand() const { return Operand; }

  static bool classof(const Term *T) { return T->getKind() == TermKind::Fix; }

private:
  friend class TermArena;
  FixTerm(const Term *Operand, SourceLocation Loc)
      : Term(TermKind::Fix, Loc), Operand(Operand) {}

  const Term *Operand;
};

/// A required operation in a concept body: `x : tau;`, optionally with a
/// default body `x : tau = e;` (section-6 extension).
struct ConceptMember {
  std::string Name;
  const Type *Ty = nullptr;
  const Term *Default = nullptr; ///< Null if the member has no default.
  SourceLocation Loc;
};

/// An associated type requirement in a concept body: `types s;`.  The
/// parser assigns a parameter id so that member types can refer to the
/// associated type by name.
struct AssocTypeDecl {
  unsigned ParamId = 0;
  std::string Name;
};

/// concept c<t...> { types s...; refines c'<...>; x : tau...;
///                   sigma == sigma; } in body        (rule CPT)
class ConceptDeclTerm : public Term {
public:
  unsigned getConceptId() const { return ConceptId; }
  const std::string &getName() const { return Name; }
  const std::vector<TypeParamDecl> &getParams() const { return Params; }
  const std::vector<AssocTypeDecl> &getAssocTypes() const {
    return AssocTypes;
  }
  const std::vector<ConceptRef> &getRefines() const { return Refines; }
  const std::vector<ConceptMember> &getMembers() const { return Members; }
  const std::vector<TypeEquation> &getEquations() const { return Equations; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::ConceptDecl;
  }

private:
  friend class TermArena;
  ConceptDeclTerm(unsigned ConceptId, std::string Name,
                  std::vector<TypeParamDecl> Params,
                  std::vector<AssocTypeDecl> AssocTypes,
                  std::vector<ConceptRef> Refines,
                  std::vector<ConceptMember> Members,
                  std::vector<TypeEquation> Equations, const Term *Body,
                  SourceLocation Loc)
      : Term(TermKind::ConceptDecl, Loc), ConceptId(ConceptId),
        Name(std::move(Name)), Params(std::move(Params)),
        AssocTypes(std::move(AssocTypes)), Refines(std::move(Refines)),
        Members(std::move(Members)), Equations(std::move(Equations)),
        Body(Body) {}

  unsigned ConceptId;
  std::string Name;
  std::vector<TypeParamDecl> Params;
  std::vector<AssocTypeDecl> AssocTypes;
  std::vector<ConceptRef> Refines;
  std::vector<ConceptMember> Members;
  std::vector<TypeEquation> Equations;
  const Term *Body;
};

/// One member definition in a model body: `x = e;`.
struct ModelMember {
  std::string Name;
  const Term *Init = nullptr;
  SourceLocation Loc;
};

/// One associated type assignment in a model body: `types s = tau;`.
struct AssocBinding {
  std::string Name;
  const Type *Ty = nullptr;
};

/// model c<tau...> { types s = tau...; x = e...; } in body   (rule MDL)
///
/// A model may carry an optional name (section-6 "named models"): a
/// named model is *not* made ambient; `use name in e` activates it.
///
/// A model may also be *parameterized* (section-6 "parameterized
/// models", the analogue of Haskell's parameterized instances):
///
///   model forall t where Semigroup<t>. Semigroup<list t> { ... } in e
///
/// Params binds pattern variables over the concept arguments;
/// Requirements/Equations form the model's own where clause.
class ModelDeclTerm : public Term {
public:
  unsigned getConceptId() const { return ConceptId; }
  const std::string &getConceptName() const { return ConceptName; }
  const std::vector<const Type *> &getArgs() const { return Args; }
  const std::vector<TypeParamDecl> &getParams() const { return Params; }
  const std::vector<ConceptRef> &getRequirements() const {
    return Requirements;
  }
  const std::vector<TypeEquation> &getEquations() const { return Equations; }
  bool isParameterized() const { return !Params.empty(); }
  const std::vector<AssocBinding> &getAssocBindings() const {
    return AssocBindings;
  }
  const std::vector<ModelMember> &getMembers() const { return Members; }
  const std::optional<std::string> &getModelName() const { return ModelName; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::ModelDecl;
  }

private:
  friend class TermArena;
  ModelDeclTerm(unsigned ConceptId, std::string ConceptName,
                std::vector<const Type *> Args,
                std::vector<TypeParamDecl> Params,
                std::vector<ConceptRef> Requirements,
                std::vector<TypeEquation> Equations,
                std::vector<AssocBinding> AssocBindings,
                std::vector<ModelMember> Members,
                std::optional<std::string> ModelName, const Term *Body,
                SourceLocation Loc)
      : Term(TermKind::ModelDecl, Loc), ConceptId(ConceptId),
        ConceptName(std::move(ConceptName)), Args(std::move(Args)),
        Params(std::move(Params)), Requirements(std::move(Requirements)),
        Equations(std::move(Equations)),
        AssocBindings(std::move(AssocBindings)), Members(std::move(Members)),
        ModelName(std::move(ModelName)), Body(Body) {}

  unsigned ConceptId;
  std::string ConceptName;
  std::vector<const Type *> Args;
  std::vector<TypeParamDecl> Params;
  std::vector<ConceptRef> Requirements;
  std::vector<TypeEquation> Equations;
  std::vector<AssocBinding> AssocBindings;
  std::vector<ModelMember> Members;
  std::optional<std::string> ModelName;
  const Term *Body;
};

/// c<tau...>.x — model member access (rule MEM).
class MemberAccessTerm : public Term {
public:
  unsigned getConceptId() const { return ConceptId; }
  const std::string &getConceptName() const { return ConceptName; }
  const std::vector<const Type *> &getArgs() const { return Args; }
  const std::string &getMember() const { return Member; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::MemberAccess;
  }

private:
  friend class TermArena;
  MemberAccessTerm(unsigned ConceptId, std::string ConceptName,
                   std::vector<const Type *> Args, std::string Member,
                   SourceLocation Loc)
      : Term(TermKind::MemberAccess, Loc), ConceptId(ConceptId),
        ConceptName(std::move(ConceptName)), Args(std::move(Args)),
        Member(std::move(Member)) {}

  unsigned ConceptId;
  std::string ConceptName;
  std::vector<const Type *> Args;
  std::string Member;
};

/// type t = tau in body   (rule ALS)
///
/// The parser assigns the alias a fresh parameter id; the checker adds
/// the equation ParamId == tau to the environment for the body.
class TypeAliasTerm : public Term {
public:
  unsigned getParamId() const { return ParamId; }
  const std::string &getName() const { return Name; }
  const Type *getAliased() const { return Aliased; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::TypeAlias;
  }

private:
  friend class TermArena;
  TypeAliasTerm(unsigned ParamId, std::string Name, const Type *Aliased,
                const Term *Body, SourceLocation Loc)
      : Term(TermKind::TypeAlias, Loc), ParamId(ParamId),
        Name(std::move(Name)), Aliased(Aliased), Body(Body) {}

  unsigned ParamId;
  std::string Name;
  const Type *Aliased;
  const Term *Body;
};

/// use name in body — activates a named model (section-6 extension).
class UseModelTerm : public Term {
public:
  const std::string &getModelName() const { return ModelName; }
  const Term *getBody() const { return Body; }

  static bool classof(const Term *T) {
    return T->getKind() == TermKind::UseModel;
  }

private:
  friend class TermArena;
  UseModelTerm(std::string ModelName, const Term *Body, SourceLocation Loc)
      : Term(TermKind::UseModel, Loc), ModelName(std::move(ModelName)),
        Body(Body) {}

  std::string ModelName;
  const Term *Body;
};

/// Owns F_G terms.
class TermArena {
public:
  const Term *makeIntLit(int64_t Value, SourceLocation Loc = {}) {
    return add(new IntLit(Value, Loc));
  }
  const Term *makeBoolLit(bool Value, SourceLocation Loc = {}) {
    return add(new BoolLit(Value, Loc));
  }
  const Term *makeVar(std::string Name, SourceLocation Loc = {}) {
    return add(new VarTerm(std::move(Name), Loc));
  }
  const Term *makeAbs(std::vector<ParamBinding> Params, const Term *Body,
                      SourceLocation Loc = {}) {
    return add(new AbsTerm(std::move(Params), Body, Loc));
  }
  const Term *makeApp(const Term *Fn, std::vector<const Term *> Args,
                      SourceLocation Loc = {}) {
    return add(new AppTerm(Fn, std::move(Args), Loc));
  }
  const Term *makeTyAbs(std::vector<TypeParamDecl> Params,
                        std::vector<ConceptRef> Requirements,
                        std::vector<TypeEquation> Equations, const Term *Body,
                        SourceLocation Loc = {}) {
    return add(new TyAbsTerm(std::move(Params), std::move(Requirements),
                             std::move(Equations), Body, Loc));
  }
  const Term *makeTyApp(const Term *Fn, std::vector<const Type *> TypeArgs,
                        SourceLocation Loc = {}) {
    return add(new TyAppTerm(Fn, std::move(TypeArgs), Loc));
  }
  const Term *makeLet(std::string Name, const Term *Init, const Term *Body,
                      SourceLocation Loc = {}) {
    return add(new LetTerm(std::move(Name), Init, Body, Loc));
  }
  const Term *makeTuple(std::vector<const Term *> Elements,
                        SourceLocation Loc = {}) {
    return add(new TupleTerm(std::move(Elements), Loc));
  }
  const Term *makeNth(const Term *Tuple, unsigned Index,
                      SourceLocation Loc = {}) {
    return add(new NthTerm(Tuple, Index, Loc));
  }
  const Term *makeIf(const Term *Cond, const Term *Then, const Term *Else,
                     SourceLocation Loc = {}) {
    return add(new IfTerm(Cond, Then, Else, Loc));
  }
  const Term *makeFix(const Term *Operand, SourceLocation Loc = {}) {
    return add(new FixTerm(Operand, Loc));
  }
  const Term *makeConceptDecl(unsigned ConceptId, std::string Name,
                              std::vector<TypeParamDecl> Params,
                              std::vector<AssocTypeDecl> AssocTypes,
                              std::vector<ConceptRef> Refines,
                              std::vector<ConceptMember> Members,
                              std::vector<TypeEquation> Equations,
                              const Term *Body, SourceLocation Loc = {}) {
    return add(new ConceptDeclTerm(
        ConceptId, std::move(Name), std::move(Params), std::move(AssocTypes),
        std::move(Refines), std::move(Members), std::move(Equations), Body,
        Loc));
  }
  const Term *makeModelDecl(unsigned ConceptId, std::string ConceptName,
                            std::vector<const Type *> Args,
                            std::vector<AssocBinding> AssocBindings,
                            std::vector<ModelMember> Members,
                            std::optional<std::string> ModelName,
                            const Term *Body, SourceLocation Loc = {},
                            std::vector<TypeParamDecl> Params = {},
                            std::vector<ConceptRef> Requirements = {},
                            std::vector<TypeEquation> Equations = {}) {
    return add(new ModelDeclTerm(
        ConceptId, std::move(ConceptName), std::move(Args),
        std::move(Params), std::move(Requirements), std::move(Equations),
        std::move(AssocBindings), std::move(Members), std::move(ModelName),
        Body, Loc));
  }
  const Term *makeMemberAccess(unsigned ConceptId, std::string ConceptName,
                               std::vector<const Type *> Args,
                               std::string Member, SourceLocation Loc = {}) {
    return add(new MemberAccessTerm(ConceptId, std::move(ConceptName),
                                    std::move(Args), std::move(Member), Loc));
  }
  const Term *makeTypeAlias(unsigned ParamId, std::string Name,
                            const Type *Aliased, const Term *Body,
                            SourceLocation Loc = {}) {
    return add(new TypeAliasTerm(ParamId, std::move(Name), Aliased, Body,
                                 Loc));
  }
  const Term *makeUseModel(std::string ModelName, const Term *Body,
                           SourceLocation Loc = {}) {
    return add(new UseModelTerm(std::move(ModelName), Body, Loc));
  }

private:
  const Term *add(Term *T) {
    Owned.emplace_back(T);
    return T;
  }

  std::deque<std::unique_ptr<Term>> Owned;
};

/// Renders a term in the paper's concrete syntax (best effort; used in
/// diagnostics and tests).
std::string termToString(const Term *T);

} // namespace fg

#endif // FG_CORE_AST_H
