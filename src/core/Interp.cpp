//===- core/Interp.cpp - Direct F_G interpreter ---------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "core/Interp.h"
#include "support/Stats.h"
#include <cassert>
#include <sstream>

using namespace fg;
using namespace fg::interp;

//===----------------------------------------------------------------------===//
// Printing (format-compatible with sf::valueToString)
//===----------------------------------------------------------------------===//

std::string fg::interp::valueToString(const Value *V) {
  if (!V)
    return "<null-value>";
  switch (V->getKind()) {
  case ValueKind::Int: {
    std::ostringstream OS;
    OS << cast<IntValue>(V)->getValue();
    return OS.str();
  }
  case ValueKind::Bool:
    return cast<BoolValue>(V)->getValue() ? "true" : "false";
  case ValueKind::Tuple: {
    std::ostringstream OS;
    OS << '(';
    const auto &Elems = cast<TupleValue>(V)->getElements();
    for (size_t I = 0; I != Elems.size(); ++I) {
      if (I)
        OS << ", ";
      OS << valueToString(Elems[I].get());
    }
    OS << ')';
    return OS.str();
  }
  case ValueKind::List: {
    std::ostringstream OS;
    OS << '[';
    bool First = true;
    for (const ListValue *L = cast<ListValue>(V); L && !L->isNil();
         L = L->getTail().get()) {
      if (!First)
        OS << ", ";
      First = false;
      OS << valueToString(L->getHead().get());
    }
    OS << ']';
    return OS.str();
  }
  case ValueKind::Closure:
    return "<closure>";
  case ValueKind::TyClosure:
    return "<tyclosure>";
  case ValueKind::Fix:
    return "<fix>";
  case ValueKind::Builtin:
    return "<builtin " + cast<BuiltinValue>(V)->getName() + ">";
  }
  return "<unknown-value>";
}

//===----------------------------------------------------------------------===//
// Environment helpers
//===----------------------------------------------------------------------===//

namespace {

VarEnv bindVar(VarEnv E, std::string Name, ValuePtr V) {
  auto N = std::make_shared<VarNode>();
  N->Name = std::move(Name);
  N->Val = std::move(V);
  N->Next = std::move(E);
  return N;
}

ValuePtr lookupVar(const VarEnv &E, const std::string &Name) {
  for (const VarNode *N = E.get(); N; N = N->Next.get())
    if (N->Name == Name)
      return N->Val;
  return nullptr;
}

TypeEnv bindType(TypeEnv E, unsigned Id, const Type *Ty) {
  auto N = std::make_shared<TypeNode>();
  N->ParamId = Id;
  N->Ty = Ty;
  N->Next = std::move(E);
  return N;
}

ModelEnv pushModel(ModelEnv E, std::shared_ptr<const RuntimeModel> M) {
  auto N = std::make_shared<ModelNode>();
  N->Model = std::move(M);
  N->Next = std::move(E);
  return N;
}

/// Pushes a model together with its (transitively) refined models, so
/// member access through refinement concepts resolves in scopes where
/// only the top model was implicitly passed.
ModelEnv pushModelDeep(ModelEnv E, const std::shared_ptr<const RuntimeModel> &M) {
  for (const auto &R : M->Refined)
    E = pushModelDeep(E, R);
  return pushModel(std::move(E), M);
}

/// Collects the runtime type environment into a substitution map.
/// Inner bindings shadow outer ones.
TypeSubst envSubst(const TypeEnv &E) {
  TypeSubst S;
  for (const TypeNode *N = E.get(); N; N = N->Next.get())
    S.emplace(N->ParamId, N->Ty); // emplace keeps the innermost binding
  return S;
}

/// RAII depth guard.
struct DepthGuard {
  unsigned &D;
  explicit DepthGuard(unsigned &D) : D(D) { ++D; }
  ~DepthGuard() { --D; }
};

/// Syntactic one-way match of a ground query against a pattern whose
/// variables are \p Vars.  Both sides are hash-consed, so equality of
/// ground positions is pointer equality.
bool matchGround(const Type *Pattern, const Type *Query,
                 const std::unordered_set<unsigned> &Vars, TypeSubst &B) {
  if (const auto *P = dyn_cast<ParamType>(Pattern)) {
    if (Vars.count(P->getId())) {
      auto It = B.find(P->getId());
      if (It != B.end())
        return It->second == Query;
      B[P->getId()] = Query;
      return true;
    }
  }
  if (Pattern == Query)
    return true;
  if (Pattern->getKind() != Query->getKind())
    return false;
  switch (Pattern->getKind()) {
  case TypeKind::Arrow: {
    const auto *PA = cast<ArrowType>(Pattern);
    const auto *QA = cast<ArrowType>(Query);
    if (PA->getNumParams() != QA->getNumParams())
      return false;
    for (unsigned I = 0, E = PA->getNumParams(); I != E; ++I)
      if (!matchGround(PA->getParams()[I], QA->getParams()[I], Vars, B))
        return false;
    return matchGround(PA->getResult(), QA->getResult(), Vars, B);
  }
  case TypeKind::Tuple: {
    const auto *PT = cast<TupleType>(Pattern);
    const auto *QT = cast<TupleType>(Query);
    if (PT->getNumElements() != QT->getNumElements())
      return false;
    for (unsigned I = 0, E = PT->getNumElements(); I != E; ++I)
      if (!matchGround(PT->getElement(I), QT->getElement(I), Vars, B))
        return false;
    return true;
  }
  case TypeKind::List:
    return matchGround(cast<ListType>(Pattern)->getElement(),
                       cast<ListType>(Query)->getElement(), Vars, B);
  default:
    return false;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

namespace {

EvalResult wrongArg(const std::string &Name) {
  return EvalResult::failure("builtin `" + Name +
                             "` applied to a value of the wrong kind");
}

ValuePtr intBin(const std::string &Name, int64_t (*Op)(int64_t, int64_t)) {
  return std::make_shared<BuiltinValue>(
      Name, 2, [Name, Op](const std::vector<ValuePtr> &A) -> EvalResult {
        const auto *X = dyn_cast<IntValue>(A[0].get());
        const auto *Y = dyn_cast<IntValue>(A[1].get());
        if (!X || !Y)
          return wrongArg(Name);
        return EvalResult::success(
            std::make_shared<IntValue>(Op(X->getValue(), Y->getValue())));
      });
}

ValuePtr intCmp(const std::string &Name, bool (*Op)(int64_t, int64_t)) {
  return std::make_shared<BuiltinValue>(
      Name, 2, [Name, Op](const std::vector<ValuePtr> &A) -> EvalResult {
        const auto *X = dyn_cast<IntValue>(A[0].get());
        const auto *Y = dyn_cast<IntValue>(A[1].get());
        if (!X || !Y)
          return wrongArg(Name);
        return EvalResult::success(
            std::make_shared<BoolValue>(Op(X->getValue(), Y->getValue())));
      });
}

ValuePtr boolBin(const std::string &Name, bool (*Op)(bool, bool)) {
  return std::make_shared<BuiltinValue>(
      Name, 2, [Name, Op](const std::vector<ValuePtr> &A) -> EvalResult {
        const auto *X = dyn_cast<BoolValue>(A[0].get());
        const auto *Y = dyn_cast<BoolValue>(A[1].get());
        if (!X || !Y)
          return wrongArg(Name);
        return EvalResult::success(
            std::make_shared<BoolValue>(Op(X->getValue(), Y->getValue())));
      });
}

VarEnv makePreludeEnv() {
  VarEnv E;
  auto Add = [&E](const std::string &N, ValuePtr V) {
    E = bindVar(E, N, std::move(V));
  };
  Add("iadd", intBin("iadd", [](int64_t A, int64_t B) { return A + B; }));
  Add("isub", intBin("isub", [](int64_t A, int64_t B) { return A - B; }));
  Add("imult", intBin("imult", [](int64_t A, int64_t B) { return A * B; }));
  Add("imax", intBin("imax", [](int64_t A, int64_t B) {
        return A > B ? A : B;
      }));
  Add("imin", intBin("imin", [](int64_t A, int64_t B) {
        return A < B ? A : B;
      }));
  Add("idiv", std::make_shared<BuiltinValue>(
                  "idiv", 2, [](const std::vector<ValuePtr> &A) -> EvalResult {
                    const auto *X = dyn_cast<IntValue>(A[0].get());
                    const auto *Y = dyn_cast<IntValue>(A[1].get());
                    if (!X || !Y)
                      return wrongArg("idiv");
                    if (Y->getValue() == 0)
                      return EvalResult::failure("division by zero");
                    return EvalResult::success(std::make_shared<IntValue>(
                        X->getValue() / Y->getValue()));
                  }));
  Add("imod", std::make_shared<BuiltinValue>(
                  "imod", 2, [](const std::vector<ValuePtr> &A) -> EvalResult {
                    const auto *X = dyn_cast<IntValue>(A[0].get());
                    const auto *Y = dyn_cast<IntValue>(A[1].get());
                    if (!X || !Y)
                      return wrongArg("imod");
                    if (Y->getValue() == 0)
                      return EvalResult::failure("modulus by zero");
                    return EvalResult::success(std::make_shared<IntValue>(
                        X->getValue() % Y->getValue()));
                  }));
  Add("ineg", std::make_shared<BuiltinValue>(
                  "ineg", 1, [](const std::vector<ValuePtr> &A) -> EvalResult {
                    const auto *X = dyn_cast<IntValue>(A[0].get());
                    if (!X)
                      return wrongArg("ineg");
                    return EvalResult::success(
                        std::make_shared<IntValue>(-X->getValue()));
                  }));
  Add("ieq", intCmp("ieq", [](int64_t A, int64_t B) { return A == B; }));
  Add("ine", intCmp("ine", [](int64_t A, int64_t B) { return A != B; }));
  Add("ilt", intCmp("ilt", [](int64_t A, int64_t B) { return A < B; }));
  Add("ile", intCmp("ile", [](int64_t A, int64_t B) { return A <= B; }));
  Add("igt", intCmp("igt", [](int64_t A, int64_t B) { return A > B; }));
  Add("ige", intCmp("ige", [](int64_t A, int64_t B) { return A >= B; }));
  Add("band", boolBin("band", [](bool A, bool B) { return A && B; }));
  Add("bor", boolBin("bor", [](bool A, bool B) { return A || B; }));
  Add("bnot", std::make_shared<BuiltinValue>(
                  "bnot", 1, [](const std::vector<ValuePtr> &A) -> EvalResult {
                    const auto *X = dyn_cast<BoolValue>(A[0].get());
                    if (!X)
                      return wrongArg("bnot");
                    return EvalResult::success(
                        std::make_shared<BoolValue>(!X->getValue()));
                  }));
  Add("nil", std::make_shared<ListValue>());
  Add("cons",
      std::make_shared<BuiltinValue>(
          "cons", 2, [](const std::vector<ValuePtr> &A) -> EvalResult {
            auto Tail = std::dynamic_pointer_cast<const ListValue>(A[1]);
            if (!Tail)
              return wrongArg("cons");
            return EvalResult::success(
                std::make_shared<ListValue>(A[0], Tail));
          }));
  Add("car", std::make_shared<BuiltinValue>(
                 "car", 1, [](const std::vector<ValuePtr> &A) -> EvalResult {
                   const auto *L = dyn_cast<ListValue>(A[0].get());
                   if (!L)
                     return wrongArg("car");
                   if (L->isNil())
                     return EvalResult::failure("`car` of the empty list");
                   return EvalResult::success(L->getHead());
                 }));
  Add("cdr", std::make_shared<BuiltinValue>(
                 "cdr", 1, [](const std::vector<ValuePtr> &A) -> EvalResult {
                   const auto *L = dyn_cast<ListValue>(A[0].get());
                   if (!L)
                     return wrongArg("cdr");
                   if (L->isNil())
                     return EvalResult::failure("`cdr` of the empty list");
                   return EvalResult::success(L->getTail());
                 }));
  Add("null", std::make_shared<BuiltinValue>(
                  "null", 1, [](const std::vector<ValuePtr> &A) -> EvalResult {
                    const auto *L = dyn_cast<ListValue>(A[0].get());
                    if (!L)
                      return wrongArg("null");
                    return EvalResult::success(
                        std::make_shared<BoolValue>(L->isNil()));
                  }));
  return E;
}

} // namespace

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

const ConceptDeclTerm *Interpreter::getConcept(unsigned Id) const {
  auto It = Concepts.find(Id);
  return It == Concepts.end() ? nullptr : It->second;
}

EvalResult Interpreter::run(const Term *Program) {
  stats::ScopedTimer Timer("interp.run");
  Steps = 0;
  Depth = 0;
  Concepts.clear();
  Env E;
  E.Vars = makePreludeEnv();
  return eval(Program, E);
}

const Type *Interpreter::normalize(const Type *T, const Env &E,
                                   unsigned NormDepth) {
  if (NormDepth > 128)
    return T; // Give up; a later lookup will fail with a message.
  const Type *S = Ctx.substitute(T, envSubst(E.Types));
  // Resolve associated types structurally; quantified types stay as
  // they are.
  if (isa<ForAllType>(S))
    return S;
  auto Normalize = [&](const Type *C) {
    return normalize(C, E, NormDepth + 1);
  };
  const auto *A = dyn_cast<AssocType>(S);
  if (!A)
    return mapChildren(Ctx, S, Normalize);
  std::vector<const Type *> Args;
  for (const Type *Arg : A->getArgs())
    Args.push_back(Normalize(Arg));
  std::string Err;
  std::shared_ptr<const RuntimeModel> M =
      resolveModel(A->getConceptId(), Args, E, NormDepth + 1, Err);
  if (M) {
    auto It = M->AssocTypes.find(A->getMember());
    if (It != M->AssocTypes.end())
      return It->second;
  }
  return Ctx.getAssocType(A->getConceptId(), A->getConceptName(),
                          std::move(Args), A->getMember());
}

std::shared_ptr<const RuntimeModel>
Interpreter::resolveModel(unsigned ConceptId,
                          const std::vector<const Type *> &Args, const Env &E,
                          unsigned RDepth, std::string &ErrorOut) {
  static std::atomic<uint64_t> &ResolveCount =
      stats::Statistics::global().counter("interp.model_resolutions");
  ++ResolveCount;
  if (RDepth > 64) {
    ErrorOut = "model resolution exceeded the recursion limit";
    return nullptr;
  }
  for (const ModelNode *N = E.Models.get(); N; N = N->Next.get()) {
    const RuntimeModel &M = *N->Model;
    if (M.ConceptId != ConceptId || M.Args.size() != Args.size())
      continue;
    if (!M.Parameterized) {
      if (M.Args == Args)
        return N->Model;
      continue;
    }
    std::unordered_set<unsigned> Vars;
    for (const TypeParamDecl &P : M.Decl->getParams())
      Vars.insert(P.Id);
    TypeSubst B;
    bool Match = true;
    for (size_t K = 0; Match && K != Args.size(); ++K)
      Match = matchGround(M.Args[K], Args[K], Vars, B);
    if (!Match || B.size() != Vars.size())
      continue;
    return instantiate(M, B, E, RDepth, ErrorOut);
  }
  return nullptr;
}

std::shared_ptr<const RuntimeModel>
Interpreter::instantiate(const RuntimeModel &Param, const TypeSubst &Binding,
                         const Env &UseSite, unsigned RDepth,
                         std::string &ErrorOut) {
  const ModelDeclTerm *Decl = Param.Decl;
  const ConceptDeclTerm *Concept = getConcept(Decl->getConceptId());
  if (!Concept) {
    ErrorOut = "internal error: unknown concept at runtime";
    return nullptr;
  }

  // The instantiation environment: declaration site, pattern variables
  // bound, requirement models resolved at the *use* site.
  Env E = Param.DeclEnv;
  for (const auto &[Id, Ty] : Binding)
    E.Types = bindType(E.Types, Id, Ty);
  for (const ConceptRef &Req : Decl->getRequirements()) {
    std::vector<const Type *> RArgs;
    for (const Type *A : Req.Args)
      RArgs.push_back(normalize(Ctx.substitute(A, Binding), UseSite));
    std::shared_ptr<const RuntimeModel> RM =
        resolveModel(Req.ConceptId, RArgs, UseSite, RDepth + 1, ErrorOut);
    if (!RM) {
      if (ErrorOut.empty())
        ErrorOut = "no model of `" + conceptRefToString(Req) +
                   "` at runtime (required by a parameterized model)";
      return nullptr;
    }
    E.Models = pushModelDeep(E.Models, RM);
  }

  auto Out = std::make_shared<RuntimeModel>();
  Out->Decl = Decl;
  Out->ConceptId = Decl->getConceptId();
  for (const Type *A : Param.Args)
    Out->Args.push_back(normalize(Ctx.substitute(A, Binding), E));
  for (const AssocBinding &B : Decl->getAssocBindings())
    Out->AssocTypes[B.Name] = normalize(B.Ty, E);
  Out->DeclEnv = E;

  // Refined models resolve in the instantiation environment.
  TypeSubst S;
  for (size_t I = 0; I != Concept->getParams().size(); ++I)
    S[Concept->getParams()[I].Id] = Out->Args[I];
  for (const AssocTypeDecl &A : Concept->getAssocTypes()) {
    auto It = Out->AssocTypes.find(A.Name);
    if (It != Out->AssocTypes.end())
      S[A.ParamId] = It->second;
  }
  for (const ConceptRef &R : Concept->getRefines()) {
    std::vector<const Type *> RArgs;
    for (const Type *A : R.Args)
      RArgs.push_back(normalize(Ctx.substitute(A, S), E));
    std::shared_ptr<const RuntimeModel> RM =
        resolveModel(R.ConceptId, RArgs, E, RDepth + 1, ErrorOut);
    if (!RM) {
      if (ErrorOut.empty())
        ErrorOut = "no model of refined concept at runtime";
      return nullptr;
    }
    Out->Refined.push_back(RM);
  }

  if (!evalMembers(Decl, Concept, E, *Out, ErrorOut))
    return nullptr;
  return Out;
}

bool Interpreter::evalMembers(const ModelDeclTerm *Decl,
                              const ConceptDeclTerm *Concept,
                              const Env &MemberEnv, RuntimeModel &Out,
                              std::string &ErrorOut) {
  for (const ConceptMember &CM : Concept->getMembers()) {
    const ModelMember *Def = nullptr;
    for (const ModelMember &MM : Decl->getMembers())
      if (MM.Name == CM.Name)
        Def = &MM;
    EvalResult V;
    if (Def) {
      V = eval(Def->Init, MemberEnv);
    } else if (CM.Default) {
      // The default body is written against the concept's parameters;
      // bind them and register the partially built model so earlier
      // members are accessible.
      Env E = MemberEnv;
      for (size_t I = 0; I != Concept->getParams().size(); ++I)
        E.Types = bindType(E.Types, Concept->getParams()[I].Id,
                           Out.Args[I]);
      for (const AssocTypeDecl &A : Concept->getAssocTypes()) {
        auto It = Out.AssocTypes.find(A.Name);
        if (It != Out.AssocTypes.end())
          E.Types = bindType(E.Types, A.ParamId, It->second);
      }
      auto Partial = std::make_shared<RuntimeModel>(Out);
      E.Models = pushModel(E.Models, Partial);
      for (const auto &R : Out.Refined)
        E.Models = pushModelDeep(E.Models, R);
      V = eval(CM.Default, E);
    } else {
      ErrorOut = "internal error: model missing member `" + CM.Name +
                 "` at runtime";
      return false;
    }
    if (!V.ok()) {
      ErrorOut = V.Error;
      return false;
    }
    Out.Members[CM.Name] = V.Val;
  }
  return true;
}

EvalResult Interpreter::evalModelDecl(const ModelDeclTerm *T, const Env &E) {
  const ConceptDeclTerm *Concept = getConcept(T->getConceptId());
  if (!Concept)
    return EvalResult::failure("internal error: unknown concept at runtime");

  auto M = std::make_shared<RuntimeModel>();
  M->Decl = T;
  M->ConceptId = T->getConceptId();
  M->DeclEnv = E;

  if (T->isParameterized()) {
    // Keep the patterns with outer type bindings substituted, but leave
    // the pattern variables free.
    for (const Type *A : T->getArgs())
      M->Args.push_back(Ctx.substitute(A, envSubst(E.Types)));
    M->Parameterized = true;
  } else {
    std::string Err;
    for (const Type *A : T->getArgs())
      M->Args.push_back(normalize(A, E));
    for (const AssocBinding &B : T->getAssocBindings())
      M->AssocTypes[B.Name] = normalize(B.Ty, E);
    // Refinement models are resolved at the declaration site, exactly
    // as the translation embeds their dictionaries at the declaration.
    TypeSubst S;
    for (size_t I = 0; I != Concept->getParams().size(); ++I)
      S[Concept->getParams()[I].Id] = M->Args[I];
    for (const AssocTypeDecl &A : Concept->getAssocTypes()) {
      auto It = M->AssocTypes.find(A.Name);
      if (It != M->AssocTypes.end())
        S[A.ParamId] = It->second;
    }
    for (const ConceptRef &R : Concept->getRefines()) {
      std::vector<const Type *> RArgs;
      for (const Type *A : R.Args)
        RArgs.push_back(normalize(Ctx.substitute(A, S), E));
      std::shared_ptr<const RuntimeModel> RM =
          resolveModel(R.ConceptId, RArgs, E, 0, Err);
      if (!RM)
        return EvalResult::failure(
            Err.empty() ? "no model of refined concept at runtime" : Err);
      M->Refined.push_back(RM);
    }
    if (!evalMembers(T, Concept, E, *M, Err))
      return EvalResult::failure(Err);
  }

  Env BodyEnv = E;
  if (T->getModelName()) {
    auto N = std::make_shared<NamedNode>();
    N->Name = *T->getModelName();
    N->Model = M;
    N->Next = BodyEnv.Named;
    BodyEnv.Named = N;
  } else {
    BodyEnv.Models = pushModel(BodyEnv.Models, M);
  }
  return eval(T->getBody(), BodyEnv);
}

EvalResult Interpreter::eval(const Term *T, const Env &E) {
  if (++Steps > Opts.MaxSteps)
    return EvalResult::failure("evaluation exceeded the step limit");
  if (Depth >= Opts.MaxDepth)
    return EvalResult::failure("evaluation exceeded the recursion depth "
                               "limit");
  DepthGuard Guard(Depth);

  switch (T->getKind()) {
  case TermKind::IntLit:
    return EvalResult::success(
        std::make_shared<IntValue>(cast<IntLit>(T)->getValue()));
  case TermKind::BoolLit:
    return EvalResult::success(
        std::make_shared<BoolValue>(cast<BoolLit>(T)->getValue()));

  case TermKind::Var: {
    const auto *V = cast<VarTerm>(T);
    if (ValuePtr Val = lookupVar(E.Vars, V->getName()))
      return EvalResult::success(std::move(Val));
    // Unqualified member resolution (section-6 overloading): innermost
    // ground model whose concept (or a refined one) provides the name.
    // The checker guarantees the choice is unique up to shadowing.
    for (const ModelNode *N = E.Models.get(); N; N = N->Next.get()) {
      if (N->Model->Parameterized)
        continue;
      if (const ValuePtr *M = findMember(*N->Model, V->getName()))
        return EvalResult::success(*M);
    }
    return EvalResult::failure("unbound variable `" + V->getName() +
                               "` at runtime");
  }

  case TermKind::Abs:
    return EvalResult::success(
        std::make_shared<ClosureValue>(cast<AbsTerm>(T), E));
  case TermKind::TyAbs:
    return EvalResult::success(
        std::make_shared<TyClosureValue>(cast<TyAbsTerm>(T), E));

  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    EvalResult Fn = eval(A->getFn(), E);
    if (!Fn.ok())
      return Fn;
    std::vector<ValuePtr> Args;
    for (const Term *ArgT : A->getArgs()) {
      EvalResult R = eval(ArgT, E);
      if (!R.ok())
        return R;
      Args.push_back(std::move(R.Val));
    }
    return apply(Fn.Val, Args);
  }

  case TermKind::TyApp: {
    const auto *A = cast<TyAppTerm>(T);
    EvalResult Fn = eval(A->getFn(), E);
    if (!Fn.ok())
      return Fn;
    const auto *TC = dyn_cast<TyClosureValue>(Fn.Val.get());
    if (!TC)
      return Fn; // Builtins are type-erased.
    const TyAbsTerm *G = TC->getFn();
    if (G->getParams().size() != A->getTypeArgs().size())
      return EvalResult::failure("type application arity mismatch at "
                                 "runtime");
    // Bind type arguments and resolve the required models at this
    // instantiation site ("the lexical scope of the instantiation is
    // searched for a matching model declaration", section 3.1).
    Env Body = TC->getEnv();
    TypeSubst S;
    for (size_t I = 0; I != G->getParams().size(); ++I) {
      const Type *Arg = normalize(A->getTypeArgs()[I], E);
      S[G->getParams()[I].Id] = Arg;
      Body.Types = bindType(Body.Types, G->getParams()[I].Id, Arg);
    }
    for (const ConceptRef &Req : G->getRequirements()) {
      std::vector<const Type *> RArgs;
      for (const Type *Arg : Req.Args)
        RArgs.push_back(normalize(Ctx.substitute(Arg, S), E));
      std::string Err;
      std::shared_ptr<const RuntimeModel> M =
          resolveModel(Req.ConceptId, RArgs, E, 0, Err);
      if (!M)
        return EvalResult::failure(
            Err.empty() ? "no model of `" + conceptRefToString(Req) +
                              "` at runtime"
                        : Err);
      Body.Models = pushModelDeep(Body.Models, M);
    }
    return eval(G->getBody(), Body);
  }

  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    EvalResult Init = eval(L->getInit(), E);
    if (!Init.ok())
      return Init;
    Env Body = E;
    Body.Vars = bindVar(Body.Vars, L->getName(), Init.Val);
    return eval(L->getBody(), Body);
  }

  case TermKind::Tuple: {
    const auto *Tu = cast<TupleTerm>(T);
    std::vector<ValuePtr> Elems;
    for (const Term *El : Tu->getElements()) {
      EvalResult R = eval(El, E);
      if (!R.ok())
        return R;
      Elems.push_back(std::move(R.Val));
    }
    return EvalResult::success(std::make_shared<TupleValue>(std::move(Elems)));
  }

  case TermKind::Nth: {
    const auto *N = cast<NthTerm>(T);
    EvalResult R = eval(N->getTuple(), E);
    if (!R.ok())
      return R;
    const auto *Tu = dyn_cast<TupleValue>(R.Val.get());
    if (!Tu || N->getIndex() >= Tu->getElements().size())
      return EvalResult::failure("invalid tuple projection at runtime");
    return EvalResult::success(Tu->getElements()[N->getIndex()]);
  }

  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    EvalResult C = eval(I->getCond(), E);
    if (!C.ok())
      return C;
    const auto *B = dyn_cast<BoolValue>(C.Val.get());
    if (!B)
      return EvalResult::failure("`if` condition evaluated to a "
                                 "non-boolean");
    return eval(B->getValue() ? I->getThen() : I->getElse(), E);
  }

  case TermKind::Fix: {
    EvalResult R = eval(cast<FixTerm>(T)->getOperand(), E);
    if (!R.ok())
      return R;
    return EvalResult::success(std::make_shared<FixValue>(R.Val));
  }

  case TermKind::ConceptDecl: {
    const auto *C = cast<ConceptDeclTerm>(T);
    Concepts[C->getConceptId()] = C;
    return eval(C->getBody(), E);
  }

  case TermKind::ModelDecl:
    return evalModelDecl(cast<ModelDeclTerm>(T), E);

  case TermKind::MemberAccess: {
    const auto *M = cast<MemberAccessTerm>(T);
    std::vector<const Type *> Args;
    for (const Type *A : M->getArgs())
      Args.push_back(normalize(A, E));
    std::string Err;
    std::shared_ptr<const RuntimeModel> RM =
        resolveModel(M->getConceptId(), Args, E, 0, Err);
    if (!RM)
      return EvalResult::failure(
          Err.empty() ? "no model of `" + M->getConceptName() +
                            "<...>` at runtime"
                      : Err);
    if (const ValuePtr *V = findMember(*RM, M->getMember()))
      return EvalResult::success(*V);
    return EvalResult::failure("member `" + M->getMember() +
                               "` not found at runtime");
  }

  case TermKind::TypeAlias: {
    const auto *A = cast<TypeAliasTerm>(T);
    Env Body = E;
    Body.Types = bindType(Body.Types, A->getParamId(),
                          normalize(A->getAliased(), E));
    return eval(A->getBody(), Body);
  }

  case TermKind::UseModel: {
    const auto *U = cast<UseModelTerm>(T);
    const NamedNode *Found = nullptr;
    for (const NamedNode *N = E.Named.get(); N; N = N->Next.get())
      if (N->Name == U->getModelName()) {
        Found = N;
        break;
      }
    if (!Found)
      return EvalResult::failure("no named model `" + U->getModelName() +
                                 "` at runtime");
    Env Body = E;
    Body.Models = Found->Model->Parameterized
                      ? pushModel(Body.Models, Found->Model)
                      : pushModelDeep(Body.Models, Found->Model);
    return eval(U->getBody(), Body);
  }
  }
  assert(false && "unknown term kind");
  return EvalResult::failure("internal error: unknown term kind");
}

const ValuePtr *Interpreter::findMember(const RuntimeModel &M,
                                        const std::string &Name) {
  auto It = M.Members.find(Name);
  if (It != M.Members.end())
    return &It->second;
  for (const auto &R : M.Refined)
    if (const ValuePtr *V = findMember(*R, Name))
      return V;
  return nullptr;
}

EvalResult Interpreter::apply(const ValuePtr &Fn,
                              const std::vector<ValuePtr> &Args) {
  if (++Steps > Opts.MaxSteps)
    return EvalResult::failure("evaluation exceeded the step limit");
  if (Depth >= Opts.MaxDepth)
    return EvalResult::failure("evaluation exceeded the recursion depth "
                               "limit");
  DepthGuard Guard(Depth);

  switch (Fn->getKind()) {
  case ValueKind::Closure: {
    const auto *C = cast<ClosureValue>(Fn.get());
    const auto &Params = C->getFn()->getParams();
    if (Params.size() != Args.size())
      return EvalResult::failure("function called with wrong arity");
    Env E = C->getEnv();
    for (size_t I = 0; I != Args.size(); ++I)
      E.Vars = bindVar(E.Vars, Params[I].Name, Args[I]);
    return eval(C->getFn()->getBody(), E);
  }
  case ValueKind::Fix: {
    const auto *FV = cast<FixValue>(Fn.get());
    EvalResult Unrolled = apply(FV->getFn(), {Fn});
    if (!Unrolled.ok())
      return Unrolled;
    return apply(Unrolled.Val, Args);
  }
  case ValueKind::Builtin: {
    const auto *B = cast<BuiltinValue>(Fn.get());
    if (B->getArity() != Args.size())
      return EvalResult::failure("builtin `" + B->getName() +
                                 "` called with wrong arity");
    return B->invoke(Args);
  }
  default:
    return EvalResult::failure("attempt to call a non-function value");
  }
}
