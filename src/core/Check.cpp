//===- core/Check.cpp - F_G typechecker and translator --------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "core/Check.h"
#include "support/Stats.h"
#include <algorithm>
#include <cassert>
#include <set>

using namespace fg;

//===----------------------------------------------------------------------===//
// Scope management
//===----------------------------------------------------------------------===//

/// RAII wrapper so every early error return still unwinds the scope.
class Checker::ScopeRAII {
public:
  explicit ScopeRAII(Checker &C) : C(C), M(C.enterScope()) {}
  ~ScopeRAII() { C.exitScope(M); }

  ScopeRAII(const ScopeRAII &) = delete;
  ScopeRAII &operator=(const ScopeRAII &) = delete;

  Checker::ScopeMark &mark() { return M; }

private:
  Checker &C;
  Checker::ScopeMark M;
};

Checker::Checker(TypeContext &FgCtx, sf::TypeContext &SfCtx,
                 sf::TermArena &SfArena, DiagnosticEngine &Diags)
    : FgCtx(FgCtx), SfCtx(SfCtx), SfArena(SfArena), Diags(Diags), CC(FgCtx) {}

Checker::ScopeMark Checker::enterScope() {
  ScopeMark M;
  M.VarEnvSize = VarEnv.size();
  M.ModelsSize = Models.size();
  M.CCMark = CC.mark();
  return M;
}

void Checker::exitScope(const ScopeMark &M) {
  VarEnv.resize(M.VarEnvSize);
  if (Models.size() != M.ModelsSize)
    noteModelsChanged();
  Models.resize(M.ModelsSize);
  // Restore parameter bindings in reverse so nested shadowing unwinds.
  for (size_t I = M.ShadowedParams.size(); I != 0; --I) {
    const auto &[Id, Old] = M.ShadowedParams[I - 1];
    if (Old)
      ParamsInScope[Id] = *Old;
    else
      ParamsInScope.erase(Id);
  }
  CC.rollback(M.CCMark);
}

void Checker::bindParamInScope(ScopeMark &M, unsigned Id,
                               const sf::Type *SfTy) {
  auto It = ParamsInScope.find(Id);
  if (It != ParamsInScope.end())
    M.ShadowedParams.emplace_back(Id, It->second);
  else
    M.ShadowedParams.emplace_back(Id, std::nullopt);
  ParamsInScope[Id] = SfTy;
}

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

void Checker::bindGlobal(const std::string &Name, const Type *FgTy) {
  assert(VarEnv.size() == NumGlobals &&
         "globals must be bound before checking");
  VarEnv.emplace_back(Name, FgTy);
  ++NumGlobals;
}

//===----------------------------------------------------------------------===//
// Module-interface imports
//===----------------------------------------------------------------------===//

void Checker::declareConcept(ConceptInfo Info) {
  unsigned Id = Info.Id;
  Concepts[Id] = std::move(Info);
}

const ConceptInfo *Checker::findConcept(unsigned Id) const {
  auto It = Concepts.find(Id);
  return It == Concepts.end() ? nullptr : &It->second;
}

void Checker::bindImportedAlias(unsigned ParamId, const std::string &Name,
                                const Type *Target) {
  // Null image: the alias is only resolvable through the congruence
  // closure, the same representation checkTypeAlias uses.
  GlobalParams[ParamId] = nullptr;
  ParamsInScope[ParamId] = nullptr;
  CC.assertEqual(FgCtx.getParamType(ParamId, Name), Target);
}

const sf::Type *Checker::bindImportedModel(const ImportedModel &M) {
  const ModelRecord &R = M.Record;
  const ConceptInfo *Info = getConcept(R.ConceptId, SourceLocation());
  if (!Info)
    return nullptr;

  ConceptRef Head;
  Head.ConceptId = R.ConceptId;
  Head.ConceptName = Info->Name;
  Head.Args = R.Args;

  // The model's associated-type facts, C<args>.s == tau.
  std::vector<TypeEquation> AssocEqs;
  for (const auto &[Name, Ty] : R.AssocBindings)
    AssocEqs.push_back(
        {FgCtx.getAssocType(R.ConceptId, Info->Name,
                            std::vector<const Type *>(R.Args), Name),
         Ty});

  const sf::Type *DictTy = nullptr;
  if (!R.isParameterized()) {
    if (M.Name) {
      // Named: the equations only become ambient under `use`, so assert
      // them in a throwaway scope just to type the dictionary.
      ScopeRAII Scope(*this);
      for (const TypeEquation &E : AssocEqs)
        CC.assertEqual(E.Lhs, E.Rhs);
      DictTy = computeDictType(Head, SourceLocation());
    } else {
      for (const TypeEquation &E : AssocEqs)
        CC.assertEqual(E.Lhs, E.Rhs);
      DictTy = computeDictType(Head, SourceLocation());
    }
  } else {
    // Mirror checkModelDecl: the dictionary variable holds a dictionary
    // *function*  forall params, slots. fn(requirement dicts) -> dict.
    ScopeRAII Scope(*this);
    std::vector<sf::TypeParamDecl> SfParams;
    for (const TypeParamDecl &P : R.Params) {
      unsigned SfId = SfCtx.freshParamId();
      SfParams.push_back({SfId, P.Name});
      bindParamInScope(Scope.mark(), P.Id, SfCtx.getParamType(SfId, P.Name));
    }
    WhereInfo W = processWhereClause(Scope.mark(), R.Requirements,
                                     R.Equations, SourceLocation());
    if (!W.Ok)
      return nullptr;
    for (const TypeEquation &E : AssocEqs)
      CC.assertEqual(E.Lhs, E.Rhs);
    const sf::Type *HeadTy = computeDictType(Head, SourceLocation());
    if (!HeadTy)
      return nullptr;
    const sf::Type *Inner = HeadTy;
    if (!W.Dicts.empty()) {
      std::vector<const sf::Type *> DictTys;
      DictTys.reserve(W.Dicts.size());
      for (const auto &[Name, Ty] : W.Dicts)
        DictTys.push_back(Ty);
      Inner = SfCtx.getArrowType(std::move(DictTys), HeadTy);
    }
    for (const sf::TypeParamDecl &P : W.AssocParams)
      SfParams.push_back(P);
    DictTy = SfCtx.getForAllType(std::move(SfParams), Inner);
  }
  if (!DictTy)
    return nullptr;

  // Register outside any scope so the model survives check() resets;
  // named models mirror checkModelDecl's NamedModels bookkeeping.
  if (M.Name) {
    NamedModel NM{R, R.isParameterized() ? std::vector<TypeEquation>{}
                                         : AssocEqs};
    ImportedNamedModels[*M.Name] = NM;
    NamedModels[*M.Name] = std::move(NM);
  } else {
    assert(Models.size() == NumGlobalModels &&
           "imports must be bound before checking");
    Models.push_back(R);
    ++NumGlobalModels;
    noteModelsChanged();
  }
  return DictTy;
}

Checked Checker::error(SourceLocation Loc, std::string Message) {
  Diags.error(Loc, std::move(Message));
  return {};
}

std::string Checker::freshDictVar(const std::string &ConceptName) {
  return ConceptName + "$" + std::to_string(NextDictId++);
}

const sf::Term *Checker::projectPath(const sf::Term *Base,
                                     const std::vector<unsigned> &Path) {
  const sf::Term *T = Base;
  for (unsigned I : Path)
    T = SfArena.makeNth(T, I);
  return T;
}

const ConceptInfo *Checker::getConcept(unsigned Id, SourceLocation Loc) {
  auto It = Concepts.find(Id);
  if (It != Concepts.end())
    return &It->second;
  Diags.error(Loc, "reference to an undeclared concept");
  return nullptr;
}

TypeSubst Checker::conceptSubst(const ConceptInfo &Info,
                                const std::vector<const Type *> &Args) {
  assert(Args.size() == Info.Params.size() && "arity checked by callers");
  TypeSubst S;
  for (size_t I = 0; I != Info.Params.size(); ++I)
    S[Info.Params[I].Id] = Args[I];
  // Associated names map to their concept-qualified form (paper's ba).
  for (const AssocTypeDecl &A : Info.Assocs)
    S[A.ParamId] =
        FgCtx.getAssocType(Info.Id, Info.Name,
                           std::vector<const Type *>(Args), A.Name);
  return S;
}

//===----------------------------------------------------------------------===//
// Model-resolution memoization
//===----------------------------------------------------------------------===//

size_t Checker::ModelQueryKeyHash::operator()(const ModelQueryKey &K) const {
  size_t H = K.ConceptId * 0x9e3779b1u;
  for (const Type *T : K.Args)
    H ^= std::hash<const void *>()(T) + 0x9e3779b97f4a7c15ULL + (H << 6) +
         (H >> 2);
  return H;
}

void Checker::setModelCacheEnabled(bool On) {
  ModelCacheEnabled = On;
  ResolveCache.clear();
  CC.setQueryCacheEnabled(On);
}

void Checker::flushModelCachesIfStale() {
  if (CachedModelStackVersion == ModelStackVersion &&
      CachedCCVersion == CC.getVersion())
    return;
  if (!ResolveCache.empty()) {
    static std::atomic<uint64_t> &FlushCount =
        stats::Statistics::global().counter("checker.model_cache.flushes");
    ++FlushCount;
    ResolveCache.clear();
  }
  CachedModelStackVersion = ModelStackVersion;
  CachedCCVersion = CC.getVersion();
}

bool Checker::matchType(const Type *Pattern, const Type *Query,
                        const std::unordered_set<unsigned> &PatternVars,
                        TypeSubst &Binding) {
  if (const auto *P = dyn_cast<ParamType>(Pattern)) {
    if (PatternVars.count(P->getId())) {
      auto It = Binding.find(P->getId());
      if (It != Binding.end())
        return typesEqual(It->second, Query);
      Binding[P->getId()] = Query;
      return true;
    }
  }
  // Ground position: plain congruence-closure equality.
  if (typesEqual(Pattern, Query))
    return true;
  // Structural descent; if the query's head does not line up, retry on
  // its class representative (e.g. the query is an associated type the
  // closure can already resolve).
  const Type *Q = Query;
  if (Q->getKind() != Pattern->getKind())
    Q = representative(Query);
  if (Q->getKind() != Pattern->getKind())
    return false;
  switch (Pattern->getKind()) {
  case TypeKind::Arrow: {
    const auto *PA = cast<ArrowType>(Pattern);
    const auto *QA = cast<ArrowType>(Q);
    if (PA->getNumParams() != QA->getNumParams())
      return false;
    for (unsigned I = 0, E = PA->getNumParams(); I != E; ++I)
      if (!matchType(PA->getParams()[I], QA->getParams()[I], PatternVars,
                     Binding))
        return false;
    return matchType(PA->getResult(), QA->getResult(), PatternVars, Binding);
  }
  case TypeKind::Tuple: {
    const auto *PT = cast<TupleType>(Pattern);
    const auto *QT = cast<TupleType>(Q);
    if (PT->getNumElements() != QT->getNumElements())
      return false;
    for (unsigned I = 0, E = PT->getNumElements(); I != E; ++I)
      if (!matchType(PT->getElement(I), QT->getElement(I), PatternVars,
                     Binding))
        return false;
    return true;
  }
  case TypeKind::List:
    return matchType(cast<ListType>(Pattern)->getElement(),
                     cast<ListType>(Q)->getElement(), PatternVars, Binding);
  default:
    return false;
  }
}

ModelResolution Checker::resolveModel(unsigned ConceptId,
                                      const std::vector<const Type *> &Args) {
  static std::atomic<uint64_t> &ResolveCount =
      stats::Statistics::global().counter("checker.model_resolutions");
  ++ResolveCount;

  // Pre-resolve the query so syntactic matching sees concrete structure
  // where the closure already knows it.  (Both the cached and uncached
  // paths do this, so its side effects — parameterized models asserting
  // associated-type facts — happen identically with the cache off.)
  std::vector<const Type *> Query;
  Query.reserve(Args.size());
  for (const Type *A : Args)
    Query.push_back(resolveAssocs(A));

  ModelQueryKey Key;
  uint64_t CCStamp = 0, ModelStamp = 0;
  if (ModelCacheEnabled) {
    flushModelCachesIfStale();
    Key = {ConceptId, Query};
    auto It = ResolveCache.find(Key);
    if (It != ResolveCache.end()) {
      static std::atomic<uint64_t> &HitCount =
          stats::Statistics::global().counter("checker.model_cache.hits");
      ++HitCount;
      return {It->second, {}};
    }
    static std::atomic<uint64_t> &MissCount =
        stats::Statistics::global().counter("checker.model_cache.misses");
    ++MissCount;
    CCStamp = CC.getVersion();
    ModelStamp = ModelStackVersion;
  }
  // Stores below are gated on the stamps still matching: an answer
  // computed while the closure advanced mid-scan is returned uncached.
  auto Cacheable = [&] {
    return ModelCacheEnabled && CC.getVersion() == CCStamp &&
           ModelStackVersion == ModelStamp;
  };

  for (size_t I = Models.size(); I != 0; --I) {
    const ModelRecord &M = Models[I - 1];
    if (M.ConceptId != ConceptId || M.Args.size() != Args.size())
      continue;
    if (!M.isParameterized()) {
      bool Match = true;
      for (size_t K = 0; Match && K != Args.size(); ++K)
        Match = typesEqual(M.Args[K], Args[K]);
      if (Match) {
        int Idx = static_cast<int>(I - 1);
        if (Cacheable())
          ResolveCache.emplace(std::move(Key), Idx);
        return {Idx, {}};
      }
      continue;
    }
    std::unordered_set<unsigned> Vars;
    for (const TypeParamDecl &P : M.Params)
      Vars.insert(P.Id);
    TypeSubst B;
    bool Match = true;
    for (size_t K = 0; Match && K != Args.size(); ++K)
      Match = matchType(M.Args[K], Query[K], Vars, B);
    if (!Match || B.size() != Vars.size())
      continue;
    // Publish the instantiated associated-type assignments (scoped to
    // the current checking scope).  The assertions make this branch
    // side-effecting, so parameterized resolutions are never cached.
    for (const auto &[Name, Ty] : M.AssocBindings) {
      const Type *Qualified = FgCtx.getAssocType(
          ConceptId, Concepts[ConceptId].Name,
          std::vector<const Type *>(Args), Name);
      CC.assertEqual(Qualified, FgCtx.substitute(Ty, B));
    }
    return {static_cast<int>(I - 1), std::move(B)};
  }
  if (Cacheable())
    ResolveCache.emplace(std::move(Key), -1);
  return {-1, {}};
}

const sf::Term *Checker::buildModelDict(const ModelResolution &R,
                                        SourceLocation Loc, unsigned Depth) {
  if (Depth > 64) {
    Diags.error(Loc, "model resolution exceeded the recursion limit "
                     "(mutually recursive parameterized models?)");
    return nullptr;
  }
  assert(R.found() && "buildModelDict requires a resolution");
  const ModelRecord &M = Models[R.Index];
  if (M.Virtual) {
    Diags.error(Loc, "the model is still being declared and has no "
                     "dictionary yet");
    return nullptr;
  }
  if (!M.isParameterized())
    return projectPath(SfArena.makeVar(M.DictVar), M.Path);

  // Instantiate the dictionary function: resolve the model's own
  // requirements first (their associated types feed the slot types).
  std::vector<const sf::Term *> DictArgs;
  for (const ConceptRef &Req : M.Requirements) {
    ConceptRef Inst = FgCtx.substitute(Req, R.Binding);
    ModelResolution Sub = resolveModel(Inst.ConceptId, Inst.Args);
    if (!Sub.found()) {
      Diags.error(Loc, "no model of `" + conceptRefToString(Inst) +
                           "` is in scope (required by a parameterized "
                           "model)");
      return nullptr;
    }
    const sf::Term *D = buildModelDict(Sub, Loc, Depth + 1);
    if (!D)
      return nullptr;
    DictArgs.push_back(D);
  }
  for (const TypeEquation &E : M.Equations) {
    TypeEquation Inst = FgCtx.substitute(E, R.Binding);
    if (!typesEqual(Inst.Lhs, Inst.Rhs)) {
      Diags.error(Loc, "same-type constraint `" + typeToString(Inst.Lhs) +
                           " == " + typeToString(Inst.Rhs) +
                           "` of a parameterized model is not satisfied");
      return nullptr;
    }
  }

  std::vector<const sf::Type *> SfArgs;
  for (const TypeParamDecl &P : M.Params) {
    auto It = R.Binding.find(P.Id);
    assert(It != R.Binding.end() && "unbound pattern variable");
    const sf::Type *A = sfTypeOfImpl(It->second, Loc);
    if (!A)
      return nullptr;
    SfArgs.push_back(A);
  }
  for (const AssocSlot &Slot :
       collectAssocSlots(M.Requirements, M.Requirements)) {
    std::vector<const Type *> SlotArgs;
    for (const Type *A : Slot.Args)
      SlotArgs.push_back(FgCtx.substitute(A, R.Binding));
    const Type *Qualified = FgCtx.getAssocType(
        Slot.ConceptId, Concepts[Slot.ConceptId].Name, std::move(SlotArgs),
        Slot.Name);
    const sf::Type *A = sfTypeOfImpl(Qualified, Loc);
    if (!A)
      return nullptr;
    SfArgs.push_back(A);
  }

  const sf::Term *Expr = SfArena.makeTyApp(SfArena.makeVar(M.DictVar),
                                           std::move(SfArgs));
  if (!M.Requirements.empty())
    Expr = SfArena.makeApp(Expr, std::move(DictArgs));
  return Expr;
}

//===----------------------------------------------------------------------===//
// Type well-formedness (Figures 8 and 12, left-hand judgements)
//===----------------------------------------------------------------------===//

bool Checker::checkTypeWellFormed(const Type *T, SourceLocation Loc) {
  auto ChildrenWellFormed = [&] {
    return allChildren(
        T, [&](const Type *C) { return checkTypeWellFormed(C, Loc); });
  };
  switch (T->getKind()) {
  case TypeKind::Param: {
    const auto *P = cast<ParamType>(T);
    if (ParamsInScope.count(P->getId()))
      return true;
    Diags.error(Loc, "type variable `" + P->getName() + "` is not in scope");
    return false;
  }
  case TypeKind::Assoc: {
    const auto *A = cast<AssocType>(T);
    const ConceptInfo *Info = getConcept(A->getConceptId(), Loc);
    if (!Info)
      return false;
    if (A->getArgs().size() != Info->Params.size()) {
      Diags.error(Loc, "concept `" + Info->Name + "` expects " +
                           std::to_string(Info->Params.size()) +
                           " type argument(s) but got " +
                           std::to_string(A->getArgs().size()));
      return false;
    }
    bool HasAssoc = false;
    for (const AssocTypeDecl &D : Info->Assocs)
      HasAssoc |= D.Name == A->getMember();
    if (!HasAssoc) {
      Diags.error(Loc, "concept `" + Info->Name +
                           "` has no associated type named `" +
                           A->getMember() + "`");
      return false;
    }
    if (!ChildrenWellFormed())
      return false;
    // Rule TYASC: an associated type is only meaningful where a model of
    // the concept is in scope.  Concept declarations are exempt — their
    // member types are re-checked at every use site.
    if (!InConceptDecl &&
        !resolveModel(A->getConceptId(), A->getArgs()).found()) {
      Diags.error(Loc, "no model of `" + conceptRefToString(ConceptRef{
                           A->getConceptId(), A->getConceptName(),
                           A->getArgs()}) +
                           "` is in scope for associated type `" +
                           typeToString(T) + "`");
      return false;
    }
    return true;
  }
  case TypeKind::ForAll: {
    const auto *F = cast<ForAllType>(T);
    // Checking under the binder requires entering it: open it with its
    // own parameters, then check requirements sequentially the same way
    // processWhereClause will.  A full dress rehearsal (including dict
    // types) would be redundant; translation performs it.  Here we check
    // the pieces that do not need the proxy models of *later*
    // requirements, which is exactly the paper's sequential rule.
    ScopeRAII Scope(*this);
    const ForAllParts &Open = enterForAll(F, Scope.mark(), nullptr);
    WhereInfo W = processWhereClause(Scope.mark(), Open.Requirements,
                                     Open.Equations, Loc);
    if (!W.Ok)
      return false;
    return checkTypeWellFormed(Open.Body, Loc);
  }
  default:
    return ChildrenWellFormed();
  }
}

const Checker::OpenedForAll &Checker::openForAll(const ForAllType *F) {
  auto [It, Inserted] = OpenedForAlls.try_emplace(F);
  OpenedForAll &O = It->second;
  if (Inserted) {
    std::vector<const Type *> Args;
    for (const std::string &Name : F->getParamNames()) {
      O.Params.push_back({FgCtx.freshParamId(), Name});
      Args.push_back(FgCtx.getParamType(O.Params.back().Id, Name));
    }
    O.Parts = FgCtx.open(F, Args);
  }
  return O;
}

const ForAllParts &
Checker::enterForAll(const ForAllType *F, ScopeMark &Scope,
                     std::vector<sf::TypeParamDecl> *SfParams) {
  const OpenedForAll &O = openForAll(F);
  for (const TypeParamDecl &P : O.Params) {
    const sf::Type *SfTy = nullptr;
    if (SfParams) {
      SfParams->push_back({SfCtx.freshParamId(), P.Name});
      SfTy = SfCtx.getParamType(SfParams->back().Id, P.Name);
    }
    bindParamInScope(Scope, P.Id, SfTy);
  }
  return O.Parts;
}

//===----------------------------------------------------------------------===//
// Type translation (Figures 8 and 12)
//===----------------------------------------------------------------------===//

const sf::Type *Checker::sfTypeOf(const Type *T, SourceLocation Loc) {
  return sfTypeOfImpl(T, Loc);
}

const sf::Type *Checker::sfTypeOfImpl(const Type *T, SourceLocation Loc) {
  switch (T->getKind()) {
  case TypeKind::Int:
    return SfCtx.getIntType();
  case TypeKind::Bool:
    return SfCtx.getBoolType();

  case TypeKind::Param:
  case TypeKind::Assoc: {
    // Translate to the representative of the equivalence class (paper
    // section 5.2: "the translation outputs the representative for each
    // type expression").
    const Type *R = representative(T);
    if (R != T) {
      if (!TranslationInProgress.insert(T).second) {
        Diags.error(Loc, "cyclic same-type constraint involving `" +
                             typeToString(T) + "`");
        return nullptr;
      }
      const sf::Type *Out = sfTypeOfImpl(R, Loc);
      TranslationInProgress.erase(T);
      return Out;
    }
    if (const auto *P = dyn_cast<ParamType>(T)) {
      auto It = ParamsInScope.find(P->getId());
      if (It != ParamsInScope.end() && It->second)
        return It->second;
      Diags.error(Loc, "type variable `" + P->getName() +
                           "` has no System F image in this scope");
      return nullptr;
    }
    // A parameterized model may be able to resolve the associated type
    // even though the closure has no ground fact yet.
    const auto *A = cast<AssocType>(T);
    if (TranslationInProgress.insert(T).second) {
      ModelResolution Res = resolveModel(A->getConceptId(), A->getArgs());
      TranslationInProgress.erase(T);
      if (Res.found()) {
        const Type *R2 = representative(T);
        if (R2 != T)
          return sfTypeOfImpl(R2, Loc);
      }
    }
    Diags.error(Loc, "associated type `" + typeToString(T) +
                         "` cannot be resolved in this scope");
    return nullptr;
  }

  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    std::vector<const sf::Type *> Params;
    Params.reserve(A->getNumParams());
    for (const Type *P : A->getParams()) {
      const sf::Type *SP = sfTypeOfImpl(P, Loc);
      if (!SP)
        return nullptr;
      Params.push_back(SP);
    }
    const sf::Type *Res = sfTypeOfImpl(A->getResult(), Loc);
    if (!Res)
      return nullptr;
    return SfCtx.getArrowType(std::move(Params), Res);
  }

  case TypeKind::Tuple: {
    std::vector<const sf::Type *> Elems;
    for (const Type *E : cast<TupleType>(T)->getElements()) {
      const sf::Type *SE = sfTypeOfImpl(E, Loc);
      if (!SE)
        return nullptr;
      Elems.push_back(SE);
    }
    return SfCtx.getTupleType(std::move(Elems));
  }

  case TypeKind::List: {
    const sf::Type *E = sfTypeOfImpl(cast<ListType>(T)->getElement(), Loc);
    return E ? SfCtx.getListType(E) : nullptr;
  }

  case TypeKind::ForAll:
    return sfTypeOfForAll(cast<ForAllType>(T), Loc);
  case TypeKind::Bound: // Foralls are entered opened.
    break;
  }
  assert(false && "unknown type kind");
  return nullptr;
}

const sf::Type *Checker::sfTypeOfForAll(const ForAllType *F,
                                        SourceLocation Loc) {
  // forall t where c<sigma>, eqs. tau
  //   ~~>  forall t, s'. fn(delta...) -> tau'     (rule TYTABS)
  ScopeRAII Scope(*this);
  std::vector<sf::TypeParamDecl> SfParams;
  const ForAllParts &Open = enterForAll(F, Scope.mark(), &SfParams);
  WhereInfo W = processWhereClause(Scope.mark(), Open.Requirements,
                                   Open.Equations, Loc);
  if (!W.Ok)
    return nullptr;
  const sf::Type *Body = sfTypeOfImpl(Open.Body, Loc);
  if (!Body)
    return nullptr;
  for (const sf::TypeParamDecl &P : W.AssocParams)
    SfParams.push_back(P);
  if (W.Dicts.empty())
    return SfCtx.getForAllType(std::move(SfParams), Body);
  std::vector<const sf::Type *> DictTys;
  DictTys.reserve(W.Dicts.size());
  for (const auto &[Name, Ty] : W.Dicts)
    DictTys.push_back(Ty);
  return SfCtx.getForAllType(std::move(SfParams),
                             SfCtx.getArrowType(std::move(DictTys), Body));
}

//===----------------------------------------------------------------------===//
// Where-clause machinery (paper's bw / bm / ba / b)
//===----------------------------------------------------------------------===//

/// Slot-dedup key: a concept instantiated at particular (hash-consed)
/// argument types; value equality, matching the paper's "keep track of
/// which concepts (with particular type arguments) have already been
/// processed".
struct Checker::WhereState {
  WhereInfo *Info = nullptr;
  ScopeMark *Scope = nullptr;
  std::set<std::pair<unsigned, std::vector<const Type *>>> SeenSlots;
};

std::vector<Checker::AssocSlot>
Checker::collectAssocSlots(const std::vector<ConceptRef> &Reqs,
                           const std::vector<ConceptRef> &Keys) {
  std::vector<AssocSlot> Slots;
  std::set<std::pair<unsigned, std::vector<const Type *>>> Seen;

  // Depth-first over the refinement diagram, visiting each instantiated
  // concept once; must mirror registerRequirement exactly.
  auto Visit = [&](auto &&Self, const ConceptRef &Ref,
                   const ConceptRef &Key) -> void {
    auto It = Concepts.find(Ref.ConceptId);
    if (It == Concepts.end())
      return; // Diagnosed elsewhere.
    const ConceptInfo &Info = It->second;
    if (Ref.Args.size() != Info.Params.size())
      return;
    if (!Seen.insert({Key.ConceptId, Key.Args}).second)
      return;
    for (const AssocTypeDecl &A : Info.Assocs)
      Slots.push_back({Ref.ConceptId, Ref.Args, A.Name});
    TypeSubst S = conceptSubst(Info, Ref.Args);
    TypeSubst KeyS = conceptSubst(Info, Key.Args);
    for (const ConceptRef &R : Info.Refines)
      Self(Self, FgCtx.substitute(R, S), FgCtx.substitute(R, KeyS));
  };
  for (size_t I = 0; I != Reqs.size(); ++I)
    Visit(Visit, Reqs[I], Keys[I]);
  return Slots;
}

bool Checker::registerRequirement(const ConceptRef &Ref,
                                  const std::string &DictVar,
                                  std::vector<unsigned> Path,
                                  SourceLocation Loc) {
  assert(CurWhere && "registerRequirement outside a where clause");
  const ConceptInfo *Info = getConcept(Ref.ConceptId, Loc);
  if (!Info)
    return false;
  if (Ref.Args.size() != Info->Params.size()) {
    Diags.error(Loc, "concept `" + Info->Name + "` expects " +
                         std::to_string(Info->Params.size()) +
                         " type argument(s) but got " +
                         std::to_string(Ref.Args.size()));
    return false;
  }

  // Introduce one fresh type parameter per associated type, with the
  // defining equation s' == c<sigma>.s, unless this concept instance has
  // already been visited (diamond refinement, section 5.2).
  if (CurWhere->SeenSlots.insert({Ref.ConceptId, Ref.Args}).second) {
    for (const AssocTypeDecl &A : Info->Assocs) {
      const Type *Qualified = FgCtx.getAssocType(
          Info->Id, Info->Name, std::vector<const Type *>(Ref.Args), A.Name);
      const Type *FreshFg = FgCtx.freshParam(A.Name);
      unsigned SfId = SfCtx.freshParamId();
      const sf::Type *FreshSf = SfCtx.getParamType(SfId, A.Name);
      bindParamInScope(*CurWhere->Scope,
                       cast<ParamType>(FreshFg)->getId(), FreshSf);
      CC.assertEqual(FreshFg, Qualified);
      CurWhere->Info->AssocParams.push_back({SfId, A.Name});
      CurWhere->Info->SlotParams.emplace_back(
          cast<ParamType>(FreshFg)->getId(), Qualified);
    }
  }

  TypeSubst S = conceptSubst(*Info, Ref.Args);

  // Refinements contribute nested dictionaries at positions 0..k-1.
  for (size_t I = 0; I != Info->Refines.size(); ++I) {
    ConceptRef Sub = FgCtx.substitute(Info->Refines[I], S);
    std::vector<unsigned> SubPath = Path;
    SubPath.push_back(static_cast<unsigned>(I));
    if (!registerRequirement(Sub, DictVar, std::move(SubPath), Loc))
      return false;
  }

  // The requirement acts as a proxy model declaration (paper: "the model
  // requirements in the where clause serve as proxies for actual model
  // declarations").
  ModelRecord Proxy;
  Proxy.ConceptId = Ref.ConceptId;
  Proxy.Args = Ref.Args;
  Proxy.DictVar = DictVar;
  Proxy.Path = std::move(Path);
  Models.push_back(std::move(Proxy));
  noteModelsChanged();

  // The concept's own same-type constraints hold for any model.
  for (const TypeEquation &E : Info->Equations) {
    TypeEquation Inst = FgCtx.substitute(E, S);
    CC.assertEqual(Inst.Lhs, Inst.Rhs);
  }
  return true;
}

const sf::Type *Checker::computeDictType(const ConceptRef &Ref,
                                         SourceLocation Loc) {
  const ConceptInfo *Info = getConcept(Ref.ConceptId, Loc);
  if (!Info)
    return nullptr;
  TypeSubst S = conceptSubst(*Info, Ref.Args);
  std::vector<const sf::Type *> Elems;
  Elems.reserve(Info->Refines.size() + Info->Members.size());
  for (const ConceptRef &R : Info->Refines) {
    const sf::Type *Sub = computeDictType(FgCtx.substitute(R, S), Loc);
    if (!Sub)
      return nullptr;
    Elems.push_back(Sub);
  }
  for (const ConceptMember &M : Info->Members) {
    const sf::Type *MT = sfTypeOfImpl(FgCtx.substitute(M.Ty, S), Loc);
    if (!MT)
      return nullptr;
    Elems.push_back(MT);
  }
  return SfCtx.getTupleType(std::move(Elems));
}

Checker::WhereInfo
Checker::processWhereClause(ScopeMark &Scope,
                            const std::vector<ConceptRef> &Reqs,
                            const std::vector<TypeEquation> &Eqs,
                            SourceLocation Loc) {
  WhereInfo W;
  WhereState State;
  State.Info = &W;
  State.Scope = &Scope;
  WhereState *SavedWhere = CurWhere;
  CurWhere = &State;

  // Pass 1: requirements left to right; later requirements may mention
  // associated types of earlier ones (paper: "processed sequentially").
  std::vector<std::string> DictVars;
  for (const ConceptRef &Req : Reqs) {
    bool ArgsOk = true;
    for (const Type *A : Req.Args)
      ArgsOk &= checkTypeWellFormed(A, Loc);
    if (!ArgsOk) {
      CurWhere = SavedWhere;
      return W;
    }
    std::string DictVar = freshDictVar(Req.ConceptName);
    if (!registerRequirement(Req, DictVar, {}, Loc)) {
      CurWhere = SavedWhere;
      return W;
    }
    DictVars.push_back(std::move(DictVar));
  }
  CurWhere = SavedWhere;

  // Pass 2: same-type constraints from the where clause.  These are
  // asserted before dictionary types are computed so that member types
  // translate to the merged class representatives (the paper's merge
  // example: only elt1 appears in the dictionary types).
  for (const TypeEquation &E : Eqs) {
    if (!checkTypeWellFormed(E.Lhs, Loc) || !checkTypeWellFormed(E.Rhs, Loc))
      return W;
    CC.assertEqual(E.Lhs, E.Rhs);
  }

  // Pass 3: dictionary types.
  for (size_t I = 0; I != Reqs.size(); ++I) {
    const sf::Type *DictTy = computeDictType(Reqs[I], Loc);
    if (!DictTy)
      return W;
    W.Dicts.emplace_back(DictVars[I], DictTy);
  }
  W.Ok = true;
  return W;
}

const Type *Checker::resolveAssocs(const Type *T) {
  if (isa<AssocType>(T)) {
    const Type *R = representative(T);
    if (R == T && TranslationInProgress.insert(T).second) {
      // Give parameterized models a chance to produce a ground fact.
      const auto *A = cast<AssocType>(T);
      ModelResolution Res = resolveModel(A->getConceptId(), A->getArgs());
      TranslationInProgress.erase(T);
      if (Res.found())
        R = representative(T);
    }
    if (R != T && TranslationInProgress.insert(T).second) {
      const Type *Out = resolveAssocs(R);
      TranslationInProgress.erase(T);
      return Out;
    }
  }
  const auto *F = dyn_cast<ForAllType>(T);
  if (!F)
    return mapChildren(FgCtx, T,
                       [this](const Type *C) { return resolveAssocs(C); });
  // Resolve a forall's parts opened at its own parameters, so that no
  // index reaches model resolution or the closure, then close it again.
  const OpenedForAll &O = openForAll(F);
  ForAllParts Parts =
      mapParts(O.Parts, [this](const Type *C) { return resolveAssocs(C); });
  return FgCtx.getForAllType(O.Params, std::move(Parts.Requirements),
                             std::move(Parts.Equations), Parts.Body);
}

//===----------------------------------------------------------------------===//
// The paper's b function: member lookup through refinement
//===----------------------------------------------------------------------===//

bool Checker::findMember(unsigned ConceptId,
                         const std::vector<const Type *> &Args,
                         const std::string &Member, const Type *&TyOut,
                         std::vector<unsigned> &PathOut) {
  auto It = Concepts.find(ConceptId);
  if (It == Concepts.end())
    return false;
  const ConceptInfo &Info = It->second;
  if (Args.size() != Info.Params.size())
    return false;
  TypeSubst S = conceptSubst(Info, Args);
  // Own members shadow inherited ones.
  for (size_t J = 0; J != Info.Members.size(); ++J) {
    if (Info.Members[J].Name != Member)
      continue;
    TyOut = FgCtx.substitute(Info.Members[J].Ty, S);
    PathOut.push_back(static_cast<unsigned>(Info.Refines.size() + J));
    return true;
  }
  for (size_t I = 0; I != Info.Refines.size(); ++I) {
    ConceptRef Sub = FgCtx.substitute(Info.Refines[I], S);
    PathOut.push_back(static_cast<unsigned>(I));
    if (findMember(Sub.ConceptId, Sub.Args, Member, TyOut, PathOut))
      return true;
    PathOut.pop_back();
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Main judgement
//===----------------------------------------------------------------------===//

Checked Checker::check(const Term *Program) {
  stats::ScopedTimer Timer("checker.check");
  static std::atomic<uint64_t> &ProgramCount =
      stats::Statistics::global().counter("checker.programs");
  ++ProgramCount;
  // Reset any state left over from a previous program, keeping the
  // global layer (builtins plus anything the module loader imported).
  VarEnv.resize(NumGlobals);
  Models.resize(NumGlobalModels);
  noteModelsChanged();
  NamedModels = ImportedNamedModels;
  ParamsInScope = GlobalParams;
  TranslationInProgress.clear();
  CurWhere = nullptr;
  InConceptDecl = false;
  Congruence::Mark Top = CC.mark();
  Checked Result = checkTerm(Program);
  if (Result.ok() && !AllowConceptEscape) {
    // The System F image of the program type — the right-hand side of
    // Theorem 2's equality, which the frontend compares against the
    // type the independent System F checker assigns to the translation.
    // Must happen before the rollback below: an open result type only
    // translates while the program's same-type knowledge is alive.
    // Export probes are excluded (their type deliberately leaks the
    // module's concepts, which sfTypeOf would reject).  The translation
    // is speculative: if it fails, drop its diagnostics and leave SfTy
    // null rather than failing a program that checked fine.
    size_t DiagMark = Diags.size();
    Result.SfTy = sfTypeOfImpl(Result.Ty, SourceLocation());
    if (!Result.SfTy)
      Diags.truncate(DiagMark);
  }
  CC.rollback(Top);
  return Result;
}

Checked Checker::checkTerm(const Term *T) {
  switch (T->getKind()) {
  case TermKind::IntLit:
    return {FgCtx.getIntType(),
            SfArena.makeIntLit(cast<IntLit>(T)->getValue())};
  case TermKind::BoolLit:
    return {FgCtx.getBoolType(),
            SfArena.makeBoolLit(cast<BoolLit>(T)->getValue())};

  case TermKind::Var: {
    const auto *V = cast<VarTerm>(T);
    for (size_t I = VarEnv.size(); I != 0; --I)
      if (VarEnv[I - 1].first == V->getName())
        return {VarEnv[I - 1].second, SfArena.makeVar(V->getName())};

    // Section-6 "statically resolved overloading", in its essential
    // form: a bare name that is not a variable but names a member of
    // exactly one model in scope resolves as that member access,
    // removing the clutter of `Monoid<t>.binary_op`.  Two candidates
    // from *different* concept instances are ambiguous (the paper's s/t
    // Monoid example); shadowed models of the same instance are not.
    struct Candidate {
      size_t ModelIdx;
      const Type *Ty;
      std::vector<unsigned> Path;
      // The concept instance that *owns* the member (end of the
      // refinement path): two routes to the same owner are one member.
      unsigned OwnerConcept;
      std::vector<const Type *> OwnerArgs;
    };
    // Follows a member path down the refinement tree to the owner.
    auto OwnerOf = [this](unsigned Cid, std::vector<const Type *> Args,
                          const std::vector<unsigned> &Path) {
      for (unsigned Idx : Path) {
        const ConceptInfo &Info = Concepts[Cid];
        if (Idx >= Info.Refines.size())
          break; // The member position itself.
        ConceptRef Sub =
            FgCtx.substitute(Info.Refines[Idx], conceptSubst(Info, Args));
        Cid = Sub.ConceptId;
        Args = std::move(Sub.Args);
      }
      return std::make_pair(Cid, std::move(Args));
    };
    std::vector<Candidate> Candidates;
    for (size_t I = Models.size(); I != 0; --I) {
      const ModelRecord &M = Models[I - 1];
      if (M.Virtual || M.isParameterized())
        continue;
      const Type *MemberTy = nullptr;
      std::vector<unsigned> MemberPath;
      if (!findMember(M.ConceptId, M.Args, V->getName(), MemberTy,
                      MemberPath))
        continue;
      auto [OwnC, OwnA] = OwnerOf(M.ConceptId, M.Args, MemberPath);
      bool Shadowed = false;
      for (const Candidate &C : Candidates) {
        if (C.OwnerConcept != OwnC || C.OwnerArgs.size() != OwnA.size())
          continue;
        bool Same = true;
        for (size_t K = 0; Same && K != OwnA.size(); ++K)
          Same = typesEqual(C.OwnerArgs[K], OwnA[K]);
        Shadowed |= Same;
      }
      if (!Shadowed)
        Candidates.push_back({I - 1, MemberTy, std::move(MemberPath), OwnC,
                              std::move(OwnA)});
    }
    if (Candidates.size() == 1) {
      const Candidate &C = Candidates[0];
      const ModelRecord &M = Models[C.ModelIdx];
      std::vector<unsigned> FullPath = M.Path;
      FullPath.insert(FullPath.end(), C.Path.begin(), C.Path.end());
      return {C.Ty, projectPath(SfArena.makeVar(M.DictVar), FullPath)};
    }
    if (Candidates.size() > 1) {
      std::string Options;
      for (const Candidate &C : Candidates) {
        const ModelRecord &M = Models[C.ModelIdx];
        if (!Options.empty())
          Options += ", ";
        Options += conceptRefToString(ConceptRef{
            M.ConceptId, Concepts[M.ConceptId].Name, M.Args});
      }
      return error(T->getLoc(), "unqualified member `" + V->getName() +
                                    "` is ambiguous between models of " +
                                    Options +
                                    "; qualify it as `C<...>." +
                                    V->getName() + "`");
    }
    return error(T->getLoc(), "unbound variable `" + V->getName() + "`");
  }

  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    ScopeRAII Scope(*this);
    std::vector<const Type *> ParamTys;
    std::vector<sf::ParamBinding> SfParams;
    for (const ParamBinding &P : A->getParams()) {
      if (!checkTypeWellFormed(P.Ty, T->getLoc()))
        return {};
      const sf::Type *SfTy = sfTypeOfImpl(P.Ty, T->getLoc());
      if (!SfTy)
        return {};
      VarEnv.emplace_back(P.Name, P.Ty);
      ParamTys.push_back(P.Ty);
      SfParams.push_back({P.Name, SfTy});
    }
    Checked Body = checkTerm(A->getBody());
    if (!Body.ok())
      return {};
    return {FgCtx.getArrowType(std::move(ParamTys), Body.Ty),
            SfArena.makeAbs(std::move(SfParams), Body.Sf)};
  }

  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    Checked Fn = checkTerm(A->getFn());
    if (!Fn.ok())
      return {};
    const auto *Arrow = dyn_cast<ArrowType>(representative(Fn.Ty));
    if (!Arrow)
      return error(T->getLoc(),
                   "applied expression has non-function type `" +
                       typeToString(Fn.Ty) + "`");
    if (Arrow->getNumParams() != A->getArgs().size())
      return error(T->getLoc(),
                   "function expects " +
                       std::to_string(Arrow->getNumParams()) +
                       " argument(s) but " +
                       std::to_string(A->getArgs().size()) +
                       " were supplied");
    std::vector<const sf::Term *> SfArgs;
    for (size_t I = 0; I != A->getArgs().size(); ++I) {
      Checked Arg = checkTerm(A->getArgs()[I]);
      if (!Arg.ok())
        return {};
      // Rule APP: argument and parameter types need only be equal
      // modulo the same-type constraints in scope.
      if (!typesEqual(Arg.Ty, Arrow->getParams()[I]))
        return error(A->getArgs()[I]->getLoc(),
                     "argument " + std::to_string(I + 1) + " has type `" +
                         typeToString(Arg.Ty) + "` but `" +
                         typeToString(Arrow->getParams()[I]) +
                         "` was expected");
      SfArgs.push_back(Arg.Sf);
    }
    return {Arrow->getResult(), SfArena.makeApp(Fn.Sf, std::move(SfArgs))};
  }

  case TermKind::TyAbs:
    return checkTyAbs(cast<TyAbsTerm>(T));
  case TermKind::TyApp:
    return checkTyApp(cast<TyAppTerm>(T));

  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    Checked Init = checkTerm(L->getInit());
    if (!Init.ok())
      return {};
    ScopeRAII Scope(*this);
    VarEnv.emplace_back(L->getName(), Init.Ty);
    Checked Body = checkTerm(L->getBody());
    if (!Body.ok())
      return {};
    return {Body.Ty, SfArena.makeLet(L->getName(), Init.Sf, Body.Sf)};
  }

  case TermKind::Tuple: {
    const auto *Tu = cast<TupleTerm>(T);
    std::vector<const Type *> Tys;
    std::vector<const sf::Term *> Sfs;
    for (const Term *E : Tu->getElements()) {
      Checked C = checkTerm(E);
      if (!C.ok())
        return {};
      Tys.push_back(C.Ty);
      Sfs.push_back(C.Sf);
    }
    return {FgCtx.getTupleType(std::move(Tys)),
            SfArena.makeTuple(std::move(Sfs))};
  }

  case TermKind::Nth: {
    const auto *N = cast<NthTerm>(T);
    Checked Tup = checkTerm(N->getTuple());
    if (!Tup.ok())
      return {};
    const auto *TT = dyn_cast<TupleType>(representative(Tup.Ty));
    if (!TT)
      return error(T->getLoc(), "`nth` applied to non-tuple type `" +
                                    typeToString(Tup.Ty) + "`");
    if (N->getIndex() >= TT->getNumElements())
      return error(T->getLoc(),
                   "tuple index " + std::to_string(N->getIndex()) +
                       " out of range for `" + typeToString(Tup.Ty) + "`");
    return {TT->getElement(N->getIndex()),
            SfArena.makeNth(Tup.Sf, N->getIndex())};
  }

  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    Checked Cond = checkTerm(I->getCond());
    if (!Cond.ok())
      return {};
    if (!typesEqual(Cond.Ty, FgCtx.getBoolType()))
      return error(I->getCond()->getLoc(),
                   "`if` condition has type `" + typeToString(Cond.Ty) +
                       "` but `bool` was expected");
    Checked Then = checkTerm(I->getThen());
    Checked Else = checkTerm(I->getElse());
    if (!Then.ok() || !Else.ok())
      return {};
    if (!typesEqual(Then.Ty, Else.Ty))
      return error(T->getLoc(), "`if` branches have different types `" +
                                    typeToString(Then.Ty) + "` and `" +
                                    typeToString(Else.Ty) + "`");
    return {Then.Ty, SfArena.makeIf(Cond.Sf, Then.Sf, Else.Sf)};
  }

  case TermKind::Fix: {
    const auto *F = cast<FixTerm>(T);
    Checked Op = checkTerm(F->getOperand());
    if (!Op.ok())
      return {};
    const auto *Arrow = dyn_cast<ArrowType>(representative(Op.Ty));
    if (!Arrow || Arrow->getNumParams() != 1 ||
        !typesEqual(Arrow->getParams()[0], Arrow->getResult()))
      return error(T->getLoc(),
                   "`fix` operand must have type `fn(s) -> s`, got `" +
                       typeToString(Op.Ty) + "`");
    if (!isa<ArrowType>(representative(Arrow->getResult())))
      return error(T->getLoc(), "`fix` is restricted to function types, "
                                "got `" +
                                    typeToString(Arrow->getResult()) + "`");
    return {Arrow->getResult(), SfArena.makeFix(Op.Sf)};
  }

  case TermKind::ConceptDecl:
    return checkConceptDecl(cast<ConceptDeclTerm>(T));
  case TermKind::ModelDecl:
    return checkModelDecl(cast<ModelDeclTerm>(T));
  case TermKind::MemberAccess:
    return checkMemberAccess(cast<MemberAccessTerm>(T));
  case TermKind::TypeAlias:
    return checkTypeAlias(cast<TypeAliasTerm>(T));
  case TermKind::UseModel:
    return checkUseModel(cast<UseModelTerm>(T));
  }
  assert(false && "unknown term kind");
  return {};
}

//===----------------------------------------------------------------------===//
// Rule CPT — concept declarations
//===----------------------------------------------------------------------===//

Checked Checker::checkConceptDecl(const ConceptDeclTerm *T) {
  // Well-formedness of the declaration under its own parameters and
  // associated types.
  {
    ScopeRAII Scope(*this);
    bool SavedInConceptDecl = InConceptDecl;
    InConceptDecl = true;
    for (const TypeParamDecl &P : T->getParams())
      bindParamInScope(Scope.mark(), P.Id, nullptr);
    for (const AssocTypeDecl &A : T->getAssocTypes())
      bindParamInScope(Scope.mark(), A.ParamId, nullptr);

    auto Fail = [&](SourceLocation Loc, std::string Msg) {
      InConceptDecl = SavedInConceptDecl;
      return error(Loc, std::move(Msg));
    };

    // Duplicate associated-type names.
    for (size_t I = 0; I != T->getAssocTypes().size(); ++I)
      for (size_t J = I + 1; J != T->getAssocTypes().size(); ++J)
        if (T->getAssocTypes()[I].Name == T->getAssocTypes()[J].Name)
          return Fail(T->getLoc(), "duplicate associated type `" +
                                       T->getAssocTypes()[I].Name +
                                       "` in concept `" + T->getName() + "`");

    for (const ConceptRef &R : T->getRefines()) {
      const ConceptInfo *Refined = getConcept(R.ConceptId, T->getLoc());
      if (!Refined) {
        InConceptDecl = SavedInConceptDecl;
        return {};
      }
      if (R.Args.size() != Refined->Params.size())
        return Fail(T->getLoc(),
                    "refined concept `" + Refined->Name + "` expects " +
                        std::to_string(Refined->Params.size()) +
                        " type argument(s) but got " +
                        std::to_string(R.Args.size()));
      for (const Type *A : R.Args)
        if (!checkTypeWellFormed(A, T->getLoc())) {
          InConceptDecl = SavedInConceptDecl;
          return {};
        }
    }

    for (size_t I = 0; I != T->getMembers().size(); ++I) {
      for (size_t J = I + 1; J != T->getMembers().size(); ++J)
        if (T->getMembers()[I].Name == T->getMembers()[J].Name)
          return Fail(T->getMembers()[J].Loc,
                      "duplicate member `" + T->getMembers()[I].Name +
                          "` in concept `" + T->getName() + "`");
      if (!checkTypeWellFormed(T->getMembers()[I].Ty,
                               T->getMembers()[I].Loc)) {
        InConceptDecl = SavedInConceptDecl;
        return {};
      }
    }

    for (const TypeEquation &E : T->getEquations())
      if (!checkTypeWellFormed(E.Lhs, T->getLoc()) ||
          !checkTypeWellFormed(E.Rhs, T->getLoc())) {
        InConceptDecl = SavedInConceptDecl;
        return {};
      }
    InConceptDecl = SavedInConceptDecl;
  }

  ConceptInfo Info;
  Info.Id = T->getConceptId();
  Info.Name = T->getName();
  Info.Params = T->getParams();
  Info.Assocs = T->getAssocTypes();
  Info.Refines = T->getRefines();
  Info.Members = T->getMembers();
  Info.Equations = T->getEquations();
  Concepts.emplace(Info.Id, std::move(Info));

  Checked Body = checkTerm(T->getBody());
  if (!Body.ok())
    return {};

  // Rule CPT side condition: c must not occur in the result type.
  // Module export probes lift this (setAllowConceptEscape): the escape
  // is the export, and importers see the concept via the interface.
  if (!AllowConceptEscape) {
    std::unordered_set<unsigned> Used;
    FgCtx.collectConceptIds(Body.Ty, Used);
    if (Used.count(T->getConceptId()))
      return error(T->getLoc(), "concept `" + T->getName() +
                                    "` escapes its scope in the type `" +
                                    typeToString(Body.Ty) + "`");
  }
  return Body;
}

//===----------------------------------------------------------------------===//
// Rule MDL — model declarations
//===----------------------------------------------------------------------===//

Checked Checker::checkModelDecl(const ModelDeclTerm *T) {
  const ConceptInfo *Info = getConcept(T->getConceptId(), T->getLoc());
  if (!Info)
    return {};
  if (T->getArgs().size() != Info->Params.size())
    return error(T->getLoc(), "concept `" + Info->Name + "` expects " +
                                  std::to_string(Info->Params.size()) +
                                  " type argument(s) but got " +
                                  std::to_string(T->getArgs().size()));

  std::string DictVar = freshDictVar(Info->Name);
  ModelRecord Record;
  Record.ConceptId = T->getConceptId();
  Record.Args = T->getArgs();
  Record.DictVar = DictVar;
  Record.Params = T->getParams();
  Record.Requirements = T->getRequirements();
  Record.Equations = T->getEquations();
  std::vector<TypeEquation> AssocEqs;

  // The head, members and dictionary are checked under the pattern
  // variables (if any); the declaration's own where clause supplies
  // proxy models exactly as at a generic function (rule TABS).
  const sf::Term *DictInit = nullptr;
  std::vector<std::pair<std::string, const sf::Term *>> OuterLets;
  {
    ScopeRAII ParamScope(*this);
    std::vector<sf::TypeParamDecl> SfParams;
    for (const TypeParamDecl &P : T->getParams()) {
      unsigned SfId = SfCtx.freshParamId();
      SfParams.push_back({SfId, P.Name});
      bindParamInScope(ParamScope.mark(), P.Id,
                       SfCtx.getParamType(SfId, P.Name));
    }
    WhereInfo W;
    W.Ok = true;
    if (T->isParameterized()) {
      // Every pattern variable must be determined by matching the
      // argument patterns.
      std::unordered_set<unsigned> FreeInArgs;
      for (const Type *A : T->getArgs())
        FgCtx.collectFreeParams(A, FreeInArgs);
      for (const TypeParamDecl &P : T->getParams())
        if (!FreeInArgs.count(P.Id))
          return error(T->getLoc(),
                       "pattern variable `" + P.Name +
                           "` does not occur in the model's type "
                           "arguments");
      W = processWhereClause(ParamScope.mark(), T->getRequirements(),
                             T->getEquations(), T->getLoc());
      if (!W.Ok)
        return {};
    }
    for (const Type *A : T->getArgs())
      if (!checkTypeWellFormed(A, T->getLoc()))
        return {};

    // Associated type assignments: every declared associated type must
    // be assigned exactly once, and nothing else may be assigned.
    TypeSubst S;
    for (size_t I = 0; I != Info->Params.size(); ++I)
      S[Info->Params[I].Id] = T->getArgs()[I];
    for (const AssocBinding &B : T->getAssocBindings()) {
      const AssocTypeDecl *Decl = nullptr;
      for (const AssocTypeDecl &A : Info->Assocs)
        if (A.Name == B.Name)
          Decl = &A;
      if (!Decl)
        return error(T->getLoc(), "concept `" + Info->Name +
                                      "` has no associated type named `" +
                                      B.Name + "`");
      if (S.count(Decl->ParamId))
        return error(T->getLoc(),
                     "associated type `" + B.Name + "` assigned twice");
      if (!checkTypeWellFormed(B.Ty, T->getLoc()))
        return {};
      S[Decl->ParamId] = B.Ty;
    }
    for (const AssocTypeDecl &A : Info->Assocs)
      if (!S.count(A.ParamId))
        return error(T->getLoc(), "model must assign associated type `" +
                                      A.Name + "` of concept `" +
                                      Info->Name + "`");

    // Make this model's own associated assignments available while the
    // dictionary is built (member types may mention them indirectly).
    for (const AssocTypeDecl &A : Info->Assocs) {
      const Type *Qualified = FgCtx.getAssocType(
          Info->Id, Info->Name, std::vector<const Type *>(T->getArgs()),
          A.Name);
      AssocEqs.push_back({Qualified, S[A.ParamId]});
      Record.AssocBindings.emplace_back(A.Name, S[A.ParamId]);
      CC.assertEqual(Qualified, S[A.ParamId]);
    }

    // Refinements: a model of each refined concept must be available
    // (ground or parameterized); its dictionary is embedded.
    std::vector<const sf::Term *> DictElems;
    for (const ConceptRef &R : Info->Refines) {
      ConceptRef Sub = FgCtx.substitute(R, S);
      ModelResolution Res = resolveModel(Sub.ConceptId, Sub.Args);
      if (!Res.found())
        return error(T->getLoc(), "model of refined concept `" +
                                      conceptRefToString(Sub) +
                                      "` must be in scope");
      const sf::Term *D = buildModelDict(Res, T->getLoc());
      if (!D)
        return {};
      DictElems.push_back(D);
    }

    // The concept's same-type requirements must hold for this model.
    for (const TypeEquation &E : Info->Equations) {
      TypeEquation Inst = FgCtx.substitute(E, S);
      if (!typesEqual(Inst.Lhs, Inst.Rhs))
        return error(T->getLoc(),
                     "same-type requirement `" + typeToString(Inst.Lhs) +
                         " == " + typeToString(Inst.Rhs) +
                         "` of concept `" + Info->Name +
                         "` is not satisfied by this model");
    }

    // Members, in the concept's declaration order (the dictionary
    // layout of Figure 7).  Members are checked in the *enclosing*
    // environment: a model's operations cannot recursively use the
    // model itself.
    for (const ModelMember &MM : T->getMembers()) {
      bool Known = false;
      for (const ConceptMember &CM : Info->Members)
        Known |= CM.Name == MM.Name;
      if (!Known)
        return error(MM.Loc, "concept `" + Info->Name +
                                 "` has no member named `" + MM.Name + "`");
    }
    for (size_t I = 0; I != T->getMembers().size(); ++I)
      for (size_t J = I + 1; J != T->getMembers().size(); ++J)
        if (T->getMembers()[I].Name == T->getMembers()[J].Name)
          return error(T->getMembers()[J].Loc,
                       "member `" + T->getMembers()[I].Name +
                           "` defined twice in model");

    // Each member value is let-bound so that later defaults can use
    // earlier members (section-6 extension); the dictionary tuple then
    // references the bound variables.
    std::vector<std::pair<std::string, const sf::Term *>> MemberLets;
    std::unordered_map<std::string, std::string> MemberVars;
    for (const ConceptMember &CM : Info->Members) {
      const ModelMember *Def = nullptr;
      for (const ModelMember &MM : T->getMembers())
        if (MM.Name == CM.Name)
          Def = &MM;
      const Type *Expected = FgCtx.substitute(CM.Ty, S);
      Checked Val;
      if (Def) {
        Val = checkTerm(Def->Init);
        if (!Val.ok())
          return {};
        if (!typesEqual(Val.Ty, Expected))
          return error(Def->Loc, "member `" + CM.Name + "` has type `" +
                                     typeToString(Val.Ty) +
                                     "` but concept `" + Info->Name +
                                     "` requires `" +
                                     typeToString(Expected) + "`");
      } else {
        // Section-6 extension: fall back to the concept's default body,
        // which may use the members defined so far.
        if (!CM.Default)
          return error(T->getLoc(), "model is missing member `" + CM.Name +
                                        "` of concept `" + Info->Name +
                                        "`");
        Val = checkDefaultMember(*Info, CM, S, Expected, T, MemberVars);
        if (!Val.ok())
          return {};
      }
      std::string Var = freshDictVar(Info->Name + "." + CM.Name);
      MemberLets.emplace_back(Var, Val.Sf);
      MemberVars[CM.Name] = Var;
      DictElems.push_back(SfArena.makeVar(Var));
    }

    const sf::Term *Tuple = SfArena.makeTuple(std::move(DictElems));
    if (T->isParameterized()) {
      // The dictionary becomes a dictionary *function*:
      //   /\ params, slots. \ dicts. let members in tuple
      const sf::Term *Inner = Tuple;
      for (size_t I = MemberLets.size(); I != 0; --I)
        Inner = SfArena.makeLet(MemberLets[I - 1].first,
                                MemberLets[I - 1].second, Inner);
      if (!W.Dicts.empty()) {
        std::vector<sf::ParamBinding> DictParams;
        for (const auto &[Name, Ty] : W.Dicts)
          DictParams.push_back({Name, Ty});
        Inner = SfArena.makeAbs(std::move(DictParams), Inner);
      }
      for (const sf::TypeParamDecl &P : W.AssocParams)
        SfParams.push_back(P);
      DictInit = SfArena.makeTyAbs(std::move(SfParams), Inner);
    } else {
      DictInit = Tuple;
      OuterLets = std::move(MemberLets);
    }
  } // Pattern scope (and its proxy models/equations) ends here.

  Checked Body;
  if (T->getModelName()) {
    // Named model (section 6): declared but not ambient.
    auto Saved = NamedModels.find(*T->getModelName());
    std::optional<NamedModel> Shadowed;
    if (Saved != NamedModels.end())
      Shadowed = Saved->second;
    NamedModels[*T->getModelName()] = {
        Record, T->isParameterized() ? std::vector<TypeEquation>{}
                                     : AssocEqs};
    Body = checkTerm(T->getBody());
    if (Shadowed)
      NamedModels[*T->getModelName()] = *Shadowed;
    else
      NamedModels.erase(*T->getModelName());
  } else {
    ScopeRAII Scope(*this);
    Models.push_back(Record);
    noteModelsChanged();
    if (!T->isParameterized())
      for (const TypeEquation &E : AssocEqs)
        CC.assertEqual(E.Lhs, E.Rhs);
    Body = checkTerm(T->getBody());
    // Resolve associated types against this model's equations before
    // they go out of scope (e.g. `Iterator<list int>.elt` -> `int`).
    if (Body.ok())
      Body.Ty = resolveAssocs(Body.Ty);
  }
  if (!Body.ok())
    return {};
  const sf::Term *Out = SfArena.makeLet(DictVar, DictInit, Body.Sf);
  for (size_t I = OuterLets.size(); I != 0; --I)
    Out = SfArena.makeLet(OuterLets[I - 1].first, OuterLets[I - 1].second,
                          Out);
  return {Body.Ty, Out};
}

Checked Checker::checkDefaultMember(
    const ConceptInfo &Info, const ConceptMember &CM, const TypeSubst &S,
    const Type *Expected, const ModelDeclTerm *T,
    const std::unordered_map<std::string, std::string> &MemberVars) {
  ScopeRAII Scope(*this);
  // The default body was written against the concept's own parameters
  // and associated types; bind them and identify them with the model's
  // assignments so annotations and member accesses resolve.
  for (const TypeParamDecl &P : Info.Params) {
    bindParamInScope(Scope.mark(), P.Id, nullptr);
    CC.assertEqual(FgCtx.getParamType(P.Id, P.Name), S.at(P.Id));
  }
  for (const AssocTypeDecl &A : Info.Assocs) {
    bindParamInScope(Scope.mark(), A.ParamId, nullptr);
    CC.assertEqual(FgCtx.getParamType(A.ParamId, A.Name), S.at(A.ParamId));
    CC.assertEqual(FgCtx.getAssocType(Info.Id, Info.Name,
                                      std::vector<const Type *>(T->getArgs()),
                                      A.Name),
                   S.at(A.ParamId));
  }
  // A virtual model of the concept being modelled: own members resolve
  // to the already let-bound member variables.
  ModelRecord Virt;
  Virt.ConceptId = Info.Id;
  Virt.Args = T->getArgs();
  Virt.Virtual = true;
  Virt.MemberVars = MemberVars;
  Models.push_back(std::move(Virt));
  noteModelsChanged();
  Checked Val = checkTerm(CM.Default);
  if (!Val.ok())
    return {};
  // Compare against the expected type here, while the parameter
  // identifications above are still in the congruence closure.
  if (!typesEqual(Val.Ty, Expected))
    return error(CM.Loc, "default for member `" + CM.Name + "` has type `" +
                             typeToString(Val.Ty) + "` but `" +
                             typeToString(Expected) + "` was expected");
  Val.Ty = Expected;
  return Val;
}

Checked Checker::checkUseModel(const UseModelTerm *T) {
  auto It = NamedModels.find(T->getModelName());
  if (It == NamedModels.end())
    return error(T->getLoc(),
                 "no named model `" + T->getModelName() + "` in scope");
  ScopeRAII Scope(*this);
  Models.push_back(It->second.Record);
  noteModelsChanged();
  for (const TypeEquation &E : It->second.AssocEquations)
    CC.assertEqual(E.Lhs, E.Rhs);
  Checked Body = checkTerm(T->getBody());
  if (Body.ok())
    Body.Ty = resolveAssocs(Body.Ty);
  return Body;
}

//===----------------------------------------------------------------------===//
// Rule TABS — generic functions
//===----------------------------------------------------------------------===//

Checked Checker::checkTyAbs(const TyAbsTerm *T) {
  ScopeRAII Scope(*this);
  std::vector<sf::TypeParamDecl> SfParams;
  for (const TypeParamDecl &P : T->getParams()) {
    unsigned SfId = SfCtx.freshParamId();
    SfParams.push_back({SfId, P.Name});
    bindParamInScope(Scope.mark(), P.Id, SfCtx.getParamType(SfId, P.Name));
  }
  WhereInfo W = processWhereClause(Scope.mark(), T->getRequirements(),
                                   T->getEquations(), T->getLoc());
  if (!W.Ok)
    return {};
  Checked Body = checkTerm(T->getBody());
  if (!Body.ok())
    return {};

  // Fold the fresh associated-type parameters back into their qualified
  // c<sigma>.s form so the quantified type stays closed.
  const Type *BodyTy = Body.Ty;
  if (!W.SlotParams.empty()) {
    TypeSubst Back;
    for (const auto &[Id, Qualified] : W.SlotParams)
      Back[Id] = Qualified;
    BodyTy = FgCtx.substitute(BodyTy, Back);
  }

  const Type *FgTy =
      FgCtx.getForAllType(T->getParams(), T->getRequirements(),
                          T->getEquations(), BodyTy);

  for (const sf::TypeParamDecl &P : W.AssocParams)
    SfParams.push_back(P);
  const sf::Term *Inner = Body.Sf;
  if (!W.Dicts.empty()) {
    std::vector<sf::ParamBinding> DictParams;
    DictParams.reserve(W.Dicts.size());
    for (const auto &[Name, Ty] : W.Dicts)
      DictParams.push_back({Name, Ty});
    Inner = SfArena.makeAbs(std::move(DictParams), Inner);
  }
  return {FgTy, SfArena.makeTyAbs(std::move(SfParams), Inner)};
}

//===----------------------------------------------------------------------===//
// Rule TAPP — instantiation
//===----------------------------------------------------------------------===//

Checked Checker::checkTyApp(const TyAppTerm *T) {
  Checked Fn = checkTerm(T->getFn());
  if (!Fn.ok())
    return {};
  const auto *FA = dyn_cast<ForAllType>(representative(Fn.Ty));
  if (!FA)
    return error(T->getLoc(),
                 "type application of non-generic expression of type `" +
                     typeToString(Fn.Ty) + "`");
  if (FA->getNumParams() != T->getTypeArgs().size())
    return error(T->getLoc(),
                 "expected " + std::to_string(FA->getNumParams()) +
                     " type argument(s) but got " +
                     std::to_string(T->getTypeArgs().size()));

  std::vector<const sf::Type *> SfTypeArgs;
  for (const Type *Arg : T->getTypeArgs()) {
    if (!checkTypeWellFormed(Arg, T->getLoc()))
      return {};
    const sf::Type *SfArg = sfTypeOfImpl(Arg, T->getLoc());
    if (!SfArg)
      return {};
    SfTypeArgs.push_back(SfArg);
  }
  ForAllParts Open = FgCtx.open(FA, T->getTypeArgs());

  // Look up a model for each requirement (implicit dictionary passing).
  std::vector<const sf::Term *> DictArgs;
  for (const ConceptRef &Inst : Open.Requirements) {
    ModelResolution Res = resolveModel(Inst.ConceptId, Inst.Args);
    if (!Res.found())
      return error(T->getLoc(), "no model of `" + conceptRefToString(Inst) +
                                    "` is in scope");
    if (Models[Res.Index].Virtual)
      return error(T->getLoc(),
                   "the model of `" + conceptRefToString(Inst) +
                       "` is still being declared and cannot satisfy a "
                       "where clause inside its own default");
    const sf::Term *D = buildModelDict(Res, T->getLoc());
    if (!D)
      return {};
    DictArgs.push_back(D);
  }

  // Check the same-type constraints of the where clause.
  for (const TypeEquation &Inst : Open.Equations) {
    if (!typesEqual(Inst.Lhs, Inst.Rhs))
      return error(T->getLoc(),
                   "same-type constraint `" + typeToString(Inst.Lhs) +
                       " == " + typeToString(Inst.Rhs) +
                       "` is not satisfied at this instantiation");
  }

  // Fill in the type arguments for the associated-type slots, in the
  // same deterministic order abstraction introduced them (section 5.2).
  // Diamonds are found as there, on the requirements opened at distinct
  // parameters.
  const std::vector<ConceptRef> &Keys =
      Open.Requirements.empty() ? Open.Requirements
                                : openForAll(FA).Parts.Requirements;
  for (const AssocSlot &Slot : collectAssocSlots(Open.Requirements, Keys)) {
    const Type *Qualified = FgCtx.getAssocType(
        Slot.ConceptId, Concepts[Slot.ConceptId].Name, Slot.Args, Slot.Name);
    const sf::Type *SfArg = sfTypeOfImpl(Qualified, T->getLoc());
    if (!SfArg)
      return {};
    SfTypeArgs.push_back(SfArg);
  }

  const Type *ResultTy = Open.Body;
  const sf::Term *SfTerm = SfArena.makeTyApp(Fn.Sf, std::move(SfTypeArgs));
  if (!Open.Requirements.empty())
    SfTerm = SfArena.makeApp(SfTerm, std::move(DictArgs));
  return {ResultTy, SfTerm};
}

//===----------------------------------------------------------------------===//
// Rule MEM — model member access
//===----------------------------------------------------------------------===//

Checked Checker::checkMemberAccess(const MemberAccessTerm *T) {
  for (const Type *A : T->getArgs())
    if (!checkTypeWellFormed(A, T->getLoc()))
      return {};
  ModelResolution Res = resolveModel(T->getConceptId(), T->getArgs());
  if (!Res.found())
    return error(T->getLoc(),
                 "no model of `" +
                     conceptRefToString(ConceptRef{T->getConceptId(),
                                                   T->getConceptName(),
                                                   T->getArgs()}) +
                     "` is in scope");
  const Type *MemberTy = nullptr;
  std::vector<unsigned> MemberPath;
  if (!findMember(T->getConceptId(), T->getArgs(), T->getMember(), MemberTy,
                  MemberPath))
    return error(T->getLoc(), "concept `" + T->getConceptName() +
                                  "` has no member named `" +
                                  T->getMember() + "`");
  const ModelRecord &M = Models[Res.Index];
  if (M.Virtual) {
    const ConceptInfo &Info = Concepts[T->getConceptId()];
    // Own member: resolve to the let-bound member variable if it has
    // been defined yet.
    if (MemberPath.size() == 1 && MemberPath[0] >= Info.Refines.size()) {
      auto VarIt = M.MemberVars.find(T->getMember());
      if (VarIt == M.MemberVars.end())
        return error(T->getLoc(),
                     "default may only use members defined before `" +
                         T->getMember() + "` in concept `" + Info.Name +
                         "`");
      return {MemberTy, SfArena.makeVar(VarIt->second)};
    }
    // Inherited member: go through the refined concept's real model,
    // which rule MDL guarantees is in scope.
    unsigned RefIdx = MemberPath[0];
    ConceptRef Sub = FgCtx.substitute(Info.Refines[RefIdx],
                                      conceptSubst(Info, T->getArgs()));
    ModelResolution Res2 = resolveModel(Sub.ConceptId, Sub.Args);
    if (!Res2.found() || Models[Res2.Index].Virtual)
      return error(T->getLoc(), "no model of `" + conceptRefToString(Sub) +
                                    "` is in scope");
    const sf::Term *Base2 = buildModelDict(Res2, T->getLoc());
    if (!Base2)
      return {};
    return {MemberTy,
            projectPath(Base2, std::vector<unsigned>(MemberPath.begin() + 1,
                                                     MemberPath.end()))};
  }
  const sf::Term *Base = buildModelDict(Res, T->getLoc());
  if (!Base)
    return {};
  return {MemberTy, projectPath(Base, MemberPath)};
}

//===----------------------------------------------------------------------===//
// Rule ALS — type aliases
//===----------------------------------------------------------------------===//

Checked Checker::checkTypeAlias(const TypeAliasTerm *T) {
  if (!checkTypeWellFormed(T->getAliased(), T->getLoc()))
    return {};
  const Type *AliasParam = FgCtx.getParamType(T->getParamId(), T->getName());
  Checked Body;
  {
    ScopeRAII Scope(*this);
    bindParamInScope(Scope.mark(), T->getParamId(), nullptr);
    CC.assertEqual(AliasParam, T->getAliased());
    Body = checkTerm(T->getBody());
  }
  if (!Body.ok())
    return {};
  // The alias must not escape: substitute it away in the result type.
  TypeSubst S;
  S[T->getParamId()] = T->getAliased();
  return {FgCtx.substitute(Body.Ty, S), Body.Sf};
}
