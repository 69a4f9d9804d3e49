//===- systemf/Specialize.cpp - Whole-program specialization --------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Specialize.h"
#include "systemf/Optimize.h"
#include "systemf/TermOps.h"
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace fg;
using namespace fg::sf;

namespace {

/// The structural size of a type, for the per-application blow-up
/// guard: nested instantiation chains double their argument size every
/// level, so capping it bounds the clone cascade.
size_t typeSize(const Type *T) {
  size_t N = 1;
  allChildren(T, [&](const Type *C) {
    N += typeSize(C);
    return true;
  });
  return N;
}

//===--------------------------------------------------------------------===//
// specialize-tyapps
//===--------------------------------------------------------------------===//

/// Clones let-bound type abstractions at the concrete type-argument
/// vectors they are applied to.  `let f = Λt.e in ... f[int] ...`
/// becomes `let f = Λt.e in let f$sN = e[int/t] in ... f$sN ...`; the
/// baseline passes then inline and reduce the clone, and the next
/// pipeline iteration specializes any type applications the clone body
/// exposed (the pipeline is the worklist).  A per-run cache keyed on
/// (binding, type-args) makes repeated and recursive instantiations
/// share one clone.
///
/// Type applications of prelude builtins (`car[int]` in a loop body)
/// carry no body to clone; those are hoisted to a single top-level
/// anchor let per instantiation so every use becomes a variable
/// reference instead of a per-evaluation dispatch.
class TypeAppSpecializer {
public:
  TypeAppSpecializer(TermArena &Arena, TypeContext &Ctx,
                     const std::unordered_set<std::string> *Hoistable,
                     SpecializeCounters &Counters, unsigned &NextCloneId,
                     size_t NodeBudget, size_t MaxTypeArgSize)
      : Arena(Arena), Ctx(Ctx), Hoistable(Hoistable), Counters(Counters),
        NextCloneId(NextCloneId), BudgetRemaining(NodeBudget),
        MaxTypeArgSize(MaxTypeArgSize) {}

  const Term *run(const Term *T) {
    const Term *R = visit(T);
    for (size_t I = TopAnchors.size(); I-- != 0;)
      R = Arena.makeLet(TopAnchors[I].first, TopAnchors[I].second, R);
    return R;
  }

private:
  /// One specializable definition: a let whose init is a type
  /// abstraction with a pure body.  Null entries in the scope stack
  /// mark opaque binders that merely shadow.
  struct Def {
    const TyAbsTerm *TyAbs = nullptr;
    std::unordered_map<std::string, std::string> Cache; // type-key → clone
    std::vector<std::pair<std::string, const Term *>> Clones;
  };

  bool typeClosed(const Type *Ty) {
    std::unordered_set<unsigned> Free;
    Ctx.collectFreeParams(Ty, Free);
    return Free.empty();
  }

  static std::string typeKey(const std::vector<const Type *> &Args) {
    // Types are hash-consed, so the pointer identifies the type.
    std::string Key;
    for (const Type *Arg : Args) {
      Key += '#';
      Key += std::to_string(reinterpret_cast<uintptr_t>(Arg));
    }
    return Key;
  }

  bool isShadowed(const std::string &Name) const {
    auto It = Scope.find(Name);
    return It != Scope.end() && !It->second.empty();
  }

  /// True when \p T is a type application of an unshadowed hoistable
  /// (builtin) variable at closed arguments; \p Key then identifies the
  /// instantiation.
  bool builtinTyAppKey(const Term *T, std::string &Key) {
    const auto *A = dyn_cast<TyAppTerm>(T);
    if (!A)
      return false;
    const auto *V = dyn_cast<VarTerm>(A->getFn());
    if (!V || !Hoistable || !Hoistable->count(V->getName()) ||
        isShadowed(V->getName()))
      return false;
    for (const Type *Arg : A->getTypeArgs())
      if (!typeClosed(Arg))
        return false;
    Key = V->getName() + typeKey(A->getTypeArgs());
    return true;
  }

  void pushOpaque(const std::string &Name) { Scope[Name].push_back(nullptr); }
  void pop(const std::string &Name) { Scope[Name].pop_back(); }

  const Term *visit(const Term *T) {
    switch (T->getKind()) {
    case TermKind::Abs: {
      const auto *A = cast<AbsTerm>(T);
      for (const ParamBinding &P : A->getParams())
        pushOpaque(P.Name);
      const Term *R = visitChildren(T);
      for (const ParamBinding &P : A->getParams())
        pop(P.Name);
      return R;
    }

    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      // A let whose init is exactly a builtin instantiation is an
      // *anchor*: leave the init alone and let uses of the same
      // instantiation below resolve to this binding, otherwise the
      // hoister would re-anchor its own output forever.
      std::string AliasKey;
      bool IsAnchor = builtinTyAppKey(L->getInit(), AliasKey);
      const Term *Init = IsAnchor ? L->getInit() : visit(L->getInit());

      Def D;
      if (const auto *TA = dyn_cast<TyAbsTerm>(Init))
        // The clone is placed inside this let's body, so a body that
        // references an outer binding with this let's own name would be
        // captured there — skip such (pathological) definitions.
        if (isPureTerm(TA->getBody()) &&
            countVarOccurrences(TA->getBody(), L->getName()) == 0)
          D.TyAbs = TA;
      Scope[L->getName()].push_back(D.TyAbs ? &D : nullptr);
      if (IsAnchor)
        AliasScope[AliasKey].push_back(L->getName());

      const Term *Body = visit(L->getBody());

      Scope[L->getName()].pop_back();
      if (IsAnchor)
        AliasScope[AliasKey].pop_back();

      if (Init == L->getInit() && Body == L->getBody() && D.Clones.empty())
        return T;
      // First-created clone outermost; later clones may not reference
      // earlier ones (they come from the same definition body), but the
      // order keeps the output readable.
      for (size_t I = D.Clones.size(); I-- != 0;)
        Body = Arena.makeLet(D.Clones[I].first, D.Clones[I].second, Body);
      return Arena.makeLet(L->getName(), Init, Body);
    }

    case TermKind::TyApp: {
      const auto *A = cast<TyAppTerm>(T);
      std::string Key;
      if (builtinTyAppKey(T, Key)) {
        auto AS = AliasScope.find(Key);
        if (AS != AliasScope.end() && !AS->second.empty()) {
          ++Counters.CacheHits;
          return Arena.makeVar(AS->second.back());
        }
        auto TC = TopCache.find(Key);
        if (TC != TopCache.end()) {
          ++Counters.CacheHits;
          return Arena.makeVar(TC->second);
        }
        const auto *V = cast<VarTerm>(A->getFn());
        std::string Name = V->getName() + "$s" + std::to_string(NextCloneId++);
        TopCache.emplace(Key, Name);
        TopAnchors.emplace_back(Name, T);
        ++Counters.ClonesCreated;
        return Arena.makeVar(Name);
      }

      const Term *Fn = visit(A->getFn());
      if (const auto *V = dyn_cast<VarTerm>(Fn)) {
        auto It = Scope.find(V->getName());
        Def *D = (It != Scope.end() && !It->second.empty()) ? It->second.back()
                                                            : nullptr;
        if (D && D->TyAbs->getParams().size() == A->getTypeArgs().size()) {
          bool Closed = true;
          size_t ArgSize = 0;
          for (const Type *Arg : A->getTypeArgs()) {
            Closed &= typeClosed(Arg);
            ArgSize += typeSize(Arg);
          }
          if (Closed) {
            if (ArgSize > MaxTypeArgSize) {
              ++Counters.BudgetHits;
            } else {
              std::string ArgsKey = typeKey(A->getTypeArgs());
              auto Hit = D->Cache.find(ArgsKey);
              if (Hit != D->Cache.end()) {
                ++Counters.CacheHits;
                return Arena.makeVar(Hit->second);
              }
              size_t CloneSize = countTermNodes(D->TyAbs->getBody());
              if (CloneSize > BudgetRemaining) {
                ++Counters.BudgetHits;
              } else {
                BudgetRemaining -= CloneSize;
                TypeSubst S;
                for (size_t I = 0; I != D->TyAbs->getParams().size(); ++I)
                  S[D->TyAbs->getParams()[I].Id] = A->getTypeArgs()[I];
                std::string CloneName =
                    V->getName() + "$s" + std::to_string(NextCloneId++);
                const Term *CloneInit =
                    substituteTermTypes(Arena, Ctx, D->TyAbs->getBody(), S);
                D->Cache.emplace(ArgsKey, CloneName);
                D->Clones.emplace_back(CloneName, CloneInit);
                ++Counters.ClonesCreated;
                return Arena.makeVar(CloneName);
              }
            }
          }
        }
      }
      return Fn == A->getFn() ? T : Arena.makeTyApp(Fn, A->getTypeArgs());
    }

    default:
      return visitChildren(T);
    }
  }

  const Term *visitChildren(const Term *T) {
    return mapChildren(Arena, T, [this](const Term *C) { return visit(C); });
  }

  TermArena &Arena;
  TypeContext &Ctx;
  const std::unordered_set<std::string> *Hoistable;
  SpecializeCounters &Counters;
  unsigned &NextCloneId;
  size_t BudgetRemaining;
  size_t MaxTypeArgSize;

  std::unordered_map<std::string, std::vector<Def *>> Scope;
  /// Instantiation key → anchor-binding names currently in scope.
  std::unordered_map<std::string, std::vector<std::string>> AliasScope;
  /// Instantiation key → top-level anchor created this run.
  std::unordered_map<std::string, std::string> TopCache;
  std::vector<std::pair<std::string, const Term *>> TopAnchors;
};

//===--------------------------------------------------------------------===//
// devirtualize-dicts
//===--------------------------------------------------------------------===//

/// Constant-propagates the element-wise *shape* of statically known
/// dictionary records through let/app chains and rewrites member
/// projections `nth d k` into direct references to the model's witness.
///
/// A dictionary whose elements are not all simple is first split into
/// per-element anchor lets (`let d$aN = witness in let d = (.., d$aN, ..)`)
/// so a projection has a variable to resolve to; anchors of nested
/// records (refinements, associated types) carry shapes of their own,
/// so chains like `nth (nth d 0) 1` resolve through them.  Binding
/// identity (a per-binder id checked at every use) keeps shadowing
/// honest.
///
/// Applications of literal lambdas with at least one impure argument —
/// the residual the baseline beta pass must refuse — are rewritten to
/// `let`s of the arguments (same evaluation order, no closure
/// construction), which the baseline passes then reduce further.
class DictDevirtualizer {
public:
  DictDevirtualizer(TermArena &Arena, SpecializeCounters &Counters,
                    unsigned &NextAnchorId, unsigned &NextBetaId,
                    unsigned &NextRename)
      : Arena(Arena), Counters(Counters), NextAnchorId(NextAnchorId),
        NextBetaId(NextBetaId), NextRename(NextRename) {}

  const Term *run(const Term *T) { return visit(T); }

private:
  struct Elem {
    enum Kind { None, Var, Lit } K = None;
    std::string Name; ///< Var: the witness variable.
    unsigned Id = 0;  ///< Var: binding id (0 = free at registration).
    const Term *Node = nullptr; ///< Lit: the literal.
  };
  using Shape = std::shared_ptr<std::vector<Elem>>;

  struct Binding {
    unsigned Id;
    Shape S; ///< Null when the binder's value is unknown.
  };

  unsigned pushBinder(const std::string &Name, Shape S) {
    unsigned Id = ++NextBindId;
    Env[Name].push_back({Id, std::move(S)});
    return Id;
  }
  void popBinder(const std::string &Name) { Env[Name].pop_back(); }

  const Binding *lookup(const std::string &Name) const {
    auto It = Env.find(Name);
    if (It == Env.end() || It->second.empty())
      return nullptr;
    return &It->second.back();
  }

  /// A recorded element is only usable while the binding it named still
  /// means the same thing at the use site.
  bool elemValid(const Elem &E) const {
    const Binding *B = lookup(E.Name);
    return E.Id == 0 ? B == nullptr : (B && B->Id == E.Id);
  }

  static bool isSimple(const Term *T) {
    switch (T->getKind()) {
    case TermKind::IntLit:
    case TermKind::BoolLit:
    case TermKind::Var:
      return true;
    default:
      return false;
    }
  }

  Shape makeShape(const TupleTerm *Tu) {
    auto S = std::make_shared<std::vector<Elem>>();
    for (const Term *E : Tu->getElements()) {
      Elem El;
      if (const auto *V = dyn_cast<VarTerm>(E)) {
        El.K = Elem::Var;
        El.Name = V->getName();
        const Binding *B = lookup(V->getName());
        El.Id = B ? B->Id : 0;
      } else if (isSimple(E)) {
        El.K = Elem::Lit;
        El.Node = E;
      }
      S->push_back(std::move(El));
    }
    return S;
  }

  /// Resolves the shape a term denotes, through variables and nested
  /// projection chains; null when unknown.
  Shape shapeOf(const Term *T) {
    if (const auto *V = dyn_cast<VarTerm>(T)) {
      const Binding *B = lookup(V->getName());
      return B ? B->S : nullptr;
    }
    if (const auto *N = dyn_cast<NthTerm>(T)) {
      Shape S = shapeOf(N->getTuple());
      if (!S || N->getIndex() >= S->size())
        return nullptr;
      const Elem &El = (*S)[N->getIndex()];
      if (El.K != Elem::Var || !elemValid(El))
        return nullptr;
      const Binding *B = lookup(El.Name);
      return B ? B->S : nullptr;
    }
    return nullptr;
  }

  /// True when \p T projects from \p Name (shadowing-aware) — the
  /// cheap pre-check that keeps element anchoring from re-running on
  /// dictionaries whose members were already devirtualized.
  bool hasProjection(const Term *T, const std::string &Name) const {
    switch (T->getKind()) {
    case TermKind::Abs:
      if (bindsParam(cast<AbsTerm>(T), Name))
        return false;
      break;
    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      if (L->getName() == Name)
        return hasProjection(L->getInit(), Name);
      break;
    }
    case TermKind::Nth:
      if (const auto *V = dyn_cast<VarTerm>(cast<NthTerm>(T)->getTuple()))
        return V->getName() == Name;
      break;
    default:
      break;
    }
    return !allChildren(
        T, [&](const Term *C) { return !hasProjection(C, Name); });
  }

  const Term *visit(const Term *T) {
    switch (T->getKind()) {
    case TermKind::Abs: {
      const auto *A = cast<AbsTerm>(T);
      for (const ParamBinding &P : A->getParams())
        pushBinder(P.Name, nullptr);
      const Term *R = visitChildren(T);
      for (const ParamBinding &P : A->getParams())
        popBinder(P.Name);
      return R;
    }

    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      const Term *Init = visit(L->getInit());

      // A dictionary literal with non-simple elements whose members are
      // still projected: split the elements into anchor lets so the
      // projections have somewhere to point, then reprocess.
      if (const auto *Tu = dyn_cast<TupleTerm>(Init)) {
        bool NeedsAnchor = false;
        for (const Term *E : Tu->getElements())
          NeedsAnchor |= !isSimple(E);
        if (NeedsAnchor && hasProjection(L->getBody(), L->getName())) {
          std::vector<std::pair<std::string, const Term *>> Anchors;
          std::vector<const Term *> Elems;
          for (const Term *E : Tu->getElements()) {
            if (isSimple(E)) {
              Elems.push_back(E);
              continue;
            }
            std::string AName =
                L->getName() + "$a" + std::to_string(NextAnchorId++);
            Anchors.emplace_back(AName, E);
            Elems.push_back(Arena.makeVar(AName));
          }
          const Term *NewLet = Arena.makeLet(
              L->getName(), Arena.makeTuple(std::move(Elems)), L->getBody());
          for (size_t I = Anchors.size(); I-- != 0;)
            NewLet =
                Arena.makeLet(Anchors[I].first, Anchors[I].second, NewLet);
          return visit(NewLet);
        }
      }

      Shape S;
      if (const auto *Tu = dyn_cast<TupleTerm>(Init))
        S = makeShape(Tu); // All-simple here (anchoring handled above).
      else
        S = shapeOf(Init); // Aliases and nested-record projections.
      pushBinder(L->getName(), std::move(S));
      const Term *Body = visit(L->getBody());
      popBinder(L->getName());

      if (Init == L->getInit() && Body == L->getBody())
        return T;
      return Arena.makeLet(L->getName(), Init, Body);
    }

    case TermKind::Nth: {
      const auto *N = cast<NthTerm>(T);
      const Term *Tu = visit(N->getTuple());
      if (Shape S = shapeOf(Tu)) {
        if (N->getIndex() < S->size()) {
          const Elem &El = (*S)[N->getIndex()];
          if (El.K == Elem::Lit) {
            ++Counters.MembersDevirtualized;
            return El.Node;
          }
          if (El.K == Elem::Var && elemValid(El)) {
            ++Counters.MembersDevirtualized;
            return Arena.makeVar(El.Name);
          }
        }
      }
      return Tu == N->getTuple() ? T : Arena.makeNth(Tu, N->getIndex());
    }

    case TermKind::App: {
      const auto *A = cast<AppTerm>(T);
      const auto *Abs = dyn_cast<AbsTerm>(A->getFn());
      if (Abs && Abs->getParams().size() == A->getArgs().size()) {
        std::vector<const Term *> Args;
        bool Changed = false;
        bool AllPure = true;
        for (const Term *Arg : A->getArgs()) {
          const Term *NA = visit(Arg);
          Changed |= NA != Arg;
          AllPure &= isPureTerm(NA);
          Args.push_back(NA);
        }
        // Known dictionary arguments propagate their shape into the
        // body; binding ids keep any shadowing honest.
        for (size_t I = 0; I != Abs->getParams().size(); ++I) {
          Shape S;
          if (dyn_cast<VarTerm>(Args[I]))
            S = shapeOf(Args[I]);
          pushBinder(Abs->getParams()[I].Name, std::move(S));
        }
        const Term *Body = visit(Abs->getBody());
        for (size_t I = Abs->getParams().size(); I-- != 0;)
          popBinder(Abs->getParams()[I].Name);

        if (!AllPure) {
          // Let-beta: the baseline beta pass refuses impure arguments
          // because substitution could duplicate or reorder them; lets
          // keep the evaluation order and drop the closure allocation.
          // Params are renamed back to front so duplicate names resolve
          // the way application does (last binding owns the body).
          const Term *B = Body;
          std::vector<std::string> Fresh(Abs->getParams().size());
          for (size_t I = Abs->getParams().size(); I-- != 0;) {
            const std::string &P = Abs->getParams()[I].Name;
            Fresh[I] = P + "$b" + std::to_string(NextBetaId++);
            B = substituteTermVar(Arena, B, P, Arena.makeVar(Fresh[I]), {},
                                  NextRename, "$v");
          }
          for (size_t I = Abs->getParams().size(); I-- != 0;)
            B = Arena.makeLet(Fresh[I], Args[I], B);
          ++Counters.LetBetaExpansions;
          return B;
        }
        const Term *NewFn = Body == Abs->getBody()
                                ? A->getFn()
                                : Arena.makeAbs(Abs->getParams(), Body);
        if (!Changed && NewFn == A->getFn())
          return T;
        return Arena.makeApp(NewFn, std::move(Args));
      }
      break;
    }

    default:
      break;
    }
    return visitChildren(T);
  }

  const Term *visitChildren(const Term *T) {
    return mapChildren(Arena, T, [this](const Term *C) { return visit(C); });
  }

  TermArena &Arena;
  SpecializeCounters &Counters;
  unsigned &NextAnchorId;
  unsigned &NextBetaId;
  unsigned &NextRename;

  unsigned NextBindId = 0;
  std::unordered_map<std::string, std::vector<Binding>> Env;
};

//===--------------------------------------------------------------------===//
// eliminate-dead-dicts
//===--------------------------------------------------------------------===//

/// Cleans up what devirtualization leaves behind: dictionary parameters
/// whose every projection was rewritten away, and record fields nothing
/// projects any more.  Three shapes:
///
///   * `(fun(.., d, ..). body)(.., dict, ..)` with d unused and dict
///     pure — the parameter/argument pair is dropped;
///   * `let f = fun(.., d, ..). body in rest` where every use of f in
///     rest is a direct full-arity call with a pure argument in the
///     dead position — definition and all call sites are rewritten;
///   * `let d = (e0, .., en) in rest` (all pure) where rest only ever
///     projects d — unprojected fields are dropped and the surviving
///     projections reindexed.
class DeadDictEliminator {
public:
  DeadDictEliminator(TermArena &Arena, SpecializeCounters &Counters)
      : Arena(Arena), Counters(Counters) {}

  const Term *run(const Term *T) { return visit(T); }

private:
  /// Whether parameter \p I of \p A is referenced by the body.  With
  /// duplicate names the *last* duplicate owns the body occurrences.
  static bool paramUsed(const AbsTerm *A, size_t I) {
    const std::string &Name = A->getParams()[I].Name;
    for (size_t J = I + 1; J < A->getParams().size(); ++J)
      if (A->getParams()[J].Name == Name)
        return false;
    return countVarOccurrences(A->getBody(), Name) != 0;
  }

  /// True when every occurrence of \p Name in \p T is the head of a
  /// direct call of arity \p Arity whose arguments in the \p Dead
  /// positions are pure (shadowing-aware).
  static bool callsAllowDrop(const Term *T, const std::string &Name,
                             size_t Arity, const std::vector<size_t> &Dead) {
    auto Allows = [&](const Term *C) {
      return callsAllowDrop(C, Name, Arity, Dead);
    };
    switch (T->getKind()) {
    case TermKind::Var:
      return cast<VarTerm>(T)->getName() != Name;
    case TermKind::App: {
      const auto *A = cast<AppTerm>(T);
      const auto *V = dyn_cast<VarTerm>(A->getFn());
      if (!V || V->getName() != Name)
        break;
      if (A->getArgs().size() != Arity)
        return false;
      for (size_t I : Dead)
        if (!isPureTerm(A->getArgs()[I]))
          return false;
      return std::all_of(A->getArgs().begin(), A->getArgs().end(), Allows);
    }
    case TermKind::Abs:
      if (bindsParam(cast<AbsTerm>(T), Name))
        return true; // Shadowed: inner occurrences are another binding.
      break;
    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      if (L->getName() == Name)
        return Allows(L->getInit());
      break;
    }
    default:
      break;
    }
    // Any other occurrence of Name, `f[τ]` included, is a non-call use
    // and reaches the Var case.
    return allChildren(T, Allows);
  }

  /// Rewrites every direct call of \p Name to drop the \p Dead argument
  /// positions.  Only sound after callsAllowDrop accepted.
  const Term *dropCallArgs(const Term *T, const std::string &Name,
                           const std::vector<size_t> &Dead) {
    auto Drop = [&](const Term *C) { return dropCallArgs(C, Name, Dead); };
    switch (T->getKind()) {
    case TermKind::App: {
      const auto *A = cast<AppTerm>(T);
      const auto *V = dyn_cast<VarTerm>(A->getFn());
      if (!V || V->getName() != Name)
        break;
      std::vector<const Term *> Args;
      for (size_t I = 0; I != A->getArgs().size(); ++I)
        if (std::find(Dead.begin(), Dead.end(), I) == Dead.end())
          Args.push_back(Drop(A->getArgs()[I]));
      return Arena.makeApp(A->getFn(), std::move(Args));
    }
    case TermKind::Abs:
      if (bindsParam(cast<AbsTerm>(T), Name))
        return T;
      break;
    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      if (L->getName() != Name)
        break;
      const Term *Init = Drop(L->getInit());
      return Init == L->getInit()
                 ? T
                 : Arena.makeLet(L->getName(), Init, L->getBody());
    }
    default:
      break;
    }
    return mapChildren(Arena, T, Drop);
  }

  /// True when every occurrence of \p Name in \p T is `nth Name k` with
  /// k < \p Size; marks the projected indices in \p Used.
  static bool onlyProjected(const Term *T, const std::string &Name,
                            size_t Size, std::vector<bool> &Used) {
    auto Only = [&](const Term *C) {
      return onlyProjected(C, Name, Size, Used);
    };
    switch (T->getKind()) {
    case TermKind::Var:
      return cast<VarTerm>(T)->getName() != Name;
    case TermKind::Nth: {
      const auto *N = cast<NthTerm>(T);
      const auto *V = dyn_cast<VarTerm>(N->getTuple());
      if (!V || V->getName() != Name)
        break;
      if (N->getIndex() >= Size)
        return false;
      Used[N->getIndex()] = true;
      return true;
    }
    case TermKind::Abs:
      if (bindsParam(cast<AbsTerm>(T), Name))
        return true;
      break;
    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      if (L->getName() == Name)
        return Only(L->getInit());
      break;
    }
    default:
      break;
    }
    return allChildren(T, Only);
  }

  /// Reindexes `nth Name k` through \p Remap (shadowing-aware; only
  /// sound after onlyProjected accepted).
  const Term *remapNths(const Term *T, const std::string &Name,
                        const std::vector<unsigned> &Remap) {
    auto Reindex = [&](const Term *C) { return remapNths(C, Name, Remap); };
    switch (T->getKind()) {
    case TermKind::Nth: {
      const auto *N = cast<NthTerm>(T);
      const auto *V = dyn_cast<VarTerm>(N->getTuple());
      if (!V || V->getName() != Name)
        break;
      return Remap[N->getIndex()] == N->getIndex()
                 ? T
                 : Arena.makeNth(N->getTuple(), Remap[N->getIndex()]);
    }
    case TermKind::Abs:
      if (bindsParam(cast<AbsTerm>(T), Name))
        return T;
      break;
    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      if (L->getName() != Name)
        break;
      const Term *Init = Reindex(L->getInit());
      return Init == L->getInit()
                 ? T
                 : Arena.makeLet(L->getName(), Init, L->getBody());
    }
    default:
      break;
    }
    return mapChildren(Arena, T, Reindex);
  }

  static std::vector<size_t> deadParams(const AbsTerm *Abs) {
    std::vector<size_t> Dead;
    for (size_t I = 0; I != Abs->getParams().size(); ++I)
      if (!paramUsed(Abs, I))
        Dead.push_back(I);
    return Dead;
  }

  static std::vector<ParamBinding>
  keepParams(const AbsTerm *Abs, const std::vector<size_t> &Dead) {
    std::vector<ParamBinding> Params;
    for (size_t I = 0; I != Abs->getParams().size(); ++I)
      if (std::find(Dead.begin(), Dead.end(), I) == Dead.end())
        Params.push_back(Abs->getParams()[I]);
    return Params;
  }

  const Term *visit(const Term *T) {
    switch (T->getKind()) {
    case TermKind::App: {
      const auto *A = cast<AppTerm>(T);
      const Term *Fn = visit(A->getFn());
      std::vector<const Term *> Args;
      bool Changed = Fn != A->getFn();
      for (const Term *Arg : A->getArgs()) {
        const Term *NA = visit(Arg);
        Changed |= NA != Arg;
        Args.push_back(NA);
      }
      // Immediate dictionary application with dead parameters.
      if (const auto *Abs = dyn_cast<AbsTerm>(Fn);
          Abs && Abs->getParams().size() == Args.size()) {
        std::vector<size_t> Dead = deadParams(Abs);
        Dead.erase(std::remove_if(Dead.begin(), Dead.end(),
                                  [&](size_t I) {
                                    return !isPureTerm(Args[I]);
                                  }),
                   Dead.end());
        if (!Dead.empty() && Dead.size() < Args.size()) {
          std::vector<const Term *> Kept;
          for (size_t I = 0; I != Args.size(); ++I)
            if (std::find(Dead.begin(), Dead.end(), I) == Dead.end())
              Kept.push_back(Args[I]);
          Counters.DictParamsEliminated += Dead.size();
          return Arena.makeApp(Arena.makeAbs(keepParams(Abs, Dead),
                                             Abs->getBody()),
                               std::move(Kept));
        }
      }
      return Changed ? Arena.makeApp(Fn, std::move(Args)) : T;
    }

    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      const Term *Init = visit(L->getInit());
      const Term *Body = visit(L->getBody());

      // Let-bound function with dead dictionary parameters, all of
      // whose uses are direct full-arity calls.
      if (const auto *Abs = dyn_cast<AbsTerm>(Init);
          Abs && Abs->getParams().size() > 1) {
        std::vector<size_t> Dead = deadParams(Abs);
        if (!Dead.empty() && Dead.size() < Abs->getParams().size() &&
            callsAllowDrop(Body, L->getName(), Abs->getParams().size(),
                           Dead)) {
          const Term *NewInit =
              Arena.makeAbs(keepParams(Abs, Dead), Abs->getBody());
          const Term *NewBody = dropCallArgs(Body, L->getName(), Dead);
          Counters.DictParamsEliminated += Dead.size();
          return Arena.makeLet(L->getName(), NewInit, NewBody);
        }
      }

      // Pure dictionary record with unprojected fields.
      if (const auto *Tu = dyn_cast<TupleTerm>(Init);
          Tu && Tu->getElements().size() > 1 && isPureTerm(Init)) {
        size_t Size = Tu->getElements().size();
        std::vector<bool> Used(Size, false);
        if (onlyProjected(Body, L->getName(), Size, Used)) {
          std::vector<unsigned> Remap(Size, 0);
          std::vector<const Term *> Kept;
          for (size_t I = 0; I != Size; ++I) {
            Remap[I] = Kept.size();
            if (Used[I])
              Kept.push_back(Tu->getElements()[I]);
          }
          if (!Kept.empty() && Kept.size() < Size) {
            Counters.DictFieldsEliminated += Size - Kept.size();
            return Arena.makeLet(L->getName(),
                                 Arena.makeTuple(std::move(Kept)),
                                 remapNths(Body, L->getName(), Remap));
          }
        }
      }

      if (Init == L->getInit() && Body == L->getBody())
        return T;
      return Arena.makeLet(L->getName(), Init, Body);
    }

    default:
      return mapChildren(Arena, T, [this](const Term *C) { return visit(C); });
    }
  }

  TermArena &Arena;
  SpecializeCounters &Counters;
};

} // namespace

//===----------------------------------------------------------------------===//
// SpecializePasses
//===----------------------------------------------------------------------===//

SpecializePasses::SpecializePasses(
    TermArena &Arena, TypeContext &Ctx,
    const std::unordered_set<std::string> *HoistableTyApps)
    : Arena(Arena), Ctx(Ctx), Hoistable(HoistableTyApps) {}

SpecializePasses::~SpecializePasses() = default;

const Term *SpecializePasses::runTypeAppSpecialize(const Term *T,
                                                   size_t NodeBudget,
                                                   size_t MaxTypeArgSize) {
  TypeAppSpecializer Pass(Arena, Ctx, Hoistable, Counters, NextCloneId,
                          NodeBudget, MaxTypeArgSize);
  return Pass.run(T);
}

const Term *SpecializePasses::runDevirtualizeDicts(const Term *T) {
  DictDevirtualizer Pass(Arena, Counters, NextAnchorId, NextBetaId,
                         NextRename);
  return Pass.run(T);
}

const Term *SpecializePasses::runEliminateDeadDicts(const Term *T) {
  DeadDictEliminator Pass(Arena, Counters);
  return Pass.run(T);
}
