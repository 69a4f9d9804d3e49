//===- systemf/Optimize.cpp - Dictionary specialization -------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Optimize.h"
#include "support/Stats.h"
#include "systemf/Specialize.h"
#include "systemf/TermOps.h"
#include <cassert>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace fg;
using namespace fg::sf;

size_t fg::sf::countTermNodes(const Term *T) {
  switch (T->getKind()) {
  case TermKind::IntLit:
  case TermKind::BoolLit:
  case TermKind::Var:
    return 1;
  case TermKind::Abs:
    return 1 + countTermNodes(cast<AbsTerm>(T)->getBody());
  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    size_t N = 1 + countTermNodes(A->getFn());
    for (const Term *Arg : A->getArgs())
      N += countTermNodes(Arg);
    return N;
  }
  case TermKind::TyAbs:
    return 1 + countTermNodes(cast<TyAbsTerm>(T)->getBody());
  case TermKind::TyApp:
    return 1 + countTermNodes(cast<TyAppTerm>(T)->getFn());
  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    return 1 + countTermNodes(L->getInit()) + countTermNodes(L->getBody());
  }
  case TermKind::Tuple: {
    size_t N = 1;
    for (const Term *E : cast<TupleTerm>(T)->getElements())
      N += countTermNodes(E);
    return N;
  }
  case TermKind::Nth:
    return 1 + countTermNodes(cast<NthTerm>(T)->getTuple());
  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    return 1 + countTermNodes(I->getCond()) + countTermNodes(I->getThen()) +
           countTermNodes(I->getElse());
  }
  case TermKind::Fix:
    return 1 + countTermNodes(cast<FixTerm>(T)->getOperand());
  }
  return 1;
}

namespace {

/// The pipeline's named passes.  Each is one bottom-up traversal doing
/// only its own rewrites; an iteration of the pipeline runs them in
/// order and the whole sequence repeats until a fixpoint.  Keeping the
/// passes separate is what makes per-pass translation validation
/// meaningful: a type-breaking rewrite is attributed to one name.
enum : unsigned {
  PassInstantiate = 1u << 0, ///< TyApp-of-TyAbs inlining.
  PassBetaInline = 1u << 1,  ///< App-of-Abs beta reduction.
  PassInlineLets = 1u << 2,  ///< Let inlining + dead-let elimination.
  PassFold = 1u << 3,        ///< Tuple-projection and `if` folding.
  PassSpecTyApps = 1u << 4,  ///< Clone let-bound Λs at concrete types.
  PassDevirt = 1u << 5,      ///< Dictionary-shape propagation + MEM rewrite.
  PassDeadDicts = 1u << 6,   ///< Dead dictionary params/fields.
};

struct PassDesc {
  const char *Name;
  unsigned Mask;
};

/// The -O2 passes interleave with the baseline ones: specialization
/// runs first so it sees the translation's original let structure
/// before inlining duplicates it, and dead-dictionary cleanup runs last
/// over whatever the reducing passes left behind.
constexpr PassDesc Pipeline[] = {
    {"specialize-tyapps", PassSpecTyApps},
    {"devirtualize-dicts", PassDevirt},
    {"instantiate-tyapps", PassInstantiate},
    {"beta-inline", PassBetaInline},
    {"inline-lets", PassInlineLets},
    {"fold-projections", PassFold},
    {"eliminate-dead-dicts", PassDeadDicts},
};

/// The pass set a specialization level enables.
unsigned enabledMask(SpecializeLevel L) {
  unsigned M = PassInstantiate | PassBetaInline | PassInlineLets | PassFold;
  if (L == SpecializeLevel::Full)
    M |= PassSpecTyApps | PassDevirt | PassDeadDicts;
  return M;
}

/// Pipeline iterations before giving up on a fixpoint.
constexpr unsigned MaxIterations = 10;
/// Inlining stops once the term outgrows this multiple of its original
/// size (guards against code-size blowup from dictionary duplication).
constexpr size_t MaxGrowthFactor = 64;

/// The specializer.  All rewriting preserves sharing: a transform
/// returns the original node when nothing changed underneath it.
class Specializer {
public:
  Specializer(TermArena &Arena, TypeContext &Ctx,
              const OptimizeOptions &Opts, OptimizeStats &Stats)
      : Arena(Arena), Ctx(Ctx), Opts(Opts), Stats(Stats),
        Spec(Arena, Ctx, Opts.HoistableTyApps) {}

  const Term *run(const Term *T) {
    Stats.NodesBefore = countTermNodes(T);
    Budget = std::max<size_t>(4096, Stats.NodesBefore * MaxGrowthFactor);
    const unsigned Enabled = enabledMask(Opts.Specialize);
    for (unsigned I = 0; I < MaxIterations; ++I) {
      const Term *IterStart = T;
      for (const PassDesc &P : Pipeline) {
        if (!(P.Mask & Enabled))
          continue;
        // A pass that reported "no change" on this exact term need not
        // run again until some other pass produces a new term.
        auto Memo = LastNoopInput.find(P.Name);
        if (Memo != LastNoopInput.end() && Memo->second == T) {
          ++Stats.NoopPassSkips;
          continue;
        }
        const Term *Next = runPass(P, T);
        if (Next == T) {
          ++Stats.NoopPassRuns;
          LastNoopInput[P.Name] = T;
          continue;
        }
        if (!firePassHook(P.Name, T, Next))
          return finish(T); // The last term the hook accepted.
        T = Next;
      }
      if (Opts.TestPass) {
        const Term *Next = Opts.TestPass(Arena, T);
        if (Next != T && !firePassHook(Opts.TestPassName, T, Next))
          return finish(T);
        T = Next;
      }
      if (T == IterStart)
        break;
      if (countTermNodes(T) > Budget) {
        ++Stats.BudgetHits;
        break;
      }
    }
    return finish(T);
  }

private:
  /// Dispatches one named pass.
  const Term *runPass(const PassDesc &P, const Term *T) {
    switch (P.Mask) {
    case PassSpecTyApps: {
      size_t Current = countTermNodes(T);
      return Spec.runTypeAppSpecialize(T,
                                       Budget > Current ? Budget - Current : 0,
                                       Opts.MaxSpecializeTypeSize);
    }
    case PassDevirt:
      return Spec.runDevirtualizeDicts(T);
    case PassDeadDicts:
      return Spec.runEliminateDeadDicts(T);
    default:
      Mask = P.Mask;
      return rewrite(T);
    }
  }

  /// Final bookkeeping on every exit path: node count and the
  /// specialization pass counters.
  const Term *finish(const Term *T) {
    Stats.NodesAfter = countTermNodes(T);
    const SpecializeCounters &C = Spec.counters();
    Stats.ClonesCreated = C.ClonesCreated;
    Stats.SpecCacheHits = C.CacheHits;
    Stats.MembersDevirtualized = C.MembersDevirtualized;
    Stats.DictParamsEliminated = C.DictParamsEliminated;
    Stats.DictFieldsEliminated = C.DictFieldsEliminated;
    Stats.BudgetHits += C.BudgetHits;
    Stats.LetsInlined += C.LetBetaExpansions;
    return T;
  }
  /// Runs the validation hook on one changed pass output; records the
  /// rejected pass in the stats.  True means "keep going".
  bool firePassHook(const char *Name, const Term *Before, const Term *After) {
    if (!Opts.PassHook || Opts.PassHook(Name, Before, After))
      return true;
    Stats.AbortedOnPass = Name;
    return false;
  }

  std::string freshName(const std::string &Base) {
    return Base + "$r" + std::to_string(NextRename++);
  }

  //===--------------------------------------------------------------===//
  // The rewrite pass (bottom-up, one simplification round; Mask selects
  // which of the named passes' rewrites fire)
  //===--------------------------------------------------------------===//

  const Term *rewrite(const Term *T) {
    switch (T->getKind()) {
    case TermKind::IntLit:
    case TermKind::BoolLit:
    case TermKind::Var:
      return T;

    case TermKind::Abs: {
      const auto *A = cast<AbsTerm>(T);
      const Term *Body = rewrite(A->getBody());
      return Body == A->getBody() ? T
                                  : Arena.makeAbs(A->getParams(), Body);
    }

    case TermKind::App: {
      const auto *A = cast<AppTerm>(T);
      const Term *Fn = rewrite(A->getFn());
      std::vector<const Term *> Args;
      bool Changed = Fn != A->getFn();
      for (const Term *Arg : A->getArgs()) {
        const Term *NA = rewrite(Arg);
        Changed |= NA != Arg;
        Args.push_back(NA);
      }
      // Beta-reduce (fun(x...). body)(v...) for pure arguments — the
      // dictionary application exposed by TyApp inlining.
      if (const auto *Abs = dyn_cast<AbsTerm>(Fn);
          Abs && (Mask & PassBetaInline)) {
        bool AllPure = Abs->getParams().size() == Args.size();
        for (const Term *Arg : Args)
          AllPure &= isPureTerm(Arg);
        if (AllPure) {
          // Rename all parameters to fresh names first so sequential
          // substitution is equivalent to simultaneous substitution.
          // Rename back to front: with duplicate parameter names the
          // body occurrences belong to the *last* duplicate (evaluation
          // binds left to right, later shadowing earlier), so it must
          // claim them before the earlier duplicates are renamed.
          const Term *Body = Abs->getBody();
          std::vector<std::string> Fresh(Abs->getParams().size());
          for (size_t I = Abs->getParams().size(); I-- != 0;) {
            const ParamBinding &P = Abs->getParams()[I];
            std::string NewName = freshName(P.Name);
            Body = substituteTermVar(Arena, Body, P.Name,
                                     Arena.makeVar(NewName), {}, NextRename);
            Fresh[I] = std::move(NewName);
          }
          for (size_t I = 0; I != Args.size(); ++I)
            Body = substituteTermVar(Arena, Body, Fresh[I], Args[I],
                                     freeTermVars(Args[I]), NextRename);
          ++Stats.LetsInlined;
          return Body;
        }
      }
      return Changed ? Arena.makeApp(Fn, std::move(Args)) : T;
    }

    case TermKind::TyAbs: {
      const auto *A = cast<TyAbsTerm>(T);
      const Term *Body = rewrite(A->getBody());
      return Body == A->getBody() ? T
                                  : Arena.makeTyAbs(A->getParams(), Body);
    }

    case TermKind::TyApp: {
      const auto *A = cast<TyAppTerm>(T);
      const Term *Fn = rewrite(A->getFn());
      // Instantiate a known type abstraction (the C++ model).
      if (const auto *TA = dyn_cast<TyAbsTerm>(Fn);
          TA && (Mask & PassInstantiate)) {
        if (TA->getParams().size() == A->getTypeArgs().size()) {
          TypeSubst S;
          for (size_t I = 0; I != TA->getParams().size(); ++I)
            S[TA->getParams()[I].Id] = A->getTypeArgs()[I];
          ++Stats.TypeAppsInlined;
          return substituteTermTypes(Arena, Ctx, TA->getBody(), S);
        }
      }
      return Fn == A->getFn() ? T : Arena.makeTyApp(Fn, A->getTypeArgs());
    }

    case TermKind::Let: {
      const auto *L = cast<LetTerm>(T);
      const Term *Init = rewrite(L->getInit());
      const Term *Body = rewrite(L->getBody());
      if ((Mask & PassInlineLets) && isPureTerm(Init)) {
        unsigned N = countVarOccurrences(Body, L->getName());
        if (N == 0) {
          ++Stats.DeadLetsRemoved;
          return Body;
        }
        size_t InitSize = countTermNodes(Init);
        bool FitsBudget =
            N == 1 || InitSize <= 8 ||
            countTermNodes(Body) + (N - 1) * InitSize <= Budget;
        if (FitsBudget) {
          ++Stats.LetsInlined;
          return substituteTermVar(Arena, Body, L->getName(), Init,
                                   freeTermVars(Init), NextRename);
        }
      }
      if (Init == L->getInit() && Body == L->getBody())
        return T;
      return Arena.makeLet(L->getName(), Init, Body);
    }

    case TermKind::Tuple: {
      const auto *Tu = cast<TupleTerm>(T);
      std::vector<const Term *> Elems;
      bool Changed = false;
      for (const Term *E : Tu->getElements()) {
        const Term *NE = rewrite(E);
        Changed |= NE != E;
        Elems.push_back(NE);
      }
      return Changed ? Arena.makeTuple(std::move(Elems)) : T;
    }

    case TermKind::Nth: {
      const auto *N = cast<NthTerm>(T);
      const Term *Tu = rewrite(N->getTuple());
      // Fold `nth (e0, ..., en) i` when dropping the other elements is
      // safe (all pure) — compiled member access collapses this way.
      if (const auto *Lit = dyn_cast<TupleTerm>(Tu);
          Lit && (Mask & PassFold)) {
        if (N->getIndex() < Lit->getElements().size()) {
          bool AllPure = true;
          for (const Term *E : Lit->getElements())
            AllPure &= isPureTerm(E);
          if (AllPure) {
            ++Stats.ProjectionsFolded;
            return Lit->getElements()[N->getIndex()];
          }
        }
      }
      return Tu == N->getTuple() ? T : Arena.makeNth(Tu, N->getIndex());
    }

    case TermKind::If: {
      const auto *I = cast<IfTerm>(T);
      const Term *C = rewrite(I->getCond());
      const Term *Th = rewrite(I->getThen());
      const Term *El = rewrite(I->getElse());
      // Constant-fold a literal condition.
      if (const auto *B = dyn_cast<BoolLit>(C); B && (Mask & PassFold))
        return B->getValue() ? Th : El;
      if (C == I->getCond() && Th == I->getThen() && El == I->getElse())
        return T;
      return Arena.makeIf(C, Th, El);
    }

    case TermKind::Fix: {
      const auto *F = cast<FixTerm>(T);
      const Term *Op = rewrite(F->getOperand());
      return Op == F->getOperand() ? T : Arena.makeFix(Op);
    }
    }
    return T;
  }

  TermArena &Arena;
  TypeContext &Ctx;
  const OptimizeOptions &Opts;
  OptimizeStats &Stats;
  size_t Budget = 0;
  unsigned NextRename = 0;
  unsigned Mask = ~0u; ///< Rewrites enabled in the current pass.
  /// The -O2 pass object (persistent fresh-name counters, counters).
  SpecializePasses Spec;
  /// Per-pass memo of the last input the pass left unchanged.
  std::unordered_map<const char *, const Term *> LastNoopInput;
};

} // namespace

const std::vector<const char *> &fg::sf::optimizePassNames() {
  static const std::vector<const char *> Names = [] {
    std::vector<const char *> N;
    for (const PassDesc &P : Pipeline)
      N.push_back(P.Name);
    return N;
  }();
  return Names;
}

const Term *fg::sf::specialize(TermArena &Arena, TypeContext &Ctx,
                               const Term *T, const OptimizeOptions &Opts,
                               OptimizeStats *Stats) {
  fg::stats::ScopedTimer Timer("optimize.specialize");
  OptimizeStats Local;
  OptimizeStats &Out = Stats ? *Stats : Local;
  Specializer S(Arena, Ctx, Opts, Out);
  const Term *Result = S.run(T);
  fg::stats::Statistics &G = fg::stats::Statistics::global();
  G.add("optimize.typeapps_inlined", Out.TypeAppsInlined);
  G.add("optimize.lets_inlined", Out.LetsInlined);
  G.add("optimize.projections_folded", Out.ProjectionsFolded);
  G.add("optimize.dead_lets_removed", Out.DeadLetsRemoved);
  G.add("optimize.pass.noop", Out.NoopPassRuns);
  G.add("optimize.pass.noop_skipped", Out.NoopPassSkips);
  if (Opts.Specialize != SpecializeLevel::Off) {
    G.add("specialize.clones_created", Out.ClonesCreated);
    G.add("specialize.cache_hits", Out.SpecCacheHits);
    G.add("specialize.members_devirtualized", Out.MembersDevirtualized);
    G.add("specialize.dict_params_eliminated", Out.DictParamsEliminated);
    G.add("specialize.dict_fields_eliminated", Out.DictFieldsEliminated);
    G.add("specialize.budget_hits", Out.BudgetHits);
    if (Out.NodesAfter > Out.NodesBefore)
      G.add("specialize.size_growth", Out.NodesAfter - Out.NodesBefore);
  }
  return Result;
}
