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
#include <vector>

using namespace fg;
using namespace fg::sf;

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
/// Per-application cap on the summed structural size of type arguments
/// accepted by specialize-tyapps.  Nested instantiation chains (the
/// polymorphic-recursion pattern) double their argument size at each
/// level, so this bounds the clone cascade; refusals are counted in
/// OptimizeStats::BudgetHits.
constexpr size_t MaxSpecializeTypeSize = 48;

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
                                       MaxSpecializeTypeSize);
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
    case TermKind::App: {
      if (!(Mask & PassBetaInline))
        break;
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
      if (const auto *Abs = dyn_cast<AbsTerm>(Fn)) {
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

    case TermKind::TyApp: {
      if (!(Mask & PassInstantiate))
        break;
      const auto *A = cast<TyAppTerm>(T);
      const Term *Fn = rewrite(A->getFn());
      // Instantiate a known type abstraction (the C++ model).
      if (const auto *TA = dyn_cast<TyAbsTerm>(Fn);
          TA && TA->getParams().size() == A->getTypeArgs().size()) {
        TypeSubst S;
        for (size_t I = 0; I != TA->getParams().size(); ++I)
          S[TA->getParams()[I].Id] = A->getTypeArgs()[I];
        ++Stats.TypeAppsInlined;
        return substituteTermTypes(Arena, Ctx, TA->getBody(), S);
      }
      return Fn == A->getFn() ? T : Arena.makeTyApp(Fn, A->getTypeArgs());
    }

    case TermKind::Let: {
      if (!(Mask & PassInlineLets))
        break;
      const auto *L = cast<LetTerm>(T);
      const Term *Init = rewrite(L->getInit());
      const Term *Body = rewrite(L->getBody());
      if (isPureTerm(Init)) {
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

    case TermKind::Nth: {
      if (!(Mask & PassFold))
        break;
      const auto *N = cast<NthTerm>(T);
      const Term *Tu = rewrite(N->getTuple());
      // Fold `nth (e0, ..., en) i` when dropping the other elements is
      // safe (all pure) — compiled member access collapses this way.
      if (const auto *Lit = dyn_cast<TupleTerm>(Tu);
          Lit && N->getIndex() < Lit->getElements().size()) {
        bool AllPure = true;
        for (const Term *E : Lit->getElements())
          AllPure &= isPureTerm(E);
        if (AllPure) {
          ++Stats.ProjectionsFolded;
          return Lit->getElements()[N->getIndex()];
        }
      }
      return Tu == N->getTuple() ? T : Arena.makeNth(Tu, N->getIndex());
    }

    case TermKind::If: {
      if (!(Mask & PassFold))
        break;
      const auto *I = cast<IfTerm>(T);
      const Term *C = rewrite(I->getCond());
      const Term *Th = rewrite(I->getThen());
      const Term *El = rewrite(I->getElse());
      // Constant-fold a literal condition.
      if (const auto *B = dyn_cast<BoolLit>(C))
        return B->getValue() ? Th : El;
      if (C == I->getCond() && Th == I->getThen() && El == I->getElse())
        return T;
      return Arena.makeIf(C, Th, El);
    }

    default:
      break;
    }
    // Every other node, and the kinds above when another pass runs.
    return mapChildren(Arena, T, [this](const Term *C) { return rewrite(C); });
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
