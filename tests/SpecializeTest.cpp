//===- tests/SpecializeTest.cpp - Whole-program specialization tests ------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// The -O2 pipeline (systemf/Specialize.h) recovers C++-style
// instantiation from the dictionary-passing translation: it clones
// polymorphic functions at their concrete type arguments, rewrites
// member projections from statically known dictionaries into direct
// witness calls, and drops dictionary parameters and fields that
// become dead.  Every test here demands the three invariants the
// pipeline advertises: the output still typechecks at the program's
// type, evaluates to the same value, and the advertised rewrite
// actually happened (counters).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "systemf/Optimize.h"
#include "systemf/TypeCheck.h"
#include <gtest/gtest.h>

using namespace fg;

namespace {

/// Figure 5 shape: a concept with a computed witness, used in a
/// generic function applied at a known model.
const char *AccumulateSource =
    "concept Semigroup<t> { op : fn(t, t) -> t; } in "
    "concept Monoid<t> { refines Semigroup<t>; id : t; } in "
    "model Semigroup<int> { op = iadd; } in "
    "model Monoid<int> { id = 0; } in "
    "let accumulate = (forall t where Monoid<t>. "
    "  fix (fun(go : fn(list t) -> t). fun(ls : list t). "
    "    if null[t](ls) then Monoid<t>.id "
    "    else Semigroup<t>.op(car[t](ls), go(cdr[t](ls))))) in "
    "accumulate[int](cons[int](1, cons[int](2, nil[int])))";

/// A lambda witness: the member the concept provides is an anonymous
/// function, so -O1 leaves a closure application at every use site.
const char *LambdaWitnessSource =
    "concept Ord<t> { lt : fn(t, t) -> bool; } in "
    "model Ord<int> { lt = fun(a : int, b : int). ilt(a, b); } in "
    "let maxof = (forall t where Ord<t>. fun(a : t, b : t). "
    "  if Ord<t>.lt(a, b) then b else a) in "
    "maxof[int](maxof[int](3, 9), 4)";

/// Compiles \p Source, specializes at \p Level, and checks type and
/// semantics preservation against the unoptimized program.  Returns
/// the stats and printed specialized term via out-params.
void specializeAndCheck(const std::string &Source, sf::SpecializeLevel Level,
                        sf::OptimizeStats &Stats,
                        std::string *PrintedOut = nullptr) {
  Frontend FE;
  CompileOutput Out = FE.compile("spec.fg", Source);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  sf::OptimizeOptions Opts;
  Opts.Specialize = Level;
  const sf::Term *Spec = FE.optimize(Out, &Stats, Opts);
  ASSERT_NE(Spec, nullptr);

  sf::TypeChecker Checker(FE.getSfContext());
  const sf::Type *SpecTy = Checker.check(Spec, FE.getPrelude().Types);
  ASSERT_NE(SpecTy, nullptr)
      << "specialized term no longer typechecks: " << Checker.firstError()
      << "\n"
      << sf::termToString(Spec);
  EXPECT_EQ(SpecTy, Out.SfType) << "specialization changed the program type";

  sf::EvalResult Before = FE.run(Out);
  ExecRequest Req;
  Req.Level = Level; // Reuses Spec: optimize() memoizes per level.
  sf::EvalResult After = execute(FE, Out, Req);
  ASSERT_EQ(Before.ok(), After.ok()) << Before.Error << " / " << After.Error;
  if (Before.ok()) {
    EXPECT_EQ(sf::valueToString(Before.Val), sf::valueToString(After.Val));
  }

  if (PrintedOut)
    *PrintedOut = sf::termToString(Spec);
}

/// `f` applied twice at an N-element int tuple type, whose structural
/// size is N + 1.
std::string twoApplicationsAtIntTuple(size_t N) {
  std::string Ty, Val;
  for (size_t I = 0; I != N; ++I) {
    Ty += I ? " * int" : "int";
    Val += (I ? ", " : "") + std::to_string(I);
  }
  std::string App = "f[(" + Ty + ")]((" + Val + "))";
  return "let f = (forall t. fun(x : t). (x, x)) in (" + App + ", " + App +
         ")";
}

} // namespace

TEST(SpecializeTest, ClonesAndCachesKnownTypeApplications) {
  // f is applied at int twice and bool once: two clones, one cache hit.
  sf::OptimizeStats S;
  specializeAndCheck("let f = (forall t. fun(x : t). (x, x)) in "
                     "(f[int](1), f[int](2), f[bool](true))",
                     sf::SpecializeLevel::Full, S);
  EXPECT_GE(S.ClonesCreated, 2u);
  EXPECT_GE(S.SpecCacheHits, 1u);
}

TEST(SpecializeTest, HoistsBuiltinInstantiations) {
  // car[int]/cdr[int]/null[int] inside the recursion get one top-level
  // anchor each instead of re-instantiating per loop iteration.
  sf::OptimizeStats S;
  std::string Printed;
  specializeAndCheck(AccumulateSource, sf::SpecializeLevel::Full, S,
                     &Printed);
  EXPECT_GE(S.ClonesCreated, 3u) << Printed;
  EXPECT_NE(Printed.find("$s"), std::string::npos)
      << "expected hoisted builtin anchors in: " << Printed;
}

TEST(SpecializeTest, DevirtualizesAccumulateDictionary) {
  // After specialization the Monoid<int> dictionary must be gone:
  // iadd called directly, no member projections left.
  sf::OptimizeStats S;
  std::string Printed;
  specializeAndCheck(AccumulateSource, sf::SpecializeLevel::Full, S,
                     &Printed);
  EXPECT_NE(Printed.find("iadd"), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("nth"), std::string::npos)
      << "dictionary projections survived specialization: " << Printed;
}

TEST(SpecializeTest, LetBetaRemovesResidualWitnessApplication) {
  // -O1 refuses to beta-reduce the lambda witness because its argument
  // (car of a list) is impure; -O2's let-beta names the argument and
  // eliminates the closure application entirely.
  sf::OptimizeStats O1Stats, O2Stats;
  std::string O1Printed, O2Printed;
  specializeAndCheck(LambdaWitnessSource, sf::SpecializeLevel::Off, O1Stats,
                     &O1Printed);
  specializeAndCheck(LambdaWitnessSource, sf::SpecializeLevel::Full, O2Stats,
                     &O2Printed);
  EXPECT_NE(O1Printed.find("fun("), std::string::npos)
      << "expected -O1 to leave a residual closure: " << O1Printed;
  EXPECT_EQ(O2Printed.find("fun("), std::string::npos)
      << "expected -O2 to eliminate every closure: " << O2Printed;
}

TEST(SpecializeTest, BudgetDeclinesOversizedTypeArguments) {
  // The per-application cap is a summed type size of 48.  At the cap
  // the first application clones f and the second reuses the clone; one
  // past it both are declined, and the program still optimizes to the
  // right value through the baseline passes.
  sf::OptimizeStats AtCap;
  specializeAndCheck(twoApplicationsAtIntTuple(47), sf::SpecializeLevel::Full,
                     AtCap);
  EXPECT_EQ(AtCap.ClonesCreated, 1u);
  EXPECT_EQ(AtCap.BudgetHits, 0u);

  sf::OptimizeStats PastCap;
  specializeAndCheck(twoApplicationsAtIntTuple(48), sf::SpecializeLevel::Full,
                     PastCap);
  EXPECT_EQ(PastCap.ClonesCreated, 0u);
  EXPECT_EQ(PastCap.BudgetHits, 2u);
}

TEST(SpecializeTest, DeadDictEliminationDropsUnusedParamsAndFields) {
  // Drive the pass directly: a function taking a pure dictionary it
  // never uses, called at full arity, loses the parameter; a tuple
  // that is only ever projected at index 1 loses its other field.
  Frontend FE;
  CompileOutput Out = FE.compile(
      "spec.fg",
      "let d = (iadd, 0) in "
      "let f = fun(dict : ((fn(int, int) -> int) * int), x : int). x in "
      "(f(d, 1), f(d, 2), nth d 1)");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  sf::SpecializePasses Passes(FE.getSfArena(), FE.getSfContext(),
                              /*HoistableTyApps=*/nullptr);
  const sf::Term *T = Passes.runEliminateDeadDicts(Out.SfTerm);
  ASSERT_NE(T, nullptr);
  EXPECT_GE(Passes.counters().DictParamsEliminated, 1u)
      << sf::termToString(T);

  sf::TypeChecker Checker(FE.getSfContext());
  const sf::Type *Ty = Checker.check(T, FE.getPrelude().Types);
  ASSERT_NE(Ty, nullptr) << Checker.firstError() << "\n"
                         << sf::termToString(T);
  EXPECT_EQ(Ty, Out.SfType);
}

TEST(SpecializeTest, LambdaWitnessDictionaryDisappearsEntirely) {
  // End-to-end: after -O2 the Ord<int> dictionary must leave no trace —
  // no projections, no closures, and the let-beta machinery ($b names)
  // must be what replaced the residual witness application.
  sf::OptimizeStats S;
  std::string Printed;
  specializeAndCheck(LambdaWitnessSource, sf::SpecializeLevel::Full, S,
                     &Printed);
  EXPECT_EQ(Printed.find("nth"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("$b"), std::string::npos)
      << "expected let-beta anchors in: " << Printed;
}

TEST(SpecializeTest, NoopPassesAreCountedAndSkipped) {
  // A trivial program reaches a fixpoint immediately; later iterations
  // must record noop runs and the memo must skip repeats.
  sf::OptimizeStats S;
  specializeAndCheck(AccumulateSource, sf::SpecializeLevel::Full, S);
  EXPECT_GE(S.NoopPassRuns, 1u);
}

TEST(SpecializeTest, OffLevelReproducesO1Pipeline) {
  // Specialize=Off must be byte-identical to the baseline optimizer.
  Frontend FE;
  CompileOutput Out = FE.compile("spec.fg", AccumulateSource);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  sf::OptimizeStats Base;
  const sf::Term *O1 = FE.optimize(Out, &Base);
  sf::OptimizeOptions OffOpts;
  OffOpts.Specialize = sf::SpecializeLevel::Off;
  sf::OptimizeStats OffStats;
  const sf::Term *Off = FE.optimize(Out, &OffStats, OffOpts);
  EXPECT_EQ(sf::termToString(O1), sf::termToString(Off));
  EXPECT_EQ(OffStats.ClonesCreated, 0u);
  EXPECT_EQ(OffStats.MembersDevirtualized, 0u);
}

TEST(SpecializeTest, OptimizeMemoIsPerLevel) {
  // The memoized term belongs to the level that built it: optimizing at
  // Off and then at Full must return the Full term, not the Off one,
  // and a repeat at Full (no stats asked) must reuse it.
  Frontend FE;
  CompileOutput Out = FE.compile("spec.fg", LambdaWitnessSource);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::OptimizeOptions OffOpts, FullOpts;
  FullOpts.Specialize = sf::SpecializeLevel::Full;

  const sf::Term *Off = FE.optimize(Out, nullptr, OffOpts);
  const sf::Term *Full = FE.optimize(Out, nullptr, FullOpts);
  EXPECT_NE(sf::termToString(Off), sf::termToString(Full));
  EXPECT_EQ(Out.SfOptimizedLevel, sf::SpecializeLevel::Full);

  Frontend Fresh;
  CompileOutput FreshOut = Fresh.compile("spec.fg", LambdaWitnessSource);
  ASSERT_TRUE(FreshOut.Success) << FreshOut.ErrorMessage;
  EXPECT_EQ(sf::termToString(Full),
            sf::termToString(Fresh.optimize(FreshOut, nullptr, FullOpts)))
      << "the second call must specialize at Full";
  EXPECT_EQ(FE.optimize(Out, nullptr, FullOpts), Full)
      << "a repeat at the same level must reuse the memoized term";
}

TEST(SpecializeTest, ValidatorAcceptsEveryPass) {
  // Run the full pipeline under a per-pass re-typecheck hook; no pass
  // may produce an ill-typed intermediate term.
  Frontend FE;
  CompileOutput Out = FE.compile("spec.fg", AccumulateSource);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  sf::OptimizeOptions Opts;
  Opts.Specialize = sf::SpecializeLevel::Full;
  unsigned HookCalls = 0;
  Opts.PassHook = [&](const char *PassName, const sf::Term *,
                      const sf::Term *After) {
    ++HookCalls;
    sf::TypeChecker Checker(FE.getSfContext());
    const sf::Type *Ty = Checker.check(After, FE.getPrelude().Types);
    EXPECT_TRUE(Ty && Ty == Out.SfType)
        << "pass `" << PassName << "` broke typing: "
        << Checker.firstError();
    return Ty && Ty == Out.SfType;
  };
  sf::OptimizeStats S;
  const sf::Term *Spec = FE.optimize(Out, &S, Opts);
  ASSERT_NE(Spec, nullptr);
  EXPECT_EQ(S.AbortedOnPass, nullptr);
  EXPECT_GE(HookCalls, 1u) << "hook never fired — pipeline did nothing";
}

TEST(SpecializeTest, PassNamesEnumerateThePipeline) {
  const std::vector<const char *> &Names = sf::optimizePassNames();
  ASSERT_EQ(Names.size(), 7u);
  EXPECT_STREQ(Names[0], "specialize-tyapps");
  EXPECT_STREQ(Names[1], "devirtualize-dicts");
  EXPECT_STREQ(Names[6], "eliminate-dead-dicts");
}
