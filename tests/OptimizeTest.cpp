//===- tests/OptimizeTest.cpp - Dictionary specialization tests -----------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// The specializer recovers C++-style instantiation from the
// dictionary-passing translation.  It must be type-preserving (the
// System F checker re-accepts its output at the same type) and
// semantics-preserving (same value), and on the paper's programs it
// must actually eliminate the dictionaries.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "systemf/Optimize.h"
#include "systemf/TypeCheck.h"
#include <gtest/gtest.h>

using namespace fg;

namespace {

/// Runs the -O1-optimized term of \p Out on the tree walker.
sf::EvalResult runO1(Frontend &FE, CompileOutput &Out) {
  ExecRequest Req;
  Req.Level = sf::SpecializeLevel::Off;
  return execute(FE, Out, Req);
}

/// Compiles, optimizes, and checks type+semantics preservation.
/// Returns the stats and printed optimized term via out-params.
void optimizeAndCheck(const std::string &Source, sf::OptimizeStats &Stats,
                      std::string *PrintedOut = nullptr) {
  Frontend FE;
  CompileOutput Out = FE.compile("opt.fg", Source);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  const sf::Term *Opt = FE.optimize(Out, &Stats);
  ASSERT_NE(Opt, nullptr);

  // Type preservation at the same type.
  sf::TypeChecker Checker(FE.getSfContext());
  const sf::Type *OptTy = Checker.check(Opt, FE.getPrelude().Types);
  ASSERT_NE(OptTy, nullptr)
      << "optimized term no longer typechecks: " << Checker.firstError()
      << "\n"
      << sf::termToString(Opt);
  EXPECT_EQ(OptTy, Out.SfType) << "optimization changed the program type";

  // Semantics preservation.
  sf::EvalResult Before = FE.run(Out);
  sf::EvalResult After = runO1(FE, Out);
  ASSERT_EQ(Before.ok(), After.ok()) << Before.Error << " / " << After.Error;
  if (Before.ok()) {
    EXPECT_EQ(sf::valueToString(Before.Val), sf::valueToString(After.Val));
  }

  if (PrintedOut)
    *PrintedOut = sf::termToString(Opt);
}

} // namespace

TEST(OptimizeTest, FoldsProjectionFromLiteralTuple) {
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck("nth (1, 2, 3) 1", S, &Printed);
  EXPECT_GE(S.ProjectionsFolded, 1u);
  EXPECT_EQ(Printed, "2");
}

TEST(OptimizeTest, InlinesTypeApplications) {
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck("(forall t. fun(x : t). x)[int](7)", S, &Printed);
  EXPECT_GE(S.TypeAppsInlined, 1u);
  EXPECT_EQ(Printed, "7") << "identity fully beta-reduced";
}

TEST(OptimizeTest, RemovesDeadLets) {
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck("let unused = (1, 2) in 5", S, &Printed);
  EXPECT_EQ(Printed, "5");
}

TEST(OptimizeTest, KeepsImpureLets) {
  // car of nil must still fail after optimization; the let cannot be
  // dropped even though its result is unused.
  Frontend FE;
  CompileOutput Out = FE.compile("t", "let x = car[int](nil[int]) in 5");
  ASSERT_TRUE(Out.Success);
  sf::EvalResult R = runO1(FE, Out);
  EXPECT_FALSE(R.ok()) << "effectful let must be preserved";
}

TEST(OptimizeTest, EliminatesFigure5Dictionaries) {
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck(R"(
    concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = (forall t where Monoid<t>.
      fix (fun(accum : fn(list t) -> t).
        fun(ls : list t).
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int](cons[int](1, cons[int](2, nil[int]))))",
                   S, &Printed);
  EXPECT_GE(S.TypeAppsInlined, 1u);
  EXPECT_GE(S.ProjectionsFolded, 2u) << "member accesses folded";
  // The dictionary is gone: no residual `nth` on a Monoid variable and
  // `iadd` is called directly.
  EXPECT_EQ(Printed.find("Monoid$"), std::string::npos) << Printed;
  EXPECT_NE(Printed.find("iadd"), std::string::npos) << Printed;
}

TEST(OptimizeTest, SpecializesParameterizedModels) {
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck(R"(
    concept Eq<t> { eq : fn(t,t) -> bool; } in
    model Eq<int> { eq = ieq; } in
    model forall t where Eq<t>. Eq<list t> {
      eq = fun(a : list t, b : list t).
        if null[t](a) then null[t](b)
        else Eq<t>.eq(car[t](a), car[t](b));
    } in
    Eq<list int>.eq(cons[int](1, nil[int]), cons[int](1, nil[int])))",
                   S, &Printed);
  EXPECT_GE(S.TypeAppsInlined, 1u)
      << "the dictionary function was instantiated";
  EXPECT_EQ(Printed.find("Eq$"), std::string::npos)
      << "no residual dictionary variables: " << Printed;
}

TEST(OptimizeTest, CaptureAvoidanceInLetInlining) {
  // let d = x in (fun(x : int). iadd(d, x))(3), with outer x = 10:
  // naive inlining would capture the lambda's x.
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck(R"(
    let x = 10 in
    let d = x in
    (fun(x : int). iadd(d, x))(3))",
                   S, &Printed);
  // Semantic check happened inside optimizeAndCheck (must be 13).
  Frontend FE;
  CompileOutput Out = FE.compile("t", R"(
    let x = 10 in
    let d = x in
    (fun(x : int). iadd(d, x))(3))");
  ASSERT_TRUE(Out.Success);
  sf::EvalResult R = runO1(FE, Out);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(sf::valueToString(R.Val), "13");
}

TEST(OptimizeTest, CaptureAvoidanceInBetaReduction) {
  // (fun(f : fn(int) -> int, x : int). f(x))(fun(y : int). iadd(y, x), 1)
  // where the argument closure references an outer x bound to 100.
  Frontend FE;
  CompileOutput Out = FE.compile("t", R"(
    let x = 100 in
    (fun(f : fn(int) -> int, x : int). f(x))
      (fun(y : int). iadd(y, x), 1))");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult Before = FE.run(Out);
  sf::EvalResult After = runO1(FE, Out);
  ASSERT_TRUE(Before.ok());
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(sf::valueToString(Before.Val), "101");
  EXPECT_EQ(sf::valueToString(After.Val), "101")
      << "beta reduction captured the outer x";
}

TEST(OptimizeTest, BetaInliningRespectsDuplicateParameters) {
  // (fun(x : int, x : int). x)(1, 2) — the second x shadows the first,
  // so the body must see 2.  Beta-inlining that substitutes parameters
  // left to right without honoring the shadowing would wrongly wire
  // the body's x to the first argument.
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck("(fun(x : int, x : int). x)(1, 2)", S, &Printed);
  EXPECT_EQ(Printed, "2");
}

TEST(OptimizeTest, RecursionSurvivesSpecialization) {
  sf::OptimizeStats S;
  std::string Printed;
  optimizeAndCheck(R"(
    let fact = fix (fun(f : fn(int) -> int). fun(n : int).
      if ile(n, 0) then 1 else imult(n, f(isub(n, 1)))) in
    fact(10))",
                   S, &Printed);
}

TEST(OptimizeTest, PreservedAcrossPaperPrograms) {
  const char *Programs[] = {
      // Figure 6.
      R"(concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
         concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
         let accumulate = (forall t where Monoid<t>.
           fix (fun(accum : fn(list t) -> t).
             fun(ls : list t).
               if null[t](ls) then Monoid<t>.identity_elt
               else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
         let sum =
           model Semigroup<int> { binary_op = iadd; } in
           model Monoid<int> { identity_elt = 0; } in
           accumulate[int] in
         let product =
           model Semigroup<int> { binary_op = imult; } in
           model Monoid<int> { identity_elt = 1; } in
           accumulate[int] in
         let ls = cons[int](1, cons[int](2, nil[int])) in
         (sum(ls), product(ls)))",
      // Associated types (section 5).
      R"(concept It<I> { types elt; curr : fn(I) -> elt; } in
         model It<list int> { types elt = int;
                              curr = fun(l : list int). car[int](l); } in
         (forall I where It<I>. It<I>.curr)[list int]
           (cons[int](9, nil[int])))",
      // Defaults + named models.
      R"(concept Eq<t> {
           eq : fn(t,t) -> bool;
           neq : fn(t,t) -> bool = fun(a : t, b : t). bnot(Eq<t>.eq(a, b));
         } in
         model [m] Eq<int> { eq = ieq; } in
         use m in (Eq<int>.neq(1, 2), Eq<int>.neq(3, 3)))",
  };
  for (const char *P : Programs) {
    sf::OptimizeStats S;
    optimizeAndCheck(P, S);
  }
}

TEST(OptimizeTest, StatsReportShrinkage) {
  sf::OptimizeStats S;
  optimizeAndCheck(R"(
    concept C<t> { v : t; } in
    model C<int> { v = 5; } in
    (forall t where C<t>. C<t>.v)[int])",
                   S);
  EXPECT_GT(S.NodesBefore, 0u);
  EXPECT_LT(S.NodesAfter, S.NodesBefore)
      << "specializing a dictionary program should shrink it";
}
