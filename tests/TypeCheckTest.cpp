//===- tests/TypeCheckTest.cpp - Core F_G typing rules --------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// Tests for the concept-free fragment (rules VAR, ABS, APP, LET, TABS,
// TAPP of Figure 9 plus literals, tuples, if, fix).  Every successful
// compile in these tests also re-checks the System F translation, so
// each one exercises Theorem 1.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace fgtest;

TEST(TypeCheckTest, Literals) {
  RunResult R = runFg("42");
  EXPECT_TRUE(R.CompileOk);
  EXPECT_EQ(R.Type, "int");
  EXPECT_EQ(R.Value, "42");
  EXPECT_EQ(runFg("true").Type, "bool");
}

TEST(TypeCheckTest, BuiltinsHaveExpectedTypes) {
  EXPECT_EQ(runFg("iadd").Type, "fn(int, int) -> int");
  EXPECT_EQ(runFg("ilt").Type, "fn(int, int) -> bool");
  EXPECT_EQ(runFg("bnot").Type, "fn(bool) -> bool");
  EXPECT_EQ(runFg("nil").Type, "forall t. list t");
  EXPECT_EQ(runFg("cons").Type, "forall t. fn(t, list t) -> list t");
}

TEST(TypeCheckTest, UnboundVariable) {
  EXPECT_NE(compileError("ghost").find("unbound variable"),
            std::string::npos);
}

TEST(TypeCheckTest, AbsAndApp) {
  RunResult R = runFg("(fun(x : int). iadd(x, 1))(41)");
  EXPECT_EQ(R.Type, "int");
  EXPECT_EQ(R.Value, "42");
}

TEST(TypeCheckTest, MultiParamAbs) {
  RunResult R = runFg("(fun(x : int, y : int, z : int). "
                      "iadd(x, imult(y, z)))(1, 2, 3)");
  EXPECT_EQ(R.Value, "7");
}

TEST(TypeCheckTest, AppWrongArgType) {
  EXPECT_NE(compileError("iadd(1, true)").find("argument 2"),
            std::string::npos);
}

// `k[b](z)` has type `forall b'. fn(b') -> b`, where the result is the
// outer `b`: the diagnostic renames the binder rather than print the
// capture `forall b. fn(b) -> b`.
TEST(TypeCheckTest, DiagnosticNamesNoCapturedBinder) {
  EXPECT_NE(compileError("let k = (forall a. fun(x : a). (forall b. "
                         "fun(y : b). x)) in (forall b. fun(z : b). "
                         "iadd(k[b](z), 1))")
                .find("argument 1 has type `forall b1. fn(b1) -> b` but "
                      "`int` was expected"),
            std::string::npos);
}

TEST(TypeCheckTest, AppWrongArity) {
  EXPECT_NE(compileError("iadd(1)").find("expects 2"), std::string::npos);
}

TEST(TypeCheckTest, AppNonFunction) {
  EXPECT_NE(compileError("3(4)").find("non-function"), std::string::npos);
}

TEST(TypeCheckTest, LetAndShadowing) {
  EXPECT_EQ(runFg("let x = 1 in let x = true in x").Type, "bool");
  EXPECT_EQ(runFg("let x = 2 in let y = x in iadd(x, y)").Value, "4");
}

TEST(TypeCheckTest, IfRules) {
  EXPECT_EQ(runFg("if ilt(1, 2) then 10 else 20").Value, "10");
  EXPECT_NE(compileError("if 1 then 2 else 3").find("condition"),
            std::string::npos);
  EXPECT_NE(compileError("if true then 2 else false").find("branches"),
            std::string::npos);
}

TEST(TypeCheckTest, TuplesAndNth) {
  RunResult R = runFg("nth (1, true, 3) 1");
  EXPECT_EQ(R.Type, "bool");
  EXPECT_EQ(R.Value, "true");
  EXPECT_NE(compileError("nth (1, 2) 5").find("out of range"),
            std::string::npos);
  EXPECT_NE(compileError("nth 3 0").find("non-tuple"), std::string::npos);
}

TEST(TypeCheckTest, PlainGenericIdentity) {
  RunResult R = runFg("let id = (forall t. fun(x : t). x) in id[int](7)");
  EXPECT_EQ(R.Type, "int");
  EXPECT_EQ(R.Value, "7");
}

TEST(TypeCheckTest, GenericUsedAtTwoTypes) {
  RunResult R = runFg(
      "let id = (forall t. fun(x : t). x) in (id[int](7), id[bool](true))");
  EXPECT_EQ(R.Type, "(int * bool)");
  EXPECT_EQ(R.Value, "(7, true)");
}

TEST(TypeCheckTest, MultiParamGeneric) {
  RunResult R = runFg("let first = (forall a, b. fun(x : a, y : b). x) in "
                      "first[int, bool](3, false)");
  EXPECT_EQ(R.Value, "3");
}

TEST(TypeCheckTest, TyAppArityMismatch) {
  EXPECT_NE(compileError("(forall a, b. fun(x : a, y : b). x)[int]")
                .find("type argument"),
            std::string::npos);
}

TEST(TypeCheckTest, TyAppOnMonomorphic) {
  EXPECT_NE(compileError("3[int]").find("non-generic"), std::string::npos);
}

TEST(TypeCheckTest, GenericOverListOperations) {
  RunResult R = runFg(
      "let head_or = (forall t. fun(ls : list t, d : t). "
      "if null[t](ls) then d else car[t](ls)) in "
      "head_or[int](cons[int](9, nil[int]), 0)");
  EXPECT_EQ(R.Value, "9");
}

TEST(TypeCheckTest, FixFactorial) {
  RunResult R = runFg(
      "let fact = fix (fun(f : fn(int) -> int). fun(n : int). "
      "if ile(n, 0) then 1 else imult(n, f(isub(n, 1)))) in fact(6)");
  EXPECT_EQ(R.Value, "720");
}

TEST(TypeCheckTest, FixWrongShape) {
  EXPECT_NE(compileError("fix (fun(x : int). x)").find("fix"),
            std::string::npos);
}

TEST(TypeCheckTest, HigherOrderFunctions) {
  RunResult R = runFg(
      "let twice = fun(f : fn(int) -> int, x : int). f(f(x)) in "
      "twice(fun(n : int). imult(n, 3), 2)");
  EXPECT_EQ(R.Value, "18");
}

TEST(TypeCheckTest, RankTwoPolymorphicParameter) {
  // A lambda parameter with a quantified type: uses the type translation
  // for standalone forall types (rule TYTABS of Figure 8).
  RunResult R = runFg(
      "(fun(id : forall t. fn(t) -> t). (id[int](1), id[bool](true)))"
      "((forall t. fun(x : t). x))");
  EXPECT_EQ(R.Type, "(int * bool)");
  EXPECT_EQ(R.Value, "(1, true)");
}

TEST(TypeCheckTest, NestedGenerics) {
  RunResult R = runFg(
      "let konst = (forall a. fun(x : a). (forall b. fun(y : b). x)) in "
      "konst[int](5)[bool](true)");
  EXPECT_EQ(R.Type, "int");
  EXPECT_EQ(R.Value, "5");
}

TEST(TypeCheckTest, AnnotationWithUnboundTypeVarFailsAtParse) {
  // The parser resolves type variables; an unbound one never reaches the
  // checker.
  EXPECT_NE(compileError("fun(x : t). x").find("unknown type name"),
            std::string::npos);
}

TEST(TypeCheckTest, ShadowedTypeVariables) {
  RunResult R = runFg(
      "let f = (forall t. fun(x : t). (forall t. fun(y : t). y)) in "
      "f[int](1)[bool](true)");
  EXPECT_EQ(R.Type, "bool");
  EXPECT_EQ(R.Value, "true");
}

TEST(TypeCheckTest, TypeAliasBasic) {
  RunResult R = runFg("type pair = (int * int) in "
                      "(fun(p : pair). iadd(nth p 0, nth p 1))((20, 22))");
  EXPECT_EQ(R.Type, "int");
  EXPECT_EQ(R.Value, "42");
}

TEST(TypeCheckTest, TypeAliasDoesNotEscapeInResultType) {
  // Rule ALS: the alias is substituted away in the result type.
  RunResult R = runFg("type myint = int in fun(x : myint). x");
  EXPECT_TRUE(R.CompileOk) << R.Error;
  EXPECT_EQ(R.Type, "fn(int) -> int");
}

TEST(TypeCheckTest, TypeAliasOfAliasChains) {
  RunResult R = runFg("type a = int in type b = a in type c = b in "
                      "(fun(x : c). iadd(x, 1))(41)");
  EXPECT_EQ(R.Value, "42");
}

TEST(TypeCheckTest, EvaluationOfTranslationMatchesExpected) {
  // End-to-end sanity for a small program mixing most constructs.
  RunResult R = runFg(R"(
    let compose = (forall a, b, c.
      fun(f : fn(b) -> c, g : fn(a) -> b). fun(x : a). f(g(x))) in
    let inc = fun(n : int). iadd(n, 1) in
    let dbl = fun(n : int). imult(n, 2) in
    compose[int, int, int](inc, dbl)(20)
  )");
  EXPECT_EQ(R.Value, "41");
}
