//===- tests/ParamModelsTest.cpp - Parameterized models (section 6) -------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// Section 6: "Parameterized models (equivalent to parameterized
// instances in Haskell) are important for the case when the modeling
// type is parameterized, such as list<T>."  This reproduction implements
// them: `model forall t where C<t>. D<pattern> { ... }` declares a
// dictionary *function*; lookup matches the pattern and recursively
// resolves the requirements.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace fgtest;

namespace {

const char *MonoidPrelude = R"(
  concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
  concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
  let accumulate = (forall t where Monoid<t>.
    fix (fun(accum : fn(list t) -> t).
      fun(ls : list t).
        if null[t](ls) then Monoid<t>.identity_elt
        else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
)";

const char *ListMonoid = R"(
  model forall t. Semigroup<list t> {
    binary_op = fix (fun(app : fn(list t, list t) -> list t).
      fun(a : list t, b : list t).
        if null[t](a) then b
        else cons[t](car[t](a), app(cdr[t](a), b)));
  } in
  model forall t. Monoid<list t> { identity_elt = nil[t]; } in
)";

} // namespace

TEST(ParamModelsTest, OneModelServesAllElementTypes) {
  RunResult R = runFg(std::string(MonoidPrelude) + ListMonoid + R"(
    let xs = cons[list int](cons[int](1, cons[int](2, nil[int])),
             cons[list int](cons[int](3, nil[int]), nil[list int])) in
    let ys = cons[list bool](cons[bool](true, nil[bool]), nil[list bool]) in
    (accumulate[list int](xs), accumulate[list bool](ys)))");
  EXPECT_EQ(R.Value, "([1, 2, 3], [true])") << R.Error;
}

TEST(ParamModelsTest, MemberAccessThroughMatch) {
  RunResult R = runFg(std::string(MonoidPrelude) + ListMonoid + R"(
    Monoid<list int>.binary_op(cons[int](1, nil[int]),
                               cons[int](2, nil[int])))");
  EXPECT_EQ(R.Value, "[1, 2]") << R.Error;
}

TEST(ParamModelsTest, RecursiveRequirement) {
  // Eq<list t> requires Eq<t>; resolution recurses through two levels
  // for list (list int).
  RunResult R = runFg(R"(
    concept Eq<t> { eq : fn(t,t) -> bool; } in
    model Eq<int> { eq = ieq; } in
    model forall t where Eq<t>. Eq<list t> {
      eq = fix (fun(leq : fn(list t, list t) -> bool).
        fun(a : list t, b : list t).
          if null[t](a) then null[t](b)
          else if null[t](b) then false
          else band(Eq<t>.eq(car[t](a), car[t](b)),
                    leq(cdr[t](a), cdr[t](b))));
    } in
    let a = cons[list int](cons[int](1, nil[int]), nil[list int]) in
    let b = cons[list int](cons[int](1, nil[int]), nil[list int]) in
    let c = cons[list int](cons[int](2, nil[int]), nil[list int]) in
    (Eq<list (list int)>.eq(a, b), Eq<list (list int)>.eq(a, c)))");
  EXPECT_EQ(R.Value, "(true, false)") << R.Error;
}

TEST(ParamModelsTest, MissingRequirementIsDiagnosed) {
  // bool has no Eq model, so Eq<list bool> cannot be built.
  std::string Err = compileError(R"(
    concept Eq<t> { eq : fn(t,t) -> bool; } in
    model Eq<int> { eq = ieq; } in
    model forall t where Eq<t>. Eq<list t> {
      eq = fun(a : list t, b : list t). true;
    } in
    Eq<list bool>.eq(nil[bool], nil[bool]))");
  EXPECT_NE(Err.find("no model of `Eq<bool>`"), std::string::npos) << Err;
}

TEST(ParamModelsTest, AssociatedTypesResolveThroughMatch) {
  RunResult R = runFg(R"(
    concept Iterator<Iter> {
      types elt;
      curr : fn(Iter) -> elt;
    } in
    model forall t. Iterator<list t> {
      types elt = t;
      curr = fun(ls : list t). car[t](ls);
    } in
    (Iterator<list int>.curr(cons[int](42, nil[int])),
     Iterator<list bool>.curr(cons[bool](true, nil[bool]))))");
  EXPECT_EQ(R.Value, "(42, true)") << R.Error;
  EXPECT_EQ(R.Type, "(int * bool)")
      << "elt resolved per instantiation through the pattern match";
}

TEST(ParamModelsTest, ResolvingAnAssocUnderAForallCapturesNothing) {
  // Closing the ground model's scope resolves C<a>.elt inside f's type
  // through the generic model, at a fresh a.  At the forall's stored
  // index, t := #0 put the index under `forall u` and made the result
  // `forall u. fn(u) -> u`, so g's argument was rejected.
  RunResult R = runFg(R"(
    concept C<t> { types elt; } in
    model forall t. C<t> { types elt = forall u. fn(u) -> t; } in
    let f = (model C<bool> { types elt = int; } in
             (forall a where C<a>. fun(x : C<a>.elt). x)) in
    let g = f[int](forall u. fun(y : u). 1) in
    g[bool](true))");
  EXPECT_EQ(R.Value, "1") << R.Error;
  EXPECT_EQ(R.Type, "int");
}

// The checker opens a forall at the same parameters each time, as it
// once bound the forall's stored ids, so a forall reached again through
// a same-type constraint while the checker is inside it meets the same
// associated types, and the cycle guards stop the descent.  Opened at
// fresh parameters each time, both programs below recursed without end.
TEST(ParamModelsTest, ReachingAForallAgainWhileResolvingInItStops) {
  RunResult R = runFg(R"(
    concept D<t> { types elt; } in
    concept C<t> { types elt; } in
    model forall x. C<x> { types elt = bool; } in
    model forall s. D<s> { types elt = int; } in
    model forall s. D<s> {
      types elt = C<forall u. fn(D<u>.elt) -> u>.elt;
    } in
    (model C<int> { types elt = int; } in
      (forall a. fun(x : C<forall u. fn(D<u>.elt) -> u>.elt). x)))");
  EXPECT_TRUE(R.CompileOk) << R.Error;
  EXPECT_EQ(R.Type, "forall a. fn(bool) -> bool");
}

TEST(ParamModelsTest, ReachingAForallAgainWhileTranslatingItIsACycle) {
  EXPECT_NE(compileError(R"(
    concept D<t> { types elt; } in
    model forall s. D<s> { types elt = int; } in
    model forall s. D<s> { types elt = forall u. fn(D<u>.elt) -> u; } in
    fun(x : D<int>.elt). x)")
                .find("cyclic same-type constraint involving `D<u>.elt`"),
            std::string::npos);
}

TEST(ParamModelsTest, GenericFunctionOverParameterizedModel) {
  RunResult R = runFg(R"(
    concept Iterator<Iter> {
      types elt;
      curr : fn(Iter) -> elt;
    } in
    model forall t. Iterator<list t> {
      types elt = t;
      curr = fun(ls : list t). car[t](ls);
    } in
    let first = (forall I where Iterator<I>. Iterator<I>.curr) in
    (first[list int](cons[int](7, nil[int])),
     first[list bool](cons[bool](false, nil[bool]))))");
  EXPECT_EQ(R.Value, "(7, false)") << R.Error;
}

TEST(ParamModelsTest, GroundModelShadowsParameterized) {
  // An inner ground model takes precedence over an outer parameterized
  // one (innermost-first lookup).
  RunResult R = runFg(R"(
    concept C<t> { v : fn(t) -> int; } in
    model forall t. C<list t> { v = fun(x : list t). 1; } in
    let outer = C<list int>.v(nil[int]) in
    let inner =
      (model C<list int> { v = fun(x : list int). 2; } in
       (C<list int>.v(nil[int]), C<list bool>.v(nil[bool]))) in
    (outer, inner))");
  EXPECT_EQ(R.Value, "(1, (2, 1))") << R.Error;
}

TEST(ParamModelsTest, MultiParamPattern) {
  RunResult R = runFg(R"(
    concept Pairish<p, a, b> { mk : fn(a, b) -> p; } in
    model forall a, b. Pairish<(a * b), a, b> {
      mk = fun(x : a, y : b). (x, y);
    } in
    Pairish<(int * bool), int, bool>.mk(3, true))");
  EXPECT_EQ(R.Value, "(3, true)") << R.Error;
  EXPECT_EQ(R.Type, "(int * bool)");
}

TEST(ParamModelsTest, UnboundPatternVariableRejected) {
  std::string Err = compileError(R"(
    concept C<t> { v : t; } in
    model forall t, u. C<list t> { v = nil[t]; } in 0)");
  EXPECT_NE(Err.find("pattern variable `u`"), std::string::npos) << Err;
}

TEST(ParamModelsTest, NonLinearPatternRequiresEqualArgs) {
  // The same variable twice: matches only when both positions agree.
  RunResult R = runFg(R"(
    concept C<a, b> { pick : fn(a, b) -> a; } in
    model forall t. C<t, t> { pick = fun(x : t, y : t). y; } in
    C<int, int>.pick(1, 2))");
  EXPECT_EQ(R.Value, "2") << R.Error;
  std::string Err = compileError(R"(
    concept C<a, b> { pick : fn(a, b) -> a; } in
    model forall t. C<t, t> { pick = fun(x : t, y : t). y; } in
    C<int, bool>.pick(1, true))");
  EXPECT_NE(Err.find("no model of `C<int, bool>`"), std::string::npos)
      << Err;
}

TEST(ParamModelsTest, NamedParameterizedModel) {
  RunResult R = runFg(R"(
    concept C<t> { v : fn(t) -> int; } in
    model [listC] forall t. C<list t> { v = fun(x : list t). 9; } in
    use listC in C<list int>.v(nil[int]))");
  EXPECT_EQ(R.Value, "9") << R.Error;
}

TEST(ParamModelsTest, ParameterizedModelInsideGenericFunction) {
  // The pattern can mention the enclosing function's type parameter.
  RunResult R = runFg(R"(
    concept C<t> { v : fn(t) -> bool; } in
    let f = (forall u.
      model forall t. C<list t> { v = fun(x : list t). null[t](x); } in
      fun(ls : list u). C<list u>.v(ls)) in
    (f[int](nil[int]), f[int](cons[int](1, nil[int]))))");
  EXPECT_EQ(R.Value, "(true, false)") << R.Error;
}

TEST(ParamModelsTest, ResolutionRecursionLimit) {
  // C<t> requires C<list t>: resolution can never terminate; the depth
  // guard must fire instead of looping.
  std::string Err = compileError(R"(
    concept C<t> { v : int; } in
    model forall t where C<list t>. C<t> { v = 0; } in
    C<int>.v)");
  EXPECT_NE(Err.find("recursion limit"), std::string::npos) << Err;
}

TEST(ParamModelsTest, AccumulateOverNestedLists) {
  // Flatten-by-fold: accumulate at list (list int) concatenates, then
  // accumulate at list int sums — all from two parameterized models and
  // one ground pair.
  RunResult R = runFg(std::string(MonoidPrelude) + ListMonoid + R"(
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    let xss = cons[list int](cons[int](1, cons[int](2, nil[int])),
              cons[list int](cons[int](3, cons[int](4, nil[int])),
              nil[list int])) in
    accumulate[int](accumulate[list int](xss)))");
  EXPECT_EQ(R.Value, "10") << R.Error;
}

TEST(ParamModelsTest, TranslationStillVerifiesInSystemF) {
  // Theorem-1 dynamic check holds for dictionary functions too (the
  // harness fails compilation otherwise).
  RunResult R = runFg(std::string(MonoidPrelude) + ListMonoid + R"(
    accumulate[list int](nil[list int]))");
  EXPECT_TRUE(R.CompileOk) << R.Error;
  EXPECT_EQ(R.Value, "[]");
  EXPECT_FALSE(R.SfType.empty());
}
