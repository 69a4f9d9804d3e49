//===- tests/ConceptsTest.cpp - Concepts, models, member access -----------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// Rules CPT, MDL and MEM of Figure 9: declaration checking, model
// checking against concepts, refinement, dictionary-backed member
// access, and the characteristic error cases.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include <gtest/gtest.h>

using namespace fgtest;

namespace {

const char *SemigroupMonoid = R"(
  concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
  concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
)";

std::string withMonoid(const std::string &Rest) {
  return std::string(SemigroupMonoid) + Rest;
}

} // namespace

TEST(ConceptsTest, ConceptDeclarationChecks) {
  RunResult R = runFg(withMonoid("0"));
  EXPECT_TRUE(R.CompileOk) << R.Error;
}

TEST(ConceptsTest, ModelProvidesMembers) {
  RunResult R = runFg(withMonoid(R"(
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    Semigroup<int>.binary_op(20, 22))"));
  EXPECT_EQ(R.Value, "42") << R.Error;
}

TEST(ConceptsTest, InheritedMemberAccessThroughRefinement) {
  // Monoid<int>.binary_op reaches through the refinement dictionary
  // (the paper's b function with a non-trivial path).
  RunResult R = runFg(withMonoid(R"(
    model Semigroup<int> { binary_op = imult; } in
    model Monoid<int> { identity_elt = 1; } in
    Monoid<int>.binary_op(6, 7))"));
  EXPECT_EQ(R.Value, "42") << R.Error;
}

TEST(ConceptsTest, GenericFunctionWithRequirement) {
  RunResult R = runFg(withMonoid(R"(
    let double = (forall t where Monoid<t>.
      fun(x : t). Monoid<t>.binary_op(x, x)) in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    double[int](21))"));
  EXPECT_EQ(R.Value, "42") << R.Error;
}

TEST(ConceptsTest, RequirementChecksRefinementTransitively) {
  // A where clause naming only Semigroup still gives access to
  // Semigroup's members; Monoid's requirement gives access to both.
  RunResult R = runFg(withMonoid(R"(
    let f = (forall t where Monoid<t>.
      fun(x : t). Semigroup<t>.binary_op(Monoid<t>.identity_elt, x)) in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 40; } in
    f[int](2))"));
  EXPECT_EQ(R.Value, "42") << R.Error;
}

TEST(ConceptsTest, MultipleConstraintsOnDistinctParams) {
  RunResult R = runFg(withMonoid(R"(
    let combine = (forall s, t where Monoid<s>, Monoid<t>.
      fun(x : s, y : t).
        (Monoid<s>.binary_op(x, x), Monoid<t>.binary_op(y, y))) in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    model Semigroup<bool> { binary_op = bor; } in
    model Monoid<bool> { identity_elt = false; } in
    combine[int, bool](5, true))"));
  EXPECT_EQ(R.Value, "(10, true)") << R.Error;
}

TEST(ConceptsTest, SquareFromFigure1) {
  // Figure 1's running example, expressed with concepts.
  RunResult R = runFg(R"(
    concept Number<u> { mult : fn(u, u) -> u; } in
    let square = (forall t where Number<t>.
      fun(x : t). Number<t>.mult(x, x)) in
    model Number<int> { mult = imult; } in
    square[int](4))");
  EXPECT_EQ(R.Value, "16") << R.Error;
}

//===----------------------------------------------------------------------===//
// Error cases
//===----------------------------------------------------------------------===//

TEST(ConceptsTest, MissingModelAtInstantiation) {
  std::string Err = compileError(withMonoid(R"(
    let f = (forall t where Monoid<t>. fun(x : t). x) in
    f[int](1))"));
  EXPECT_NE(Err.find("no model of `Monoid<int>`"), std::string::npos)
      << Err;
}

TEST(ConceptsTest, MissingRefinedModelAtModelDecl) {
  std::string Err = compileError(withMonoid(R"(
    model Monoid<int> { identity_elt = 0; } in 0)"));
  EXPECT_NE(Err.find("refined concept `Semigroup<int>`"), std::string::npos)
      << Err;
}

TEST(ConceptsTest, ModelMissingMember) {
  std::string Err = compileError(R"(
    concept C<t> { f : t; g : t; } in
    model C<int> { f = 1; } in 0)");
  EXPECT_NE(Err.find("missing member `g`"), std::string::npos) << Err;
}

TEST(ConceptsTest, ModelMemberWrongType) {
  std::string Err = compileError(R"(
    concept C<t> { f : fn(t) -> t; } in
    model C<int> { f = true; } in 0)");
  EXPECT_NE(Err.find("member `f` has type `bool`"), std::string::npos)
      << Err;
}

TEST(ConceptsTest, ModelUnknownMember) {
  std::string Err = compileError(R"(
    concept C<t> { f : t; } in
    model C<int> { f = 1; h = 2; } in 0)");
  EXPECT_NE(Err.find("no member named `h`"), std::string::npos) << Err;
}

TEST(ConceptsTest, ModelMemberDefinedTwice) {
  std::string Err = compileError(R"(
    concept C<t> { f : t; } in
    model C<int> { f = 1; f = 2; } in 0)");
  EXPECT_NE(Err.find("defined twice"), std::string::npos) << Err;
}

TEST(ConceptsTest, ConceptArityMismatchInModel) {
  std::string Err = compileError(R"(
    concept C<s, t> { f : s; } in
    model C<int> { f = 1; } in 0)");
  EXPECT_NE(Err.find("expects 2 type argument"), std::string::npos) << Err;
}

TEST(ConceptsTest, ConceptArityMismatchInWhere) {
  std::string Err = compileError(R"(
    concept C<s, t> { f : s; } in
    forall a where C<a>. 0)");
  EXPECT_NE(Err.find("expects 2 type argument"), std::string::npos) << Err;
}

TEST(ConceptsTest, MemberAccessWithoutModel) {
  std::string Err = compileError(R"(
    concept C<t> { f : t; } in C<int>.f)");
  EXPECT_NE(Err.find("no model of `C<int>`"), std::string::npos) << Err;
}

TEST(ConceptsTest, UnknownMemberInAccess) {
  std::string Err = compileError(R"(
    concept C<t> { f : t; } in
    model C<int> { f = 1; } in C<int>.nope)");
  EXPECT_NE(Err.find("no member named `nope`"), std::string::npos) << Err;
}

TEST(ConceptsTest, DuplicateConceptMember) {
  std::string Err = compileError("concept C<t> { f : t; f : t; } in 0");
  EXPECT_NE(Err.find("duplicate member"), std::string::npos) << Err;
}

TEST(ConceptsTest, ConceptEscapeIsRejected) {
  // Rule CPT's side condition: the local concept must not occur in the
  // program's result type.
  std::string Err = compileError(R"(
    concept C<t> { types a; f : t; } in
    model C<int> { types a = bool; f = 1; } in
    (forall t where C<t>. fun(x : t). x))");
  EXPECT_NE(Err.find("escapes its scope"), std::string::npos) << Err;
}

TEST(ConceptsTest, DeepRefinementChainMemberAccess) {
  // Four-level refinement: paths of length 3 through nested
  // dictionaries.
  RunResult R = runFg(R"(
    concept A<t> { fa : fn(t) -> t; } in
    concept B<t> { refines A<t>; fb : t; } in
    concept C<t> { refines B<t>; fc : t; } in
    concept D<t> { refines C<t>; fd : t; } in
    model A<int> { fa = fun(x : int). iadd(x, 1); } in
    model B<int> { fb = 10; } in
    model C<int> { fc = 20; } in
    model D<int> { fd = 30; } in
    let f = (forall t where D<t>. fun(x : t). A<t>.fa(x)) in
    iadd(f[int](D<int>.fb), D<int>.fa(0)))");
  EXPECT_EQ(R.Value, "12") << R.Error;
}

TEST(ConceptsTest, DiamondRefinement) {
  // B and C both refine A; D refines B and C.  Member access through
  // either path must agree, and instantiation must not duplicate
  // requirements incorrectly.
  RunResult R = runFg(R"(
    concept A<t> { base : t; } in
    concept B<t> { refines A<t>; fb : t; } in
    concept C<t> { refines A<t>; fc : t; } in
    concept D<t> { refines B<t>; refines C<t>; fd : t; } in
    model A<int> { base = 7; } in
    model B<int> { fb = 1; } in
    model C<int> { fc = 2; } in
    model D<int> { fd = 3; } in
    let f = (forall t where D<t>. (B<t>.base, C<t>.base, D<t>.base)) in
    f[int])");
  EXPECT_EQ(R.Value, "(7, 7, 7)") << R.Error;
}

TEST(ConceptsTest, DiamondKeysCaptureNothingUnderARefinedForall) {
  // Instantiating f finds its diamonds on its requirements opened at
  // distinct parameters.  D<a> refines C<forall u. fn(u) -> a>; read at
  // the stored index of a, that key was captured as C<forall u. fn(u)
  // -> u>, equal to f's second requirement, whose elt slot then went
  // unfilled: `f[int, int]` for abstraction's three parameters.
  RunResult R = runFg(R"(
    concept C<t> { types elt; } in
    concept D<t> { refines C<forall u. fn(u) -> t>; } in
    model C<forall u. fn(u) -> int> { types elt = int; } in
    model C<forall u. fn(u) -> u> { types elt = bool; } in
    model D<int> { } in
    let f = (forall a where D<a>, C<forall u. fn(u) -> u>. 1) in
    f[int])");
  EXPECT_EQ(R.Value, "1") << R.Error;
}

TEST(ConceptsTest, ConceptWithMultipleParams) {
  // Grouping constraints on several types in one concept — the paper
  // lists this as a weakness of the subtyping approach that concepts
  // solve (section 2).
  RunResult R = runFg(R"(
    concept Convert<a, b> { convert : fn(a) -> b; } in
    model Convert<int, bool> { convert = fun(n : int). ine(n, 0); } in
    let conv = (forall a, b where Convert<a, b>.
      fun(x : a). Convert<a, b>.convert(x)) in
    conv[int, bool](3))");
  EXPECT_EQ(R.Value, "true") << R.Error;
}

TEST(ConceptsTest, ModelForStructuredType) {
  // Models at non-atomic types: list int.
  RunResult R = runFg(withMonoid(R"(
    model Semigroup<list int> {
      binary_op = fix (fun(app : fn(list int, list int) -> list int).
        fun(a : list int, b : list int).
          if null[int](a) then b
          else cons[int](car[int](a), app(cdr[int](a), b)));
    } in
    model Monoid<list int> { identity_elt = nil[int]; } in
    Monoid<list int>.binary_op(cons[int](1, nil[int]),
                               cons[int](2, nil[int])))"));
  EXPECT_EQ(R.Value, "[1, 2]") << R.Error;
}

TEST(ConceptsTest, WhereClauseRequirementsAreLexicallyScopedModels) {
  // Inside the generic body, the requirement acts as a model proxy: the
  // member access typechecks with no concrete model anywhere.
  RunResult R = runFg(withMonoid(R"(
    let f = (forall t where Monoid<t>. Monoid<t>.identity_elt) in 0)"));
  EXPECT_TRUE(R.CompileOk) << R.Error;
}
