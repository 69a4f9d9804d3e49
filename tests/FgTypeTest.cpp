//===- tests/FgTypeTest.cpp - F_G type representation tests ---------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "core/Type.h"
#include "support/DeepStack.h"
#include <chrono>
#include <gtest/gtest.h>

using namespace fg;

namespace {

class FgTypeTest : public ::testing::Test {
protected:
  TypeContext Ctx;

  /// Interns \p Wrap around int 50,000 times with a loop, twice, and
  /// expects the second chain to be the first one's nodes.  A node is
  /// hashed from its children's stored hashes, so each level costs the
  /// same: about 0.05 s in all optimized, 0.6 s under ASan.  When each
  /// intern rehashed its subtree, one such case took 100 to 180 s.
  template <typename WrapT> void expectLinearChain(WrapT Wrap) {
    auto Start = std::chrono::steady_clock::now();
    const Type *First = Ctx.getIntType();
    const Type *Again = Ctx.getIntType();
    for (int D = 0; D != 50000; ++D)
      First = Wrap(First);
    for (int D = 0; D != 50000; ++D)
      Again = Wrap(Again);
    EXPECT_EQ(First, Again);
    EXPECT_LT(std::chrono::steady_clock::now() - Start,
              std::chrono::seconds(5));
  }
};

} // namespace

TEST_F(FgTypeTest, AssocTypesHashCons) {
  const Type *I = Ctx.getIntType();
  const Type *A1 = Ctx.getAssocType(3, "Iterator", {I}, "elt");
  const Type *A2 = Ctx.getAssocType(3, "Iterator", {I}, "elt");
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, Ctx.getAssocType(3, "Iterator", {I}, "other"));
  EXPECT_NE(A1, Ctx.getAssocType(4, "Iterator", {I}, "elt"))
      << "distinct concept ids are distinct even with equal names";
}

TEST_F(FgTypeTest, ForAllWithRequirementsHashConsesAlphaAware) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  ConceptRef RA{1, "Monoid", {PA}};
  ConceptRef RB{1, "Monoid", {PB}};
  const Type *F1 = Ctx.getForAllType({{A, "a"}}, {RA}, {}, PA);
  const Type *F2 = Ctx.getForAllType({{B, "b"}}, {RB}, {}, PB);
  EXPECT_EQ(F1, F2);
  // A different concept id in the requirement breaks the equality.
  ConceptRef RC{2, "Monoid", {PB}};
  const Type *F3 = Ctx.getForAllType({{B, "b"}}, {RC}, {}, PB);
  EXPECT_NE(F1, F3);
}

TEST_F(FgTypeTest, ForAllEquationsDistinguish) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *I = Ctx.getIntType();
  const Type *F1 = Ctx.getForAllType({{A, "a"}}, {}, {{PA, I}}, PA);
  const Type *F2 = Ctx.getForAllType({{A, "a"}}, {}, {}, PA);
  EXPECT_NE(F1, F2);
}

TEST_F(FgTypeTest, SubstitutionReachesWhereClauses) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *I = Ctx.getIntType();
  // forall b where C<a, b>. fn(a) -> b,  then substitute a := int.
  ConceptRef R{1, "C", {PA, PB}};
  const Type *F =
      Ctx.getForAllType({{B, "b"}}, {R}, {}, Ctx.getArrowType({PA}, PB));
  TypeSubst S{{A, I}};
  ForAllParts Open =
      Ctx.open(cast<ForAllType>(Ctx.substitute(F, S)), {PB});
  EXPECT_EQ(Open.Requirements[0].Args[0], I);
  EXPECT_EQ(Open.Requirements[0].Args[1], PB);
  EXPECT_EQ(Open.Body, Ctx.getArrowType({I}, PB));
}

TEST_F(FgTypeTest, OpenInstantiatesWhereClauseAndBody) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *I = Ctx.getIntType();
  const Type *Elt = Ctx.getAssocType(5, "It", {PA}, "elt");
  // forall a where C<a>, It<a>.elt == int.
  //   fn(a, forall b where D<a, b>. fn(b) -> a) -> It<a>.elt
  const Type *Inner =
      Ctx.getForAllType({{B, "b"}}, {ConceptRef{2, "D", {PA, PB}}}, {},
                        Ctx.getArrowType({PB}, PA));
  const auto *F = cast<ForAllType>(Ctx.getForAllType(
      {{A, "a"}}, {ConceptRef{1, "C", {PA}}}, {{Elt, I}},
      Ctx.getArrowType({PA, Inner}, Elt)));
  const Type *L = Ctx.getListType(I);
  ForAllParts Open = Ctx.open(F, {L});
  const Type *EltL = Ctx.getAssocType(5, "It", {L}, "elt");
  ASSERT_EQ(Open.Requirements.size(), 1u);
  EXPECT_EQ(Open.Requirements[0].Args, std::vector<const Type *>{L});
  ASSERT_EQ(Open.Equations.size(), 1u);
  EXPECT_EQ(Open.Equations[0].Lhs, EltL);
  EXPECT_EQ(Open.Equations[0].Rhs, I);
  // The inner forall's own binder is left alone: it is still forall b
  // over D<list int, b>.
  const Type *InnerL = Ctx.getForAllType(
      {{B, "b"}}, {ConceptRef{2, "D", {L, PB}}}, {}, Ctx.getArrowType({PB}, L));
  EXPECT_EQ(Open.Body, Ctx.getArrowType({L, InnerL}, EltL));
  EXPECT_EQ(typeToString(Open.Body),
            "fn(list int, forall b where D<list int, b>. fn(b) -> list int) "
            "-> It<list int>.elt");
}

TEST_F(FgTypeTest, SubstitutionReachesAssocArgs) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *T = Ctx.getAssocType(7, "Iterator", {Ctx.getListType(PA)},
                                   "elt");
  TypeSubst S{{A, Ctx.getIntType()}};
  const Type *Out = Ctx.substitute(T, S);
  EXPECT_EQ(Out,
            Ctx.getAssocType(7, "Iterator",
                             {Ctx.getListType(Ctx.getIntType())}, "elt"));
}

TEST_F(FgTypeTest, CollectConceptIdsFindsAllOccurrences) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *Assoc = Ctx.getAssocType(5, "It", {PA}, "elt");
  ConceptRef R{9, "M", {Assoc}};
  const Type *F = Ctx.getForAllType({{A, "a"}}, {R}, {}, PA);
  std::unordered_set<unsigned> Ids;
  Ctx.collectConceptIds(F, Ids);
  EXPECT_TRUE(Ids.count(5));
  EXPECT_TRUE(Ids.count(9));
  EXPECT_EQ(Ids.size(), 2u);
}

TEST_F(FgTypeTest, CollectFreeParamsThroughWhere) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  ConceptRef R{1, "C", {PA, PB}};
  const Type *F = Ctx.getForAllType({{B, "b"}}, {R}, {}, PB);
  std::unordered_set<unsigned> Free;
  Ctx.collectFreeParams(F, Free);
  EXPECT_TRUE(Free.count(A));
  EXPECT_FALSE(Free.count(B));
}

TEST_F(FgTypeTest, PrintingRenamesABinderThatWouldCaptureAFreeName) {
  unsigned B = Ctx.freshParamId(), B1 = Ctx.freshParamId();
  const Type *Free = Ctx.freshParam("b");
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *PB1 = Ctx.getParamType(B1, "b1");
  // forall b. fn(b) -> b', with b' a free parameter also named b.
  EXPECT_EQ(typeToString(Ctx.getForAllType({{B, "b"}}, {}, {},
                                           Ctx.getArrowType({PB}, Free))),
            "forall b1. fn(b1) -> b");
  // The suffix skips the names the forall uses: b1 is its other binder.
  EXPECT_EQ(typeToString(Ctx.getForAllType(
                {{B, "b"}, {B1, "b1"}}, {ConceptRef{1, "C", {PB, Free}}}, {},
                Ctx.getArrowType({PB, PB1}, Free))),
            "forall b2, b1 where C<b2, b>. fn(b2, b1) -> b");
  // An outer binder that the inner forall names is free in it too, while
  // a shadowed one that it does not name is not.
  unsigned C = Ctx.freshParamId();
  const Type *PC = Ctx.getParamType(C, "b");
  EXPECT_EQ(typeToString(Ctx.getForAllType(
                {{B, "b"}}, {}, {},
                Ctx.getForAllType({{C, "b"}}, {}, {},
                                  Ctx.getArrowType({PB}, PC)))),
            "forall b. forall b1. fn(b) -> b1");
  EXPECT_EQ(typeToString(Ctx.getForAllType(
                {{B, "b"}}, {}, {},
                Ctx.getForAllType({{C, "b"}}, {}, {},
                                  Ctx.getArrowType({PC}, PC)))),
            "forall b. forall b. fn(b) -> b");
}

TEST_F(FgTypeTest, Printing) {
  unsigned T = Ctx.freshParamId();
  const Type *PT = Ctx.getParamType(T, "t");
  const Type *Assoc = Ctx.getAssocType(1, "Iterator", {PT}, "elt");
  EXPECT_EQ(typeToString(Assoc), "Iterator<t>.elt");
  ConceptRef R{2, "Monoid", {Assoc}};
  const Type *F = Ctx.getForAllType({{T, "t"}}, {R},
                                    {{Assoc, Ctx.getIntType()}},
                                    Ctx.getArrowType({PT}, Assoc));
  EXPECT_EQ(typeToString(F),
            "forall t where Monoid<Iterator<t>.elt>, Iterator<t>.elt == "
            "int. fn(t) -> Iterator<t>.elt");
}

TEST_F(FgTypeTest, TupleAndListPrinting) {
  const Type *I = Ctx.getIntType();
  EXPECT_EQ(typeToString(Ctx.getTupleType({I, Ctx.getBoolType()})),
            "(int * bool)");
  EXPECT_EQ(typeToString(Ctx.getListType(Ctx.getListType(I))),
            "list (list int)");
}

TEST_F(FgTypeTest, DeepListChainInternsInLinearTime) {
  expectLinearChain([&](const Type *T) { return Ctx.getListType(T); });
}

TEST_F(FgTypeTest, DeepArrowChainInternsInLinearTime) {
  const Type *I = Ctx.getIntType();
  expectLinearChain([&](const Type *T) { return Ctx.getArrowType({T}, I); });
}

TEST_F(FgTypeTest, DeepNestedForAllChainInternsInLinearTime) {
  // forall a0. ... forall a49999. fn(a0) -> int, built twice with fresh
  // ids.  Closing each level skips the body, whose free ids lie below the
  // level's own, and only closing a0 walks it: about 0.1 s optimized.
  // When the interner compared a forall's body with its alpha-twin's
  // under binder stacks, each level walked the whole body.
  auto Build = [&] {
    unsigned A0 = Ctx.freshParamId();
    const Type *T = Ctx.getArrowType({Ctx.getParamType(A0, "a0")},
                                     Ctx.getIntType());
    for (int D = 1; D != 50000; ++D)
      T = Ctx.getForAllType({{Ctx.freshParamId(), "a"}}, {}, {}, T);
    return Ctx.getForAllType({{A0, "a0"}}, {}, {}, T);
  };
  auto Start = std::chrono::steady_clock::now();
  const Type *First = nullptr, *Again = nullptr;
  runOnDeepStack([&] { // Closing a0 recurses through every level.
    First = Build();
    Again = Build();
  });
  EXPECT_EQ(First, Again);
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(5));
}

TEST_F(FgTypeTest, DeepSameNameForAllChainPrintsInLinearTime) {
  // forall a. ... forall a. fn(a) -> int, 50,000 levels whose body names
  // the innermost a.  Every level's binder name is visible from the one
  // around it, but every level is closed, so the capture check walks no
  // body.  When a closed node was taken to have free parameters, each
  // level walked the whole body below it.
  unsigned A = Ctx.freshParamId();
  const Type *T = Ctx.getForAllType(
      {{A, "a"}}, {}, {},
      Ctx.getArrowType({Ctx.getParamType(A, "a")}, Ctx.getIntType()));
  std::string Expected = "forall a. ";
  for (int D = 1; D != 50000; ++D) {
    T = Ctx.getForAllType({{Ctx.freshParamId(), "a"}}, {}, {}, T);
    Expected += "forall a. ";
  }
  Expected += "fn(a) -> int";
  auto Start = std::chrono::steady_clock::now();
  std::string Printed;
  runOnDeepStack([&] { Printed = typeToString(T); });
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(5));
  EXPECT_TRUE(Printed == Expected) << Printed.substr(0, 80);
}

//===----------------------------------------------------------------------===//
// Foralls of one shape that differ in a child are two nodes
//===----------------------------------------------------------------------===//

TEST_F(FgTypeTest, ForAllsThatDifferInAFreeParamAreTwoNodes) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *X = Ctx.freshParam("x");
  const Type *Y = Ctx.freshParam("y");
  // forall a where C<a>. fn(a, x) -> a   vs the same with y.
  auto Make = [&](const Type *Free) {
    return Ctx.getForAllType({{A, "a"}}, {ConceptRef{1, "C", {PA}}}, {},
                             Ctx.getArrowType({PA, Free}, PA));
  };
  const Type *FX = Make(X);
  const Type *FY = Make(Y);
  EXPECT_NE(FX, FY);
  EXPECT_EQ(FX, Make(X));
}

TEST_F(FgTypeTest, ForAllsThatDifferInAnAssocAreTwoNodes) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  auto Make = [&](unsigned ConceptId, const std::string &Member) {
    return Ctx.getForAllType(
        {{A, "a"}}, {ConceptRef{3, "Iterator", {PA}}}, {},
        Ctx.getArrowType({PA}, Ctx.getAssocType(ConceptId, "Iterator", {PA},
                                                Member)));
  };
  const Type *Elt = Make(3, "elt");
  EXPECT_NE(Elt, Make(3, "diff")) << "members differ";
  EXPECT_NE(Elt, Make(4, "elt")) << "concept ids differ";
  EXPECT_EQ(Elt, Make(3, "elt"));
}

TEST_F(FgTypeTest, ForAllsWhoseRequirementsSwapArgumentsAreTwoNodes) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  // forall a, b where C<a, b>. fn(a) -> b   vs the same with C<b, a>.
  auto Make = [&](std::vector<const Type *> ReqArgs) {
    return Ctx.getForAllType({{A, "a"}, {B, "b"}},
                             {ConceptRef{1, "C", std::move(ReqArgs)}}, {},
                             Ctx.getArrowType({PA}, PB));
  };
  const Type *AB = Make({PA, PB});
  const Type *BA = Make({PB, PA});
  EXPECT_NE(AB, BA);
}

TEST_F(FgTypeTest, AlphaEquivalentNestedForAllsWithWhereClausesAreOneNode) {
  // forall a where C<a>, It<a>.elt == int.
  //   forall b where D<a, b>. fn(a, b) -> It<a>.elt,
  // built twice with fresh parameter ids.
  auto Make = [&](const std::string &NA, const std::string &NB) {
    unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
    const Type *PA = Ctx.getParamType(A, NA);
    const Type *PB = Ctx.getParamType(B, NB);
    const Type *Elt = Ctx.getAssocType(5, "It", {PA}, "elt");
    const Type *Inner =
        Ctx.getForAllType({{B, NB}}, {ConceptRef{2, "D", {PA, PB}}}, {},
                          Ctx.getArrowType({PA, PB}, Elt));
    return Ctx.getForAllType({{A, NA}}, {ConceptRef{1, "C", {PA}}},
                             {{Elt, Ctx.getIntType()}}, Inner);
  };
  const Type *First = Make("a", "b");
  const Type *Second = Make("s", "t");
  EXPECT_EQ(First, Second);
  EXPECT_EQ(typeToString(Second),
            "forall a where C<a>, It<a>.elt == int. forall b where D<a, b>. "
            "fn(a, b) -> It<a>.elt")
      << "the first node of an alpha-class keeps its names";
}
