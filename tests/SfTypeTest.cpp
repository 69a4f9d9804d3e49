//===- tests/SfTypeTest.cpp - System F type tests -------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Type.h"
#include "core/Type.h"
#include "support/DeepStack.h"
#include <chrono>
#include <gtest/gtest.h>
#include <type_traits>

using namespace fg::sf;

namespace {

// F_G and System F share one type language, but their nodes are
// distinct C++ types, and only F_G's context builds associated types
// and where clauses.
static_assert(!std::is_convertible_v<const fg::Type *, const fg::sf::Type *>);
static_assert(!std::is_convertible_v<const fg::sf::Type *, const fg::Type *>);

template <typename CtxT>
concept BuildsAssocTypes =
    requires(CtxT &Ctx) { Ctx.getAssocType(0u, "C", {}, "elt"); };
static_assert(BuildsAssocTypes<fg::TypeContext>);
static_assert(!BuildsAssocTypes<fg::sf::TypeContext>);

template <typename CtxT>
concept BuildsWhereClauses =
    requires(CtxT &Ctx) { Ctx.getForAllType({}, {}, {}, nullptr); };
static_assert(BuildsWhereClauses<fg::TypeContext>);
static_assert(!BuildsWhereClauses<fg::sf::TypeContext>);

class SfTypeTest : public ::testing::Test {
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

TEST_F(SfTypeTest, BaseTypesAreSingletons) {
  EXPECT_EQ(Ctx.getIntType(), Ctx.getIntType());
  EXPECT_EQ(Ctx.getBoolType(), Ctx.getBoolType());
  EXPECT_NE(Ctx.getIntType(), Ctx.getBoolType());
}

TEST_F(SfTypeTest, StructuralHashConsing) {
  const Type *I = Ctx.getIntType();
  const Type *A1 = Ctx.getArrowType({I, I}, I);
  const Type *A2 = Ctx.getArrowType({I, I}, I);
  EXPECT_EQ(A1, A2);
  EXPECT_NE(A1, Ctx.getArrowType({I}, I));
  EXPECT_EQ(Ctx.getListType(I), Ctx.getListType(I));
  EXPECT_EQ(Ctx.getTupleType({I, I}), Ctx.getTupleType({I, I}));
  EXPECT_NE(Ctx.getTupleType({I}), Ctx.getTupleType({I, I}));
}

TEST_F(SfTypeTest, ParamsInternByIdOnly) {
  const Type *P1 = Ctx.getParamType(7, "t");
  const Type *P2 = Ctx.getParamType(7, "t");
  const Type *P3 = Ctx.getParamType(8, "t");
  EXPECT_EQ(P1, P2);
  EXPECT_NE(P1, P3) << "same name, different id";
}

TEST_F(SfTypeTest, AlphaEquivalentForAllsAreOneNode) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  // forall a. fn(a) -> a   and   forall b. fn(b) -> b
  const Type *FA = Ctx.getForAllType({{A, "a"}}, Ctx.getArrowType({PA}, PA));
  const Type *FB = Ctx.getForAllType({{B, "b"}}, Ctx.getArrowType({PB}, PB));
  EXPECT_EQ(FA, FB) << "pointer equality is alpha-equivalence";
}

TEST_F(SfTypeTest, FreeVariablesBlockAlphaEquivalence) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  // forall a. a   vs   forall b. a  (a free in the second)
  const Type *F1 = Ctx.getForAllType({{A, "a"}}, PA);
  const Type *F2 = Ctx.getForAllType({{B, "b"}}, PA);
  EXPECT_NE(F1, F2);
}

TEST_F(SfTypeTest, NestedBindersRespectShadowOrder) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  unsigned C = Ctx.freshParamId(), D = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *PC = Ctx.getParamType(C, "c");
  const Type *PD = Ctx.getParamType(D, "d");
  // forall a. forall b. fn(a) -> b   ==   forall c. forall d. fn(c) -> d
  const Type *F1 = Ctx.getForAllType(
      {{A, "a"}},
      Ctx.getForAllType({{B, "b"}}, Ctx.getArrowType({PA}, PB)));
  const Type *F2 = Ctx.getForAllType(
      {{C, "c"}},
      Ctx.getForAllType({{D, "d"}}, Ctx.getArrowType({PC}, PD)));
  EXPECT_EQ(F1, F2);
  // ... but forall c. forall d. fn(d) -> c differs.
  const Type *F3 = Ctx.getForAllType(
      {{C, "c"}},
      Ctx.getForAllType({{D, "d"}}, Ctx.getArrowType({PD}, PC)));
  EXPECT_NE(F1, F3);
}

TEST_F(SfTypeTest, SubstitutionReplacesFreeParams) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *I = Ctx.getIntType();
  const Type *T = Ctx.getArrowType({PA, Ctx.getListType(PA)}, PA);
  TypeSubst S{{A, I}};
  const Type *Out = Ctx.substitute(T, S);
  EXPECT_EQ(Out, Ctx.getArrowType({I, Ctx.getListType(I)}, I));
}

TEST_F(SfTypeTest, SubstitutionLeavesBoundParamsAlone) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *F = Ctx.getForAllType({{B, "b"}}, Ctx.getArrowType({PB}, PB));
  TypeSubst S{{A, Ctx.getIntType()}};
  EXPECT_EQ(Ctx.substitute(F, S), F);
}

TEST_F(SfTypeTest, OpenInstantiatesTheBodyAndLeavesInnerBindersAlone) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *I = Ctx.getIntType();
  // forall a. fn(a, forall b. fn(b) -> a) -> list a, opened at int.
  const Type *Inner = Ctx.getForAllType({{B, "b"}}, Ctx.getArrowType({PB}, PA));
  const auto *F = fg::cast<ForAllType>(Ctx.getForAllType(
      {{A, "a"}}, Ctx.getArrowType({PA, Inner}, Ctx.getListType(PA))));
  ForAllParts Open = Ctx.open(F, {I});
  EXPECT_TRUE(Open.Requirements.empty() && Open.Equations.empty());
  const Type *InnerI =
      Ctx.getForAllType({{B, "b"}}, Ctx.getArrowType({PB}, I));
  EXPECT_EQ(Open.Body, Ctx.getArrowType({I, InnerI}, Ctx.getListType(I)));
  EXPECT_EQ(typeToString(Open.Body),
            "fn(int, forall b. fn(b) -> int) -> list int");
  // Opening with a parameter puts that parameter in place.
  const Type *X = Ctx.freshParam("x");
  EXPECT_EQ(Ctx.open(F, {X}).Body,
            Ctx.getArrowType({X, Ctx.getForAllType(
                                     {{B, "b"}}, Ctx.getArrowType({PB}, X))},
                             Ctx.getListType(X)));
}

TEST_F(SfTypeTest, CollectFreeParams) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  const Type *F = Ctx.getForAllType({{B, "b"}}, Ctx.getArrowType({PA}, PB));
  std::unordered_set<unsigned> Free;
  Ctx.collectFreeParams(F, Free);
  EXPECT_TRUE(Free.count(A));
  EXPECT_FALSE(Free.count(B)) << "bound parameter is not free";
}

TEST_F(SfTypeTest, Printing) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "t");
  const Type *I = Ctx.getIntType();
  EXPECT_EQ(typeToString(I), "int");
  EXPECT_EQ(typeToString(Ctx.getListType(I)), "list int");
  EXPECT_EQ(typeToString(Ctx.getArrowType({I, I}, I)),
            "fn(int, int) -> int");
  EXPECT_EQ(typeToString(Ctx.getTupleType({I, Ctx.getBoolType()})),
            "(int * bool)");
  EXPECT_EQ(
      typeToString(Ctx.getForAllType({{A, "t"}}, Ctx.getArrowType({PA}, PA))),
      "forall t. fn(t) -> t");
}

TEST_F(SfTypeTest, PrintingRenamesABinderThatWouldCaptureAFreeName) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  // fn(b) -> forall b. fn(b) -> b', with b' the free parameter b: what
  // instantiating forall a. fn(a) -> forall b. fn(b) -> a at b gives.
  const Type *Free = Ctx.freshParam("b");
  EXPECT_EQ(typeToString(Ctx.getArrowType(
                {Free}, Ctx.getForAllType({{B, "b"}},
                                          Ctx.getArrowType({PB}, Free)))),
            "fn(b) -> forall b1. fn(b1) -> b");
  // The outer binder a is free in the inner forall, named as printed.
  EXPECT_EQ(typeToString(Ctx.getForAllType(
                {{A, "b"}}, Ctx.getForAllType({{B, "b"}},
                                              Ctx.getArrowType({PB}, PA)))),
            "forall b. forall b1. fn(b1) -> b");
}

TEST_F(SfTypeTest, PaperFigure3SumType) {
  // The higher-order sum from Figure 3 has type
  //   forall t. fn(list t, fn(t, t) -> t, t) -> t
  unsigned T = Ctx.freshParamId();
  const Type *PT = Ctx.getParamType(T, "t");
  const Type *Add = Ctx.getArrowType({PT, PT}, PT);
  const Type *Sum = Ctx.getForAllType(
      {{T, "t"}}, Ctx.getArrowType({Ctx.getListType(PT), Add, PT}, PT));
  EXPECT_EQ(typeToString(Sum),
            "forall t. fn(list t, fn(t, t) -> t, t) -> t");
}

TEST_F(SfTypeTest, DeepListChainInternsInLinearTime) {
  expectLinearChain([&](const Type *T) { return Ctx.getListType(T); });
}

TEST_F(SfTypeTest, DeepArrowChainInternsInLinearTime) {
  const Type *I = Ctx.getIntType();
  expectLinearChain([&](const Type *T) { return Ctx.getArrowType({T}, I); });
}

TEST_F(SfTypeTest, DeepNestedForAllChainInternsInLinearTime) {
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
      T = Ctx.getForAllType({{Ctx.freshParamId(), "a"}}, T);
    return Ctx.getForAllType({{A0, "a0"}}, T);
  };
  auto Start = std::chrono::steady_clock::now();
  const Type *First = nullptr, *Again = nullptr;
  fg::runOnDeepStack([&] { // Closing a0 recurses through every level.
    First = Build();
    Again = Build();
  });
  EXPECT_EQ(First, Again);
  EXPECT_LT(std::chrono::steady_clock::now() - Start,
            std::chrono::seconds(5));
}

//===----------------------------------------------------------------------===//
// Foralls of one shape that differ in a child are two nodes
//===----------------------------------------------------------------------===//

TEST_F(SfTypeTest, ForAllsThatDifferInAFreeParamAreTwoNodes) {
  unsigned A = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *X = Ctx.freshParam("x");
  const Type *Y = Ctx.freshParam("y");
  // forall a. fn(a, x) -> a   vs the same with y.
  auto Make = [&](const Type *Free) {
    return Ctx.getForAllType({{A, "a"}}, Ctx.getArrowType({PA, Free}, PA));
  };
  const Type *FX = Make(X);
  const Type *FY = Make(Y);
  EXPECT_NE(FX, FY);
  EXPECT_EQ(FX, Make(X));
}

TEST_F(SfTypeTest, ForAllsWhoseBodiesSwapBinderOrderAreTwoNodes) {
  unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
  const Type *PA = Ctx.getParamType(A, "a");
  const Type *PB = Ctx.getParamType(B, "b");
  // forall a, b. fn(a) -> b   vs   forall a, b. fn(b) -> a.
  auto Make = [&](const Type *From, const Type *To) {
    return Ctx.getForAllType({{A, "a"}, {B, "b"}},
                             Ctx.getArrowType({From}, To));
  };
  const Type *AB = Make(PA, PB);
  const Type *BA = Make(PB, PA);
  EXPECT_NE(AB, BA);
}

TEST_F(SfTypeTest, AlphaEquivalentNestedForAllsAreOneNode) {
  // forall a. forall b. fn(a, b) -> list a, built twice with fresh
  // parameter ids.
  auto Make = [&](const std::string &NA, const std::string &NB) {
    unsigned A = Ctx.freshParamId(), B = Ctx.freshParamId();
    const Type *PA = Ctx.getParamType(A, NA);
    const Type *PB = Ctx.getParamType(B, NB);
    const Type *Inner = Ctx.getForAllType(
        {{B, NB}}, Ctx.getArrowType({PA, PB}, Ctx.getListType(PA)));
    return Ctx.getForAllType({{A, NA}}, Inner);
  };
  const Type *First = Make("a", "b");
  const Type *Second = Make("s", "t");
  EXPECT_EQ(First, Second);
  EXPECT_EQ(typeToString(Second), "forall a. forall b. fn(a, b) -> list a")
      << "the first node of an alpha-class keeps its names";
}
