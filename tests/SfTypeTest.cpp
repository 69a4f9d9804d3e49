//===- tests/SfTypeTest.cpp - System F type tests -------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Type.h"
#include <chrono>
#include <gtest/gtest.h>

using namespace fg;
using namespace fg::sf;

namespace {

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
