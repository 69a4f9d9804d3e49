//===- tests/VmTest.cpp - Bytecode VM backend tests -----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// Covers the vm/ subsystem on three levels:
//
//  * compilation mechanics — let-flattening into frame slots, flat-
//    closure capture threading, constant/builtin interning, shadowing,
//    unbound-name rejection, disassembler output;
//  * limit enforcement — the sf::EvalOptions step/depth aborts must
//    fire with exactly the tree evaluator's diagnostics, on every
//    backend (the divergence tests run all of them);
//  * observational equivalence — every conformance program and shipped
//    example must produce identical outcomes on every backend
//    (Differential.h).
//
//===----------------------------------------------------------------------===//

#include "Differential.h"
#include "syntax/Frontend.h"
#include "vm/Disasm.h"
#include "vm/Emit.h"
#include "vm/VM.h"
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

// Only the sf namespace: Frontend.h also pulls in the F_G AST, whose
// Term/Type names would otherwise be ambiguous with System F's.
using namespace fg::sf;
using fg::dyn_cast_or_null;
namespace vm = fg::vm;

namespace {

class VmTest : public ::testing::Test {
protected:
  VmTest() : ThePrelude(makePrelude(Ctx)) {}

  std::shared_ptr<const vm::Chunk> compileChunk(const Term *T) {
    std::string Error;
    std::shared_ptr<const vm::Chunk> C = vm::compile(T, ThePrelude, &Error);
    EXPECT_NE(C, nullptr) << Error;
    return C;
  }

  int64_t runInt(const Term *T) {
    EvalResult R = vm::runTerm(T, ThePrelude, Opts);
    EXPECT_TRUE(R.ok()) << R.Error;
    const auto *I = dyn_cast_or_null<IntValue>(R.Val.get());
    EXPECT_NE(I, nullptr);
    return I ? I->getValue() : INT64_MIN;
  }

  /// fix (fun(f). fun(n). f(n)) applied to 0 — diverges on every
  /// backend; used by the limit tests.
  const Term *divergentLoop() {
    const Type *I = Ctx.getIntType();
    const Type *FnTy = Ctx.getArrowType({I}, I);
    const Term *Loop = A.makeFix(A.makeAbs(
        {{"f", FnTy}},
        A.makeAbs({{"n", I}},
                  A.makeApp(A.makeVar("f"), {A.makeVar("n")}))));
    return A.makeApp(Loop, {A.makeIntLit(0)});
  }

  /// Runs \p T on every System F engine with \p O and EXPECTs one
  /// identical failure message containing \p ExpectedSubstr.  The AOT
  /// backend joins whenever a host compiler is available: the compiled
  /// program must re-raise the exact step/depth diagnostics at the
  /// exact same charge points.
  void expectUniformAbort(const Term *T, const EvalOptions &O,
                          const std::string &ExpectedSubstr) {
    Evaluator Tree(O);
    EvalResult RT = Tree.eval(T, ThePrelude.Values);
    EvalResult RV = vm::runTerm(T, ThePrelude, O);
    auto Check = [&](const char *Name, const EvalResult &R) {
      EXPECT_FALSE(R.ok()) << Name << " backend did not abort";
      EXPECT_NE(R.Error.find(ExpectedSubstr), std::string::npos)
          << Name << " backend aborted with: " << R.Error;
    };
    Check("tree", RT);
    Check("vm", RV);
    EXPECT_EQ(RT.Error, RV.Error);
    if (fg::aot::toolchainAvailable()) {
      EvalResult RA = fg::aot::runAot(T, ThePrelude, O);
      Check("aot", RA);
      EXPECT_EQ(RT.Error, RA.Error);
    }
  }

  TypeContext Ctx;
  TermArena A;
  Prelude ThePrelude;
  EvalOptions Opts;
};

std::vector<std::string> fgFilesIn(const std::string &Dir) {
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".fg")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Compilation mechanics
//===----------------------------------------------------------------------===//

TEST_F(VmTest, LiteralCompilesToConstReturn) {
  auto C = compileChunk(A.makeIntLit(42));
  ASSERT_EQ(C->Protos.size(), 1u);
  const vm::Proto &Entry = C->Protos[0];
  ASSERT_EQ(Entry.Code.size(), 2u);
  EXPECT_EQ(Entry.Code[0].Opcode, vm::Op::Const);
  EXPECT_EQ(Entry.Code[1].Opcode, vm::Op::Return);
  ASSERT_EQ(C->Constants.size(), 1u);
  EXPECT_EQ(valueToString(C->Constants[0]), "42");
}

TEST_F(VmTest, LetChainFlattensIntoOneFrame) {
  // let a = 1 in let b = 2 in let c = 3 in iadd(a, iadd(b, c)) — three
  // lets become registers r0..r2 of the entry frame (initializers
  // written straight into their slots), not three environments.
  const Term *T = A.makeLet(
      "a", A.makeIntLit(1),
      A.makeLet(
          "b", A.makeIntLit(2),
          A.makeLet("c", A.makeIntLit(3),
                    A.makeApp(A.makeVar("iadd"),
                              {A.makeVar("a"),
                               A.makeApp(A.makeVar("iadd"),
                                         {A.makeVar("b"),
                                          A.makeVar("c")})}))));
  auto C = compileChunk(T);
  ASSERT_EQ(C->Protos.size(), 1u);
  EXPECT_GE(C->Protos[0].NumRegs, 3u);
  // r0 is the entry frame's result register; the three let slots
  // follow it at r1..r3, each initializer written straight in.
  for (uint32_t Slot = 0; Slot != 3; ++Slot) {
    EXPECT_EQ(C->Protos[0].Code[Slot].Opcode, vm::Op::Const);
    EXPECT_EQ(C->Protos[0].Code[Slot].A, Slot + 1);
  }
  EXPECT_EQ(runInt(T), 6);
}

TEST_F(VmTest, ConstantsAndBuiltinsAreInterned) {
  // 7 appears three times and iadd twice: one pool entry each.
  const Term *T = A.makeApp(
      A.makeVar("iadd"),
      {A.makeIntLit(7),
       A.makeApp(A.makeVar("iadd"), {A.makeIntLit(7), A.makeIntLit(7)})});
  auto C = compileChunk(T);
  EXPECT_EQ(C->Constants.size(), 1u);
  ASSERT_EQ(C->Builtins.size(), 1u);
  EXPECT_EQ(C->BuiltinNames[0], "iadd");
  EXPECT_EQ(runInt(T), 21);
}

TEST_F(VmTest, LetShadowingResolvesToInnermostBinding) {
  const Term *T =
      A.makeLet("x", A.makeIntLit(1),
                A.makeLet("x", A.makeIntLit(2), A.makeVar("x")));
  EXPECT_EQ(runInt(T), 2);
}

TEST_F(VmTest, DuplicateParameterNamesLastWins) {
  // Matches the tree evaluator (pinned by
  // OptimizeTest.BetaInliningRespectsDuplicateParameters).
  const Type *I = Ctx.getIntType();
  const Term *T =
      A.makeApp(A.makeAbs({{"x", I}, {"x", I}}, A.makeVar("x")),
                {A.makeIntLit(1), A.makeIntLit(2)});
  EXPECT_EQ(runInt(T), 2);
}

TEST_F(VmTest, NestedClosuresThreadCapturesTransitively) {
  // fun(a). fun(b). fun(c). iadd(a, iadd(b, c)) — the innermost lambda
  // reaches `a` through the middle one, so the middle prototype gains
  // an interned capture of the outer parameter.
  const Type *I = Ctx.getIntType();
  const Term *Inner =
      A.makeAbs({{"c", I}},
                A.makeApp(A.makeVar("iadd"),
                          {A.makeVar("a"),
                           A.makeApp(A.makeVar("iadd"),
                                     {A.makeVar("b"), A.makeVar("c")})}));
  const Term *Curried =
      A.makeAbs({{"a", I}}, A.makeAbs({{"b", I}}, Inner));
  auto C = compileChunk(Curried);
  ASSERT_EQ(C->Protos.size(), 4u); // <main> + the three lambdas.
  // Innermost proto captures both a and b; the middle one must have
  // threaded `a` through itself as a capture of its own.
  EXPECT_EQ(C->Protos[3].Captures.size(), 2u);
  EXPECT_GE(C->Protos[2].Captures.size(), 1u);

  const Term *Call = A.makeApp(
      A.makeApp(A.makeApp(Curried, {A.makeIntLit(100)}),
                {A.makeIntLit(20)}),
      {A.makeIntLit(3)});
  EXPECT_EQ(runInt(Call), 123);
}

TEST_F(VmTest, UnboundVariableIsACompileTimeError) {
  std::string Error;
  std::shared_ptr<const vm::Chunk> C =
      vm::compile(A.makeVar("nope"), ThePrelude, &Error);
  EXPECT_EQ(C, nullptr);
  EXPECT_NE(Error.find("unbound variable `nope` at compile time"),
            std::string::npos)
      << Error;

  EvalResult R = vm::runTerm(A.makeVar("nope"), ThePrelude);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("compilation to bytecode failed"),
            std::string::npos)
      << R.Error;
}

TEST_F(VmTest, DisassemblerRendersProtosAndAnnotations) {
  const Type *I = Ctx.getIntType();
  const Term *T = A.makeLet(
      "inc",
      A.makeAbs({{"x", I}},
                A.makeApp(A.makeVar("iadd"),
                          {A.makeVar("x"), A.makeIntLit(1)})),
      A.makeIf(A.makeBoolLit(true),
               A.makeApp(A.makeVar("inc"), {A.makeIntLit(41)}),
               A.makeIntLit(0)));
  auto C = compileChunk(T);
  std::string D = vm::disassemble(*C);
  EXPECT_NE(D.find("protos"), std::string::npos) << D;
  EXPECT_NE(D.find("proto 0 <main>"), std::string::npos) << D;
  EXPECT_NE(D.find("fun(x)"), std::string::npos) << D;
  EXPECT_NE(D.find("make.closure"), std::string::npos) << D;
  EXPECT_NE(D.find("jump.if.false"), std::string::npos) << D;
  EXPECT_NE(D.find("; iadd"), std::string::npos) << D;
  EXPECT_NE(D.find("; 41"), std::string::npos) << D;
}

TEST_F(VmTest, CountersAdvanceDuringARun) {
  vm::VM M;
  EvalResult R = M.run(compileChunk(A.makeApp(
      A.makeVar("iadd"), {A.makeIntLit(1), A.makeIntLit(2)})));
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(M.getInstructionsExecuted(), 0u);
  EXPECT_GE(M.getFramesPushed(), 1u);
}

//===----------------------------------------------------------------------===//
// Register-file edge cases
//===----------------------------------------------------------------------===//

TEST_F(VmTest, DeeplyNestedLetTemporariesStayDisjoint) {
  // Lets nested inside initializers and inside call arguments: every
  // binding must get a register disjoint from every temporary live
  // around it, even as FreeTop rises and falls across the expression.
  const Term *Inner = A.makeLet(
      "c", A.makeIntLit(1),
      A.makeApp(A.makeVar("iadd"), {A.makeVar("c"), A.makeVar("c")}));
  const Term *Mid = A.makeLet(
      "b", Inner,
      A.makeApp(A.makeVar("iadd"), {A.makeVar("b"), A.makeVar("b")}));
  const Term *T = A.makeLet(
      "a", Mid,
      A.makeApp(A.makeVar("iadd"), {A.makeVar("a"), A.makeVar("a")}));
  EXPECT_EQ(runInt(T), 8);

  // A let inside one argument must not clobber a sibling argument's
  // window slot or an outer binding read after it.
  const Term *Arg1 = A.makeLet(
      "x", A.makeIntLit(3),
      A.makeApp(A.makeVar("iadd"),
                {A.makeVar("x"),
                 A.makeLet("y", A.makeIntLit(4),
                           A.makeApp(A.makeVar("iadd"),
                                     {A.makeVar("y"), A.makeVar("x")}))}));
  const Term *Arg2 = A.makeLet("z", A.makeIntLit(5), A.makeVar("z"));
  EXPECT_EQ(runInt(A.makeApp(A.makeVar("iadd"), {Arg1, Arg2})), 15);
}

TEST_F(VmTest, NestedCallArgumentsHandleTemporaryPressure) {
  // A balanced tree of calls whose arguments are themselves calls:
  // every interior call holds a live window while its argument windows
  // stack above it.
  auto Add = [&](const Term *L, const Term *R) {
    return A.makeApp(A.makeVar("iadd"), {L, R});
  };
  const Term *T =
      Add(Add(Add(A.makeIntLit(1), A.makeIntLit(2)),
              Add(A.makeIntLit(3), A.makeIntLit(4))),
          Add(Add(A.makeIntLit(5), A.makeIntLit(6)),
              Add(A.makeIntLit(7), A.makeIntLit(8))));
  EXPECT_EQ(runInt(T), 36);
  // The entry frame needs real temporary depth for this shape.
  auto C = compileChunk(T);
  EXPECT_GE(C->Protos[0].NumRegs, 9u);
}

//===----------------------------------------------------------------------===//
// Runtime semantics and errors
//===----------------------------------------------------------------------===//

TEST_F(VmTest, FixComputesFactorial) {
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I}, I);
  const Term *Fact = A.makeFix(A.makeAbs(
      {{"f", FnTy}},
      A.makeAbs(
          {{"n", I}},
          A.makeIf(
              A.makeApp(A.makeVar("ile"), {A.makeVar("n"), A.makeIntLit(0)}),
              A.makeIntLit(1),
              A.makeApp(A.makeVar("imult"),
                        {A.makeVar("n"),
                         A.makeApp(A.makeVar("f"),
                                   {A.makeApp(A.makeVar("isub"),
                                              {A.makeVar("n"),
                                               A.makeIntLit(1)})})})))));
  EXPECT_EQ(runInt(A.makeApp(Fact, {A.makeIntLit(10)})), 3628800);
}

TEST_F(VmTest, DeepRecursionGrowsTheFrameStackNotTheCxxStack) {
  // 60k-deep non-tail recursion: fine for the explicit frame stack,
  // would overflow the native stack if calls recursed in C++.
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I}, I);
  const Term *Sum = A.makeFix(A.makeAbs(
      {{"f", FnTy}},
      A.makeAbs(
          {{"n", I}},
          A.makeIf(
              A.makeApp(A.makeVar("ile"), {A.makeVar("n"), A.makeIntLit(0)}),
              A.makeIntLit(0),
              A.makeApp(A.makeVar("iadd"),
                        {A.makeVar("n"),
                         A.makeApp(A.makeVar("f"),
                                   {A.makeApp(A.makeVar("isub"),
                                              {A.makeVar("n"),
                                               A.makeIntLit(1)})})})))));
  EXPECT_EQ(runInt(A.makeApp(Sum, {A.makeIntLit(60'000)})),
            60'000ll * 60'001ll / 2);
}

TEST_F(VmTest, TypeApplicationIsErased) {
  unsigned T = Ctx.freshParamId();
  const Type *PT = Ctx.getParamType(T, "t");
  const Term *Id =
      A.makeTyAbs({{T, "t"}}, A.makeAbs({{"x", PT}}, A.makeVar("x")));
  const Term *Use = A.makeApp(A.makeTyApp(Id, {Ctx.getIntType()}),
                              {A.makeIntLit(5)});
  EXPECT_EQ(runInt(Use), 5);
}

TEST_F(VmTest, RuntimeErrorsMatchTheTreeEvaluator) {
  const Type *I = Ctx.getIntType();
  struct Case {
    const char *Label;
    const Term *T;
  };
  const std::vector<Case> Cases = {
      {"nth of non-tuple", A.makeNth(A.makeIntLit(0), 0)},
      {"tuple index out of range",
       A.makeNth(A.makeTuple({A.makeIntLit(1)}), 5)},
      {"if on non-boolean",
       A.makeIf(A.makeIntLit(1), A.makeIntLit(2), A.makeIntLit(3))},
      {"call of non-function", A.makeApp(A.makeIntLit(3), {A.makeIntLit(4)})},
      {"closure arity mismatch",
       A.makeApp(A.makeAbs({{"x", I}}, A.makeVar("x")),
                 {A.makeIntLit(1), A.makeIntLit(2)})},
      {"builtin arity mismatch",
       A.makeApp(A.makeVar("iadd"), {A.makeIntLit(1)})},
      {"division by zero",
       A.makeApp(A.makeVar("idiv"), {A.makeIntLit(1), A.makeIntLit(0)})},
      {"car of nil",
       A.makeApp(A.makeTyApp(A.makeVar("car"), {I}),
                 {A.makeTyApp(A.makeVar("nil"), {I})})},
  };
  for (const Case &C : Cases) {
    Evaluator Tree(Opts);
    EvalResult RT = Tree.eval(C.T, ThePrelude.Values);
    EvalResult RV = vm::runTerm(C.T, ThePrelude, Opts);
    ASSERT_FALSE(RT.ok()) << C.Label;
    ASSERT_FALSE(RV.ok()) << C.Label;
    EXPECT_EQ(RT.Error, RV.Error) << C.Label;
  }
}

TEST_F(VmTest, VmClosuresPrintOpaquelyAndAreForeignToOtherEngines) {
  const Type *I = Ctx.getIntType();
  EvalResult R = vm::runTerm(A.makeAbs({{"x", I}}, A.makeVar("x")),
                             ThePrelude, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(valueToString(R.Val), "<closure>");
  // Distinct function values never compare equal, as with the other
  // engines' closures.
  EvalResult R2 = vm::runTerm(A.makeAbs({{"x", I}}, A.makeVar("x")),
                              ThePrelude, Opts);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  EXPECT_FALSE(valueEquals(R.Val, R2.Val));
  // The tree evaluator rejects a VM closure rather than misapplying it.
  Evaluator Tree(Opts);
  EvalResult Foreign =
      Tree.apply(R.Val, {std::make_shared<IntValue>(1)});
  ASSERT_FALSE(Foreign.ok());
  EXPECT_NE(Foreign.Error.find("VM closure"), std::string::npos)
      << Foreign.Error;
}

//===----------------------------------------------------------------------===//
// Superinstructions and inline caches
//===----------------------------------------------------------------------===//

namespace {

/// A dictionary-heavy loop in the dictionary-passing translation's
/// image: D = ((iadd), base), and go(n) folds n..1 with the operation
/// projected out of the nested dictionary on every iteration —
/// go(n) = if ile(n,0) then nth(D,1) else nth(nth(D,0),0)(n, go(n-1)).
const Term *makeDictLoop(TermArena &A, TypeContext &Ctx, int64_t N,
                         int64_t Base) {
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I}, I);
  const Term *Body = A.makeIf(
      A.makeApp(A.makeVar("ile"), {A.makeVar("n"), A.makeIntLit(0)}),
      A.makeNth(A.makeVar("d"), 1),
      A.makeApp(A.makeNth(A.makeNth(A.makeVar("d"), 0), 0),
                {A.makeVar("n"),
                 A.makeApp(A.makeVar("go"),
                           {A.makeApp(A.makeVar("isub"),
                                      {A.makeVar("n"), A.makeIntLit(1)})})}));
  const Term *Loop = A.makeFix(
      A.makeAbs({{"go", FnTy}}, A.makeAbs({{"n", I}}, Body)));
  return A.makeLet(
      "d",
      A.makeTuple({A.makeTuple({A.makeVar("iadd")}), A.makeIntLit(Base)}),
      A.makeApp(Loop, {A.makeIntLit(N)}));
}

} // namespace

TEST_F(VmTest, DumpBytecodeGoldenShowsFusedSuperinstructions) {
  // One small fixture exercising all four fused pairs plus a ProjIC
  // site, pinned as an exact golden so emit regressions are diffable:
  //   let one = 1 in
  //   if ile(one, 2) then iadd(nth(tuple{one, 5}, 1), one) else 0
  const Term *T = A.makeLet(
      "one", A.makeIntLit(1),
      A.makeIf(
          A.makeApp(A.makeVar("ile"), {A.makeVar("one"), A.makeIntLit(2)}),
          A.makeApp(A.makeVar("iadd"),
                    {A.makeNth(A.makeTuple({A.makeVar("one"),
                                            A.makeIntLit(5)}),
                               1),
                     A.makeVar("one")}),
          A.makeIntLit(0)));
  auto C = compileChunk(T);
  EXPECT_EQ(C->FusedCount, 3u);
  EXPECT_EQ(vm::disassemble(*C),
            R"(; 1 protos, 13 instructions, 4 constants, 2 builtins, 1 ic-sites, 3 fused
proto 0 <main>  ; arity 0, regs 8, captures 0
     0  const           r1, k0  ; 1
     1  builtin         r2, b0  ; ile
     2  move            r3, r1
     3  const           r4, k1  ; 2
     4  call.jf         r2, n2, -> 11  ; fused call+jump.if.false
     5  builtin         r2, b1  ; iadd
     6  move            r6, r1
     7  const.tuple     r5, r6, n2, k2  ; fused const+make.tuple, 5
     8  proj.ic         r3, r5, site 0 [1]  ; inline cache
     9  move.call       r0, r1, w2, n2  ; fused move+call
    10  jump            -> 12
    11  const           r0, k3  ; 0
    12  return          r0
)");
}

TEST_F(VmTest, DumpBytecodeGoldenShowsAProjICSite) {
  // The unfused register form of a collapsed projection chain:
  // nth(nth(tuple{tuple{1, 2}, 3}, 0), 1) becomes ONE ProjIC whose
  // site records the static path [0.1].
  const Term *T = A.makeNth(
      A.makeNth(A.makeTuple({A.makeTuple({A.makeIntLit(1), A.makeIntLit(2)}),
                             A.makeIntLit(3)}),
                0),
      1);
  vm::EmitOptions NoFuse;
  NoFuse.Superinstructions = false;
  std::string Error;
  auto C = vm::compile(T, ThePrelude, &Error, NoFuse);
  ASSERT_NE(C, nullptr) << Error;
  EXPECT_EQ(C->FusedCount, 0u);
  ASSERT_EQ(C->ProjSites.size(), 1u);
  EXPECT_EQ(C->ProjSites[0].Path, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(vm::disassemble(*C),
            R"(; 1 protos, 7 instructions, 3 constants, 0 builtins, 1 ic-sites, 0 fused
proto 0 <main>  ; arity 0, regs 6, captures 0
     0  const           r4, k0  ; 1
     1  const           r5, k1  ; 2
     2  make.tuple      r2, r4, n2
     3  const           r3, k2  ; 3
     4  make.tuple      r1, r2, n2
     5  proj.ic         r0, r1, site 0 [0.1]  ; inline cache
     6  return          r0
)");
}

TEST_F(VmTest, InlineCacheHitsOnAStableDictionary) {
  // The dictionary tuple is built once and projected from on every
  // loop iteration: after the first miss per site, every projection is
  // a monomorphic hit — the acceptance bar is a >90% hit rate.
  auto C = compileChunk(makeDictLoop(A, Ctx, 100, 1));
  vm::VM M;
  EvalResult R = M.run(C);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(valueToString(R.Val), "5051");
  EXPECT_EQ(M.getIcMegamorphic(), 0u);
  ASSERT_GT(M.getIcHits() + M.getIcMisses(), 0u);
  double Rate = static_cast<double>(M.getIcHits()) /
                static_cast<double>(M.getIcHits() + M.getIcMisses());
  EXPECT_GT(Rate, 0.9) << M.getIcHits() << " hits / " << M.getIcMisses()
                       << " misses";
}

TEST_F(VmTest, InlineCacheGoesMegamorphicWhenDictionariesFlip) {
  // Two distinct model dictionaries of the same shape alternate
  // through one projection site (the loop swaps them every
  // iteration): the site must flip, give up monomorphic caching after
  // the megamorphic threshold, and never serve a stale witness.
  //   go(n, da, db) = if ile(n,0) then 0
  //                   else iadd(nth(da,0), go(n-1, db, da))
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I, I, I}, I);
  const Term *Body = A.makeIf(
      A.makeApp(A.makeVar("ile"), {A.makeVar("n"), A.makeIntLit(0)}),
      A.makeIntLit(0),
      A.makeApp(A.makeVar("iadd"),
                {A.makeNth(A.makeVar("da"), 0),
                 A.makeApp(A.makeVar("go"),
                           {A.makeApp(A.makeVar("isub"),
                                      {A.makeVar("n"), A.makeIntLit(1)}),
                            A.makeVar("db"), A.makeVar("da")})}));
  const Term *Loop = A.makeFix(A.makeAbs(
      {{"go", FnTy}},
      A.makeAbs({{"n", I}, {"da", I}, {"db", I}}, Body)));
  const Term *T = A.makeLet(
      "d1", A.makeTuple({A.makeIntLit(10)}),
      A.makeLet("d2", A.makeTuple({A.makeIntLit(20)}),
                A.makeApp(Loop, {A.makeIntLit(20), A.makeVar("d1"),
                                 A.makeVar("d2")})));
  auto C = compileChunk(T);
  vm::VM M;
  EvalResult R = M.run(C);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(valueToString(R.Val), "300"); // 10*10 + 20*10
  EXPECT_EQ(M.getIcHits(), 0u);
  EXPECT_EQ(M.getIcMisses(), 20u);
  EXPECT_EQ(M.getIcMegamorphic(), 1u);
}

TEST_F(VmTest, AbortParityGridFusedUnfusedAndTree) {
  // A steps x depth grid over the dictionary-heavy loop.  The hard
  // contract: the fused and unfused chunks are indistinguishable at
  // EVERY grid point — same outcome, same step totals, same frame
  // counts (a fused superinstruction charges exactly the pair it
  // replaced).  Against the tree walker the step metrics differ by
  // construction, so the cross-backend assertions are: equal values
  // when both finish, and any abort uses the shared diagnostics.
  const Term *Prog = makeDictLoop(A, Ctx, 12, 1);
  vm::EmitOptions NoFuse;
  NoFuse.Superinstructions = false;
  std::string E1, E2;
  auto CF = vm::compile(Prog, ThePrelude, &E1);
  auto CU = vm::compile(Prog, ThePrelude, &E2, NoFuse);
  ASSERT_NE(CF, nullptr) << E1;
  ASSERT_NE(CU, nullptr) << E2;
  EXPECT_GT(CF->FusedCount, 0u);
  EXPECT_EQ(CU->FusedCount, 0u);
  EXPECT_LT(CF->instructionCount(), CU->instructionCount());

  const char *StepMsg = "evaluation exceeded the step limit";
  const char *DepthMsg = "evaluation exceeded the recursion depth limit";
  for (uint64_t MaxSteps : {20ull, 60ull, 150ull, 400ull, 1000ull,
                            1000000ull})
    for (size_t MaxDepth : {3u, 5u, 9u, 17u, 64u, 4096u}) {
      EvalOptions O;
      O.MaxSteps = MaxSteps;
      O.MaxDepth = MaxDepth;
      SCOPED_TRACE("steps=" + std::to_string(MaxSteps) +
                   " depth=" + std::to_string(MaxDepth));
      vm::VM MF(O), MU(O);
      EvalResult RF = MF.run(CF);
      EvalResult RU = MU.run(CU);
      ASSERT_EQ(RF.ok(), RU.ok());
      if (RF.ok())
        EXPECT_TRUE(valueEquals(RF.Val, RU.Val));
      else
        EXPECT_EQ(RF.Error, RU.Error);
      EXPECT_EQ(MF.getInstructionsExecuted(), MU.getInstructionsExecuted());
      EXPECT_EQ(MF.getFramesPushed(), MU.getFramesPushed());

      Evaluator Tree(O);
      EvalResult RT = Tree.eval(Prog, ThePrelude.Values);
      if (RT.ok() && RF.ok()) {
        EXPECT_EQ(valueToString(RT.Val), valueToString(RF.Val));
      }
      if (!RT.ok()) {
        EXPECT_TRUE(RT.Error == StepMsg || RT.Error == DepthMsg)
            << RT.Error;
      }
      if (!RF.ok()) {
        EXPECT_TRUE(RF.Error == StepMsg || RF.Error == DepthMsg)
            << RF.Error;
      }
    }
}

//===----------------------------------------------------------------------===//
// Limit enforcement — identical on every backend
//===----------------------------------------------------------------------===//

TEST_F(VmTest, StepLimitAbortsIdenticallyOnEveryBackend) {
  EvalOptions O;
  // Small enough that the native-recursion backends stay well inside
  // the C++ stack even with sanitizer-sized frames (the depth limit is
  // out of the way, so every step until the abort recurses).
  O.MaxSteps = 1'000;
  O.MaxDepth = 1u << 30;
  expectUniformAbort(divergentLoop(), O,
                     "evaluation exceeded the step limit");
}

TEST_F(VmTest, DepthLimitAbortsIdenticallyOnEveryBackend) {
  EvalOptions O;
  O.MaxDepth = 100;
  expectUniformAbort(divergentLoop(), O,
                     "evaluation exceeded the recursion depth limit");
}

TEST_F(VmTest, FixMemoChargesStepsOnEveryReplay) {
  // The VM memoizes fix unrolling; the tree evaluator re-unrolls on
  // every recursive call.  A memo hit must charge the recorded unroll
  // cost, or a program too expensive for the step budget would finish
  // on the VM while aborting everywhere else.  The unroll is made
  // deliberately dear — `w` costs a 60-application chain each time the
  // fix is (re-)unrolled — and the recursion replays it 40 times.
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I}, I);
  const Term *Chain = A.makeIntLit(0);
  for (int K = 0; K != 60; ++K)
    Chain = A.makeApp(A.makeVar("iadd"), {A.makeIntLit(1), Chain});
  const Term *Body = A.makeIf(
      A.makeApp(A.makeVar("ieq"), {A.makeVar("n"), A.makeIntLit(0)}),
      A.makeVar("w"),
      A.makeApp(A.makeVar("iadd"),
                {A.makeVar("w"),
                 A.makeApp(A.makeVar("go"),
                           {A.makeApp(A.makeVar("isub"),
                                      {A.makeVar("n"), A.makeIntLit(1)})})}));
  const Term *Rec = A.makeFix(A.makeAbs(
      {{"go", FnTy}}, A.makeLet("w", Chain, A.makeAbs({{"n", I}}, Body))));
  EvalOptions O;
  O.MaxSteps = 2'000; // enough to prime the memo, not to finish
  O.MaxDepth = 1u << 30;
  expectUniformAbort(A.makeApp(Rec, {A.makeIntLit(40)}), O,
                     "evaluation exceeded the step limit");
}

TEST_F(VmTest, FixMemoRequiresDepthHeadroomOnReplay) {
  // Same idea for the depth budget: unrolling this fix transiently
  // pushes a dozen frames (`w` is a tower of non-tail applications),
  // and re-unrolling happens ever deeper in the recursion.  A memo hit
  // must verify that the recorded transient depth would still fit, or
  // the VM would sail past a limit the other backends honor.  At depth
  // 24 the recursion itself fits comfortably — only a replayed unroll
  // near the bottom does not — so an abort here proves the headroom
  // check fires.
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I}, I);
  const Term *Deep = A.makeIntLit(1);
  for (int K = 0; K != 12; ++K)
    Deep = A.makeApp(
        A.makeAbs({{"d", I}},
                  A.makeApp(A.makeVar("iadd"), {A.makeVar("d"), Deep})),
        {A.makeIntLit(1)});
  const Term *Body = A.makeIf(
      A.makeApp(A.makeVar("ieq"), {A.makeVar("n"), A.makeIntLit(0)}),
      A.makeVar("w"),
      A.makeApp(A.makeVar("iadd"),
                {A.makeVar("w"),
                 A.makeApp(A.makeVar("go"),
                           {A.makeApp(A.makeVar("isub"),
                                      {A.makeVar("n"), A.makeIntLit(1)})})}));
  const Term *Rec = A.makeFix(A.makeAbs(
      {{"go", FnTy}}, A.makeLet("w", Deep, A.makeAbs({{"n", I}}, Body))));
  EvalOptions O;
  O.MaxDepth = 24;
  expectUniformAbort(A.makeApp(Rec, {A.makeIntLit(10)}), O,
                     "evaluation exceeded the recursion depth limit");
}

TEST_F(VmTest, FixChainDoesNotOverflowTheNativeStack) {
  // fix (fix (fun(f). fun(n). n)) style chains unroll through nested
  // C++ dispatch; the depth limit must bound that recursion too.
  const Type *I = Ctx.getIntType();
  const Type *FnTy = Ctx.getArrowType({I}, I);
  // fix (fun(f). f) unrolls forever without ever pushing a program
  // frame: (fix g) -> g (fix g) -> fix g -> ...
  const Term *Pathological =
      A.makeApp(A.makeFix(A.makeAbs({{"f", FnTy}}, A.makeVar("f"))),
                {A.makeIntLit(0)});
  EvalOptions O;
  O.MaxDepth = 1'000;
  EvalResult R = vm::runTerm(Pathological, ThePrelude, O);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.Error.find("depth limit") != std::string::npos ||
              R.Error.find("step limit") != std::string::npos)
      << R.Error;
}

//===----------------------------------------------------------------------===//
// Observational equivalence on the shipped corpora
//===----------------------------------------------------------------------===//

namespace {

class VmCorpus : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(VmCorpus, AllBackendsAgree) {
  std::string Source = slurp(GetParam());
  ASSERT_FALSE(Source.empty()) << GetParam();
  fg::Frontend FE;
  fg::CompileOutput Out = FE.compile(GetParam(), Source);
  if (!Out.Success) // EXPECT-ERROR fixtures; ConformanceTest pins them.
    GTEST_SKIP() << "does not compile: " << Out.ErrorMessage;
  fgtest::runAllBackends(FE, Out, EvalOptions(), GetParam());
}

static std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files = fgFilesIn(FG_CONFORMANCE_DIR);
  std::vector<std::string> Examples = fgFilesIn(FG_EXAMPLES_DIR);
  Files.insert(Files.end(), Examples.begin(), Examples.end());
  return Files;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, VmCorpus, ::testing::ValuesIn(corpusFiles()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = std::filesystem::path(Info.param).stem().string();
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// End-to-end F_G programs through the differential harness
//===----------------------------------------------------------------------===//

TEST(VmDifferential, GenericAccumulateRunsOnAllBackends) {
  // Dictionary passing (the paper's translation) through the VM: the
  // monoid dictionary becomes a tuple the bytecode projects from.
  EXPECT_EQ(fgtest::runDifferential(R"(
    concept Monoid<t> { identity : t; binary_op : fn(t,t) -> t; } in
    model Monoid<int> { identity = 0; binary_op = iadd; } in
    let accumulate = (forall t where Monoid<t>. fun(a : t, b : t, c : t).
      Monoid<t>.binary_op(a,
        Monoid<t>.binary_op(b,
          Monoid<t>.binary_op(c, Monoid<t>.identity)))) in
    accumulate[int](1, 2, 39)
  )"),
            "42");
}

TEST(VmDifferential, RuntimeErrorProgramFailsIdentically) {
  fg::Frontend FE;
  fg::CompileOutput Out = FE.compile(
      "car_nil.fg", "car[int](nil[int])");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  std::vector<fgtest::BackendOutcome> R =
      fgtest::runAllBackends(FE, Out, EvalOptions(), "car_nil.fg");
  EXPECT_FALSE(R.front().Ok);
}
