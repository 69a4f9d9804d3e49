//===- tests/ValidateTest.cpp - Translation validation tests --------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// The validation layer makes the paper's Theorems 1 and 2 executable
// and extends them through the optimizer: every pass's output is
// re-typechecked, and a failure is attributed to the pass by name
// with the smallest ill-typed subterm pretty-printed.  These tests
// cover the accepting path over the whole shipped corpus, the
// rejecting path via a deliberately type-breaking injected pass, the
// ill-typed-subterm search itself, and the well-typed fuzzer.
//
//===----------------------------------------------------------------------===//

#include "syntax/Frontend.h"
#include "validate/Fuzz.h"
#include "validate/Validate.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace fg;
namespace validate = fg::validate;

namespace {

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<std::string> fgFilesIn(const std::string &Dir) {
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    if (Entry.path().extension() == ".fg")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  return Files;
}

} // namespace

TEST(ValidateTest, ModeParsingRoundTrips) {
  for (validate::Mode M : {validate::Mode::Off, validate::Mode::Translate,
                           validate::Mode::Passes}) {
    validate::Mode Parsed;
    ASSERT_TRUE(validate::parseMode(validate::modeName(M), Parsed));
    EXPECT_EQ(Parsed, M);
  }
  validate::Mode M;
  EXPECT_FALSE(validate::parseMode("everything", M));
  EXPECT_FALSE(validate::parseMode("", M));
}

TEST(ValidateTest, AcceptsAWellBehavedProgram) {
  Frontend FE;
  CompileOutput Out = FE.compile("ok.fg", R"(
concept Monoid<t> { op : fn(t,t) -> t; unit : t; } in
model Monoid<int> { op = iadd; unit = 0; } in
(forall t where Monoid<t>. fun(x : t). Monoid<t>.op(x, Monoid<t>.unit))
  [int](4))");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  validate::Validator V(FE.getSfContext(), FE.getPrelude().Types);
  sf::OptimizeOptions Opts;
  Opts.PassHook = V.passHook(Out.SfType);
  sf::OptimizeStats Stats;
  ASSERT_NE(FE.optimize(Out, &Stats, Opts), nullptr);
  EXPECT_FALSE(V.failed()) << V.error();
  EXPECT_EQ(Stats.AbortedOnPass, nullptr);
}

TEST(ValidateTest, TypeBreakingPassIsCaughtAndNamed) {
  Frontend FE;
  CompileOutput Out = FE.compile("broken.fg", "iadd(1, 2)");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  validate::Validator V(FE.getSfContext(), FE.getPrelude().Types);
  sf::OptimizeOptions Opts;
  // An `if` whose condition is an int literal is ill typed; wrapping
  // the program in one breaks it while keeping the term printable.
  Opts.TestPass = [](sf::TermArena &Arena, const sf::Term *T) {
    return Arena.makeIf(Arena.makeIntLit(0), T, T);
  };
  Opts.TestPassName = "test-broken";
  Opts.PassHook = V.passHook(Out.SfType);
  sf::OptimizeStats Stats;
  const sf::Term *Result = FE.optimize(Out, &Stats, Opts);

  ASSERT_TRUE(V.failed());
  EXPECT_EQ(V.failedPass(), "test-broken");
  EXPECT_STREQ(Stats.AbortedOnPass, "test-broken");
  EXPECT_NE(V.error().find("test-broken"), std::string::npos) << V.error();
  EXPECT_NE(V.error().find("smallest ill-typed subterm"), std::string::npos)
      << V.error();
  // The optimizer returned the last validated term, not the broken one.
  sf::TypeChecker Checker(FE.getSfContext());
  EXPECT_EQ(Checker.check(Result, FE.getPrelude().Types), Out.SfType);
}

TEST(ValidateTest, TypeChangingPassIsCaughtAndNamed) {
  Frontend FE;
  CompileOutput Out = FE.compile("retype.fg", "(1, true)");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  validate::Validator V(FE.getSfContext(), FE.getPrelude().Types);
  sf::OptimizeOptions Opts;
  // Well typed, but the wrong type: the validator must still object.
  Opts.TestPass = [](sf::TermArena &Arena, const sf::Term *) {
    return Arena.makeIntLit(7);
  };
  Opts.TestPassName = "test-retype";
  Opts.PassHook = V.passHook(Out.SfType);
  sf::OptimizeStats Stats;
  FE.optimize(Out, &Stats, Opts);

  ASSERT_TRUE(V.failed());
  EXPECT_EQ(V.failedPass(), "test-retype");
  EXPECT_NE(V.error().find("changed the program's type"), std::string::npos)
      << V.error();
}

TEST(ValidateTest, FindsTheSmallestIllTypedSubterm) {
  Frontend FE;
  sf::TermArena &A = FE.getSfArena();
  sf::TypeContext &Ctx = FE.getSfContext();
  validate::Validator V(Ctx, FE.getPrelude().Types);

  const sf::Type *Int = Ctx.getIntType();

  // fun(x : int). iadd(x, true) — the application is the smallest
  // broken node; the literal `true` itself is fine.
  const sf::Term *BadApp = A.makeApp(
      A.makeVar("iadd"), {A.makeVar("x"), A.makeBoolLit(true)});
  const sf::Term *Fn = A.makeAbs({{"x", Int}}, BadApp);
  EXPECT_EQ(V.findSmallestIllTyped(Fn), BadApp);

  // Under a type abstraction: bnot applied to a value of parameter
  // type.  The search must keep the parameter in scope while it
  // descends, and still pin the application.
  unsigned Id = Ctx.freshParamId();
  const sf::Type *TParam = Ctx.getParamType(Id, "t");
  const sf::Term *BadPoly =
      A.makeApp(A.makeVar("bnot"), {A.makeVar("y")});
  const sf::Term *Poly = A.makeTyAbs(
      {{Id, "t"}}, A.makeAbs({{"y", TParam}}, BadPoly));
  EXPECT_EQ(V.findSmallestIllTyped(Poly), BadPoly);

  // A well-typed term has no culprit.
  EXPECT_EQ(V.findSmallestIllTyped(A.makeIntLit(3)), nullptr);
}

TEST(ValidateTest, WholeCorpusValidatesThroughEveryPass) {
  std::vector<std::string> Files = fgFilesIn(FG_EXAMPLES_DIR);
  for (const std::string &F : fgFilesIn(FG_CONFORMANCE_DIR))
    Files.push_back(F);
  unsigned Checked = 0;
  for (const std::string &Path : Files) {
    std::string Source = slurp(Path);
    if (Source.find("EXPECT-ERROR") != std::string::npos)
      continue; // negative fixture: nothing to validate
    Frontend FE;
    CompileOutput Out = FE.compile(Path, Source);
    ASSERT_TRUE(Out.Success) << Path << ": " << Out.ErrorMessage;
    validate::Validator V(FE.getSfContext(), FE.getPrelude().Types);
    sf::OptimizeOptions Opts;
    Opts.PassHook = V.passHook(Out.SfType);
    sf::OptimizeStats Stats;
    FE.optimize(Out, &Stats, Opts);
    EXPECT_FALSE(V.failed()) << Path << ": " << V.error();
    ++Checked;
  }
  EXPECT_GT(Checked, 30u);
}

TEST(ValidateTest, GeneratorIsDeterministicPerSeedAndIndex) {
  EXPECT_EQ(validate::generateProgram(42, 7),
            validate::generateProgram(42, 7));
  EXPECT_NE(validate::generateProgram(42, 7),
            validate::generateProgram(42, 8));
  EXPECT_NE(validate::generateProgram(42, 7),
            validate::generateProgram(43, 7));
}

TEST(ValidateTest, FuzzRunIsCleanAcrossBackends) {
  validate::FuzzOptions Opts;
  Opts.Count = 30;
  Opts.Seed = 20260805;
  validate::FuzzResult R = validate::runFuzz(Opts);
  EXPECT_EQ(R.Generated, 30u);
  ASSERT_TRUE(R.ok()) << "first failure (index "
                      << (R.Failures.empty() ? 0u : R.Failures[0].Index)
                      << "): "
                      << (R.Failures.empty() ? "" : R.Failures[0].Message)
                      << "\nprogram:\n"
                      << (R.Failures.empty() ? "" : R.Failures[0].Source);
}
