//===- tests/FglibTest.cpp - The fglib concept library end to end ---------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// examples/fglib/ is the concept-based standard library written in real
// F_G: 21 interdependent modules over the eq/ord and
// semigroup/monoid/group hierarchies, iterators with associated types,
// fold/accumulate algorithms, sorting with an Ord certificate, a
// dedup-set container, and graph reachability.  The library root
// (fglib.fg) imports the whole diamond and runs one smoke computation
// through every layer; its value is pinned here.
//
// These tests are the library's conformance contract:
//
//   * whole-program link runs identically on every execution backend
//     (tree / vm, plus aot when a host toolchain exists);
//   * -O2 whole-program specialization preserves the value and keeps
//     the term well-typed after every pass;
//   * the batch checker compiles all 21 modules separately against
//     their .fgi interfaces, cold and then entirely from cache.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"
#include "modules/Batch.h"
#include "modules/Loader.h"
#include "syntax/Frontend.h"
#include "systemf/TypeCheck.h"
#include <filesystem>
#include <gtest/gtest.h>

using namespace fg;
using namespace fg::modules;
namespace fs = std::filesystem;

namespace {

/// The pinned result of fglib.fg's root smoke computation:
/// (sorted-sum, range-sum, set-size-ish, mconcat, reachability).
const char *const FglibValue = "(31, 36, 7, 24, true)";
const char *const FglibType = "(int * int * int * int * bool)";

std::string fglibRoot() {
  return (fs::path(FG_FGLIB_DIR) / "fglib.fg").string();
}

/// Opens the library root and compiles the linked program into \p FE.
CompileOutput compileFglib(Frontend &FE) {
  OpenRequest Req;
  Req.Path = fglibRoot();
  std::string Diagnostics;
  CompileOutput Out =
      fg::open(std::move(Req)).compile(FE, CompileOptions(), Diagnostics);
  EXPECT_TRUE(Out.Success) << "fglib failed to compile:\n" << Diagnostics;
  return Out;
}

TEST(FglibTest, GraphLoadsAllModules) {
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(fglibRoot(), Root, Error)) << Error;
  EXPECT_EQ(Root, "fglib");
  std::vector<const ModuleUnit *> Order =
      Loader.topoOrder({Loader.find(Root)});
  ASSERT_EQ(Order.size(), 21u);
  EXPECT_EQ(Order.back()->Name, "fglib");
}

TEST(FglibTest, LinksAndAgreesOnEveryBackend) {
  Frontend FE;
  CompileOutput Out = compileFglib(FE);
  ASSERT_TRUE(Out.Success);
  EXPECT_EQ(typeToString(Out.FgType), FglibType);

  std::vector<fgtest::BackendOutcome> Outcomes =
      fgtest::runAllBackends(FE, Out, sf::EvalOptions(), "fglib");
  ASSERT_FALSE(Outcomes.empty());
  ASSERT_TRUE(Outcomes.front().Ok) << Outcomes.front().Rendered;
  EXPECT_EQ(Outcomes.front().Rendered, FglibValue);
}

TEST(FglibTest, SpecializationPreservesValueAndTyping) {
  Frontend FE;
  CompileOutput Out = compileFglib(FE);
  ASSERT_TRUE(Out.Success);

  sf::OptimizeOptions SOpts;
  SOpts.Specialize = sf::SpecializeLevel::Full;
  SOpts.PassHook = [&](const char *PassName, const sf::Term *,
                       const sf::Term *After) {
    sf::TypeChecker Checker(FE.getSfContext());
    const sf::Type *Ty = Checker.check(After, FE.getPrelude().Types);
    EXPECT_TRUE(Ty && Ty == Out.SfType)
        << "pass `" << PassName
        << "` broke typing: " << Checker.firstError();
    return Ty && Ty == Out.SfType;
  };
  sf::OptimizeStats SStats;
  const sf::Term *Spec = FE.optimize(Out, &SStats, SOpts);
  ASSERT_NE(Spec, nullptr);
  ASSERT_EQ(SStats.AbortedOnPass, nullptr)
      << "validator rejected pass " << SStats.AbortedOnPass;

  std::vector<fgtest::BackendOutcome> Outcomes = fgtest::runAllBackends(
      FE, Out, sf::EvalOptions(), "fglib (specialized)",
      sf::SpecializeLevel::Full);
  ASSERT_TRUE(Outcomes.front().Ok) << Outcomes.front().Rendered;
  EXPECT_EQ(Outcomes.front().Rendered, FglibValue);
}

TEST(FglibTest, BatchChecksSeparatelyThenFromCache) {
  // Interfaces go to a private cache dir so the checked-in library
  // tree stays pristine.
  fs::path Cache = fs::temp_directory_path() / "fgc_fglib_cache";
  fs::remove_all(Cache);
  fs::create_directories(Cache);

  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(fglibRoot(), Root, Error)) << Error;

  BatchOptions BO;
  BO.Jobs = 2;
  BO.CacheDir = Cache.string();
  BatchResult Cold = runBatch(Loader, {Root}, BO);
  ASSERT_TRUE(Cold.Success);
  ASSERT_EQ(Cold.Results.size(), 21u);
  for (const ModuleBuildResult &R : Cold.Results) {
    EXPECT_TRUE(R.Success) << R.Module << ": " << R.Error;
    EXPECT_FALSE(R.CacheHit) << R.Module;
  }

  BatchResult Warm = runBatch(Loader, {Root}, BO);
  ASSERT_TRUE(Warm.Success);
  for (const ModuleBuildResult &R : Warm.Results)
    EXPECT_TRUE(R.CacheHit) << R.Module;
  fs::remove_all(Cache);
}

} // namespace
