//===- tests/AotTest.cpp - AOT backend tests ------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// Covers the aot/ subsystem on three levels:
//
//  * value transport — parseRenderedValue must round-trip every shape
//    sf::valueToString can print (the channel the differential harness
//    compares backends through);
//  * build-cache hygiene — the second compilation of a byte-identical
//    program is a hit, a fresh `--aot-cache=` dir starts cold, a
//    bumped emitter version changes the artifact key, and concurrent
//    compiles of one program into one dir all succeed;
//  * execution semantics the in-process engines cannot reach — 60k-deep
//    recursion on the child's big stack — plus abort-diagnostic parity
//    with the tree evaluator and graceful degradation without a host
//    compiler.
//
// Every test that needs the host toolchain skips (not fails) when none
// is available, mirroring Differential.h.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"
#include "aot/Aot.h"
#include "aot/CppEmitter.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include <cstdlib>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace fg;

namespace {

bool haveToolchain() {
  static bool Available = aot::toolchainAvailable();
  return Available;
}

#define SKIP_WITHOUT_TOOLCHAIN()                                             \
  do {                                                                       \
    if (!haveToolchain())                                                    \
      GTEST_SKIP() << "no host C++ compiler available";                      \
  } while (0)

/// A per-process temp cache dir, so repeated ctest runs start cold and
/// concurrent test binaries never collide.
std::string freshCacheDir(const std::string &Tag) {
  return ::testing::TempDir() + "fgc-aot-test-" + Tag + "-" +
         std::to_string(::getpid());
}

uint64_t counter(const char *Name) {
  return stats::Statistics::global().counter(Name).load();
}

/// Runs \p Out's translation on the AOT backend.
ExecResult runOnAot(Frontend &FE, CompileOutput &Out,
                    const sf::EvalOptions &Opts,
                    const aot::ToolchainOptions &Toolchain =
                        aot::ToolchainOptions(),
                    aot::RunInfo *Info = nullptr) {
  ExecRequest Req;
  Req.Engine = Backend::Aot;
  Req.Eval = Opts;
  Req.Toolchain = Toolchain;
  Req.AotInfo = Info;
  return execute(FE, Out, Req);
}

/// Compiles \p Source and runs it on the AOT backend.
ExecResult runAotSource(Frontend &FE, const std::string &Source,
                        const sf::EvalOptions &Opts,
                        const aot::ToolchainOptions &Toolchain,
                        aot::RunInfo *Info = nullptr) {
  CompileOutput Out = FE.compile("aot-test.fg", Source);
  EXPECT_TRUE(Out.Success) << Out.ErrorMessage;
  if (!Out.Success)
    return sf::EvalResult::failure(Out.ErrorMessage);
  return runOnAot(FE, Out, Opts, Toolchain, Info);
}

TEST(AotValueTest, RenderedValuesRoundTrip) {
  // Everything valueToString can print, including the function-value
  // placeholders the child renders for first-class functions.
  const char *Cases[] = {
      "0",    "42",        "-7",          "9223372036854775807",
      "-9223372036854775808", "true",    "false",
      "[]",   "[1, 2, 3]", "[[1], [], [2, 3]]",
      "(1, true)", "(1, (true, [3]))", "([], (0, false))",
      "<closure>", "<tyclosure>", "<fix>", "<builtin iadd>",
      "[<closure>, <builtin cons>]",
  };
  for (const char *Text : Cases) {
    sf::ValuePtr V = aot::parseRenderedValue(Text);
    ASSERT_NE(V, nullptr) << Text;
    EXPECT_EQ(sf::valueToString(V), Text);
  }
}

TEST(AotValueTest, MalformedRenderingsAreRejected) {
  const char *Cases[] = {"", "forty-two", "1 2", "(1,true)", "[1,2]",
                         "(1, )", "[1, ", "<gizmo>", "truely", "--1"};
  for (const char *Text : Cases)
    EXPECT_EQ(aot::parseRenderedValue(Text), nullptr) << Text;
}

TEST(AotCacheTest, SecondRunOfIdenticalProgramHits) {
  SKIP_WITHOUT_TOOLCHAIN();
  aot::ToolchainOptions TO;
  TO.CacheDir = freshCacheDir("hits");
  Frontend FE;
  uint64_t Hits0 = counter("aot.cache.hits");
  uint64_t Misses0 = counter("aot.cache.misses");

  aot::RunInfo First;
  sf::EvalResult R1 =
      runAotSource(FE, "imult(6, 7)", sf::EvalOptions(), TO, &First);
  ASSERT_TRUE(R1.ok()) << R1.Error;
  EXPECT_EQ(sf::valueToString(R1.Val), "42");
  EXPECT_FALSE(First.CacheHit);
  EXPECT_EQ(counter("aot.cache.misses"), Misses0 + 1);

  aot::RunInfo Second;
  sf::EvalResult R2 =
      runAotSource(FE, "imult(6, 7)", sf::EvalOptions(), TO, &Second);
  ASSERT_TRUE(R2.ok()) << R2.Error;
  EXPECT_EQ(sf::valueToString(R2.Val), "42");
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(counter("aot.cache.hits"), Hits0 + 1);
  EXPECT_EQ(First.ExePath, Second.ExePath);
}

TEST(AotCacheTest, FreshCacheDirStartsCold) {
  SKIP_WITHOUT_TOOLCHAIN();
  Frontend FE;
  aot::ToolchainOptions Warm;
  Warm.CacheDir = freshCacheDir("cold-a");
  aot::RunInfo First;
  ASSERT_TRUE(
      runAotSource(FE, "iadd(40, 2)", sf::EvalOptions(), Warm, &First).ok());

  // The same program pointed at a different --aot-cache= dir must
  // recompile: artifacts do not leak across caches.
  aot::ToolchainOptions Cold = Warm;
  Cold.CacheDir = freshCacheDir("cold-b");
  aot::RunInfo Second;
  ASSERT_TRUE(
      runAotSource(FE, "iadd(40, 2)", sf::EvalOptions(), Cold, &Second).ok());
  EXPECT_FALSE(Second.CacheHit);
  EXPECT_NE(First.ExePath, Second.ExePath);
}

TEST(AotCacheTest, EmitterVersionSaltsTheArtifactKey) {
  // A new emitter must never serve an old emitter's binaries: the
  // version participates in the content hash, so bumping it moves
  // every key.
  std::string Cpp = "int main() { return 0; }\n";
  std::string Now =
      aot::artifactKey(Cpp, "/usr/bin/c++", "-O2", aot::EmitterVersion);
  std::string Next =
      aot::artifactKey(Cpp, "/usr/bin/c++", "-O2", aot::EmitterVersion + 1);
  EXPECT_NE(Now, Next);
  // The other key inputs are load-bearing too.
  EXPECT_NE(Now, aot::artifactKey(Cpp + " ", "/usr/bin/c++", "-O2",
                                  aot::EmitterVersion));
  EXPECT_NE(Now, aot::artifactKey(Cpp, "/usr/bin/g++", "-O2",
                                  aot::EmitterVersion));
  EXPECT_NE(Now, aot::artifactKey(Cpp, "/usr/bin/c++", "-O3",
                                  aot::EmitterVersion));
  // The value itself is pinned: a changed hash function or seed would
  // make every user's AOT build cache miss.
  EXPECT_EQ(aot::artifactKey(Cpp, "/usr/bin/c++", "-O2", 2),
            "8df82381a2383992");
}

TEST(AotCacheTest, KeepCppLeavesTheGeneratedSource) {
  SKIP_WITHOUT_TOOLCHAIN();
  aot::ToolchainOptions TO;
  TO.CacheDir = freshCacheDir("keep");
  TO.KeepCpp = true;
  Frontend FE;
  aot::RunInfo Info;
  ASSERT_TRUE(
      runAotSource(FE, "iadd(1, 1)", sf::EvalOptions(), TO, &Info).ok());
  ASSERT_FALSE(Info.CppPath.empty());
  EXPECT_EQ(::access(Info.CppPath.c_str(), R_OK), 0) << Info.CppPath;
}

TEST(AotCacheTest, ConcurrentCompilesOfOneProgramAllSucceed) {
  SKIP_WITHOUT_TOOLCHAIN();
  // Threads of one process share a pid, so only names private to each
  // call keep one compile from reading another's half-written source or
  // publishing another's half-linked binary.
  Frontend FE;
  CompileOutput Out = FE.compile("aot-race.fg", "imult(6, 7)");
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  aot::EmittedProgram Program = aot::emitCpp(Out.SfTerm, FE.getPrelude());
  ASSERT_TRUE(Program.Error.empty()) << Program.Error;
  aot::ToolchainOptions TO;
  TO.CacheDir = freshCacheDir("threads");

  constexpr int N = 6;
  std::vector<std::string> Printed(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&, I] {
      aot::CompiledProgram C = aot::compileProgram(Program.Cpp, TO);
      if (!C.ok()) {
        Printed[I] = C.Error;
        return;
      }
      aot::RunOutput R = aot::runProgram(C.ExePath, sf::EvalOptions());
      Printed[I] = R.ok() ? R.Payload : R.Error;
    });
  for (std::thread &T : Threads)
    T.join();
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(Printed[I], "42") << "call " << I;
}

TEST(AotExecTest, SixtyThousandDeepRecursionWorks) {
  SKIP_WITHOUT_TOOLCHAIN();
  // The in-process engines recurse on the host stack and cannot go this
  // deep; the compiled program runs on a 512 MiB thread and must.
  Frontend FE;
  sf::EvalOptions Opts;
  Opts.MaxDepth = 1u << 30;
  sf::EvalResult R = runAotSource(
      FE,
      "let count = fix (fun(go : fn(int) -> int).\n"
      "  fun(n : int). if ieq(n, 0) then 0 else iadd(1, go(isub(n, 1)))) in\n"
      "count(60000)",
      Opts, aot::ToolchainOptions());
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(sf::valueToString(R.Val), "60000");
}

TEST(AotExecTest, StepLimitAbortMatchesTreeByteForByte) {
  SKIP_WITHOUT_TOOLCHAIN();
  const std::string Diverge =
      "let loop = fix (fun(f : fn(int) -> int). fun(n : int). f(n)) in\n"
      "loop(0)";
  sf::EvalOptions Opts;
  Opts.MaxSteps = 1'000;
  Opts.MaxDepth = 1u << 30;
  Frontend FE;
  CompileOutput Out = FE.compile("aot-test.fg", Diverge);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult Tree = FE.run(Out, Opts);
  sf::EvalResult Aot = runOnAot(FE, Out, Opts);
  ASSERT_FALSE(Tree.ok());
  ASSERT_FALSE(Aot.ok());
  EXPECT_EQ(Tree.Error, Aot.Error);
  EXPECT_NE(Aot.Error.find("step limit"), std::string::npos) << Aot.Error;
}

TEST(AotExecTest, DepthLimitAbortMatchesTreeByteForByte) {
  SKIP_WITHOUT_TOOLCHAIN();
  const std::string Diverge =
      "let loop = fix (fun(f : fn(int) -> int). fun(n : int). f(n)) in\n"
      "loop(0)";
  sf::EvalOptions Opts;
  Opts.MaxDepth = 100;
  Frontend FE;
  CompileOutput Out = FE.compile("aot-test.fg", Diverge);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult Tree = FE.run(Out, Opts);
  sf::EvalResult Aot = runOnAot(FE, Out, Opts);
  ASSERT_FALSE(Tree.ok());
  ASSERT_FALSE(Aot.ok());
  EXPECT_EQ(Tree.Error, Aot.Error);
  EXPECT_NE(Aot.Error.find("depth limit"), std::string::npos) << Aot.Error;
}

//===----------------------------------------------------------------------===//
// Abort-parity sweeps
//===----------------------------------------------------------------------===//
//
// The emitter coalesces step/depth charges per basic block, so most
// limit thresholds land *inside* a coalesced charge.  Two contracts
// guard this:
//
//  * tree <-> AOT is *exact*: at every (MaxSteps, MaxDepth) point the
//    compiled program aborts (or succeeds) exactly where the per-node
//    reference accounting does, with the identical diagnostic — the
//    staircase adjudication inside a coalesced segment must pick the
//    same limit the tree evaluator would have tripped first.
//  * across all backends, abort *diagnostics* are byte-identical: the
//    VM charges per executed operation of its own compiled form (its
//    thresholds differ by design), but a program that exhausts a limit
//    must report the same error string everywhere — Differential.h
//    asserts that at every point where all backends abort.

/// Runs tree and AOT at the given limits and EXPECTs identical
/// outcomes, success or abort.  Returns the tree outcome.
sf::EvalResult expectTreeAotParity(Frontend &FE, CompileOutput &Out,
                                   const sf::EvalOptions &Opts,
                                   const std::string &Context) {
  sf::EvalResult Tree = FE.run(Out, Opts);
  sf::EvalResult Aot = runOnAot(FE, Out, Opts);
  EXPECT_EQ(Tree.ok(), Aot.ok())
      << Context << ": tree " << (Tree.ok() ? "succeeded" : Tree.Error)
      << " but aot " << (Aot.ok() ? "succeeded" : Aot.Error);
  if (Tree.ok() && Aot.ok()) {
    EXPECT_EQ(sf::valueToString(Tree.Val), sf::valueToString(Aot.Val))
        << Context;
  } else if (!Tree.ok() && !Aot.ok()) {
    EXPECT_EQ(Tree.Error, Aot.Error) << Context;
  }
  return Tree;
}

TEST(AotAbortParityTest, FineStepDepthGridMatchesTreeExactly) {
  SKIP_WITHOUT_TOOLCHAIN();
  // Fix-free and value-heavy on purpose: nested tuple literals (rising
  // depth inside a single coalesced segment), a 12-element literal
  // tuple (a long segment for step thresholds to land inside), builtin
  // wraps, and two direct calls.
  const std::string Src =
      "let f = fun(x : int). iadd(nth (x, (1, (2, 3)), 4) 0,\n"
      "                           nth (5, x) 1) in\n"
      "nth (iadd(f(3), f(imult(2, 3))), 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11) 0";
  Frontend FE;
  CompileOutput Out = FE.compile("aot-parity.fg", Src);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  const uint64_t Huge = 1u << 30;
  // Step axis: every threshold until the program completes.
  uint64_t StepsNeeded = 0;
  for (uint64_t Steps = 1; Steps <= 400 && !StepsNeeded; ++Steps) {
    sf::EvalOptions Opts;
    Opts.MaxSteps = Steps;
    Opts.MaxDepth = Huge;
    if (expectTreeAotParity(FE, Out, Opts,
                            "steps=" + std::to_string(Steps))
            .ok())
      StepsNeeded = Steps;
  }
  ASSERT_NE(StepsNeeded, 0u) << "program never completed within the cap";

  // Depth axis.
  uint64_t DepthNeeded = 0;
  for (uint64_t Depth = 1; Depth <= 100 && !DepthNeeded; ++Depth) {
    sf::EvalOptions Opts;
    Opts.MaxSteps = Huge;
    Opts.MaxDepth = Depth;
    if (expectTreeAotParity(FE, Out, Opts,
                            "depth=" + std::to_string(Depth))
            .ok())
      DepthNeeded = Depth;
  }
  ASSERT_NE(DepthNeeded, 0u);

  // Both limits binding at once: for a band of depths, walk every step
  // threshold, so the step-vs-depth adjudication *inside* a segment is
  // exercised at each crossing order.
  for (uint64_t Depth : {uint64_t(1), uint64_t(2), uint64_t(3),
                         DepthNeeded / 2, DepthNeeded}) {
    if (Depth == 0)
      continue;
    for (uint64_t Steps = 1; Steps <= StepsNeeded; ++Steps) {
      sf::EvalOptions Opts;
      Opts.MaxSteps = Steps;
      Opts.MaxDepth = Depth;
      expectTreeAotParity(FE, Out, Opts,
                          "grid steps=" + std::to_string(Steps) +
                              " depth=" + std::to_string(Depth));
    }
  }
}

TEST(AotAbortParityTest, FixRecursionSweepsMatchTreeExactly) {
  SKIP_WITHOUT_TOOLCHAIN();
  // Recursion through fix: the AOT engine memoizes the unrolling and
  // replays its metered cost, so step-only and depth-only sweeps must
  // still abort exactly where the tree evaluator does, at every
  // threshold.
  const std::string Src =
      "let count = fix (fun(go : fn(int) -> int).\n"
      "  fun(n : int). if ieq(n, 0) then 0 else iadd(1, go(isub(n, 1)))) in\n"
      "count(12)";
  Frontend FE;
  CompileOutput Out = FE.compile("aot-parity-fix.fg", Src);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;

  const uint64_t Huge = 1u << 30;
  bool Completed = false;
  for (uint64_t Steps = 1; Steps <= 600 && !Completed; ++Steps) {
    sf::EvalOptions Opts;
    Opts.MaxSteps = Steps;
    Opts.MaxDepth = Huge;
    Completed = expectTreeAotParity(FE, Out, Opts,
                                    "fix steps=" + std::to_string(Steps))
                    .ok();
  }
  EXPECT_TRUE(Completed) << "program never completed within the cap";

  Completed = false;
  for (uint64_t Depth = 1; Depth <= 200 && !Completed; ++Depth) {
    sf::EvalOptions Opts;
    Opts.MaxSteps = Huge;
    Opts.MaxDepth = Depth;
    Completed = expectTreeAotParity(FE, Out, Opts,
                                    "fix depth=" + std::to_string(Depth))
                    .ok();
  }
  EXPECT_TRUE(Completed);
}

TEST(AotAbortParityTest, DivergingProgramAbortsIdenticallyOnAllBackends) {
  SKIP_WITHOUT_TOOLCHAIN();
  // A diverging loop exhausts whichever limit binds first on *every*
  // backend; the rendered diagnostics must be byte-identical across
  // all of them, at step-bound and depth-bound points alike (the VM
  // counts its own operations, so the points are chosen so each
  // backend is certain to abort).
  const std::string Src =
      "let loop = fix (fun(f : fn(int) -> int). fun(n : int). f(n)) in\n"
      "loop(0)";
  Frontend FE;
  CompileOutput Out = FE.compile("aot-diverge.fg", Src);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  for (uint64_t Steps : {uint64_t(7), uint64_t(100), uint64_t(1001)}) {
    sf::EvalOptions Opts;
    Opts.MaxSteps = Steps;
    Opts.MaxDepth = 1u << 30;
    std::vector<fgtest::BackendOutcome> R = fgtest::runAllBackends(
        FE, Out, Opts, "diverge steps=" + std::to_string(Steps));
    for (const fgtest::BackendOutcome &B : R)
      EXPECT_FALSE(B.Ok) << B.Name;
    EXPECT_NE(R.front().Rendered.find("step limit"), std::string::npos);
  }
  for (uint64_t Depth : {uint64_t(13), uint64_t(100), uint64_t(997)}) {
    sf::EvalOptions Opts;
    Opts.MaxSteps = uint64_t(1) << 40;
    Opts.MaxDepth = Depth;
    std::vector<fgtest::BackendOutcome> R = fgtest::runAllBackends(
        FE, Out, Opts, "diverge depth=" + std::to_string(Depth));
    for (const fgtest::BackendOutcome &B : R)
      EXPECT_FALSE(B.Ok) << B.Name;
    EXPECT_NE(R.front().Rendered.find("depth limit"), std::string::npos);
  }
}

TEST(AotExecTest, MissingCompilerFailsWithActionableError) {
  Frontend FE;
  aot::ToolchainOptions TO;
  TO.Cxx = "/nonexistent/cxx";
  ExecResult R = runAotSource(FE, "1", sf::EvalOptions(), TO);
  ASSERT_FALSE(R.ok());
  EXPECT_TRUE(R.Unavailable) << R.Error;
  EXPECT_NE(R.Error.find("/nonexistent/cxx"), std::string::npos) << R.Error;
}

TEST(AotExecTest, SpecializedTermRunsIdentically) {
  SKIP_WITHOUT_TOOLCHAIN();
  // The driver path: -O2-specialized term through the emitter.  The
  // accumulate example exercises concepts, models and generic calls.
  const std::string Source =
      "concept Monoid<t> { identity : t; op : fn(t,t) -> t; } in\n"
      "model Monoid<int> { identity = 0; op = iadd; } in\n"
      "let fold3 = (forall t where Monoid<t>.\n"
      "  fun(x : t, y : t, z : t). Monoid<t>.op(Monoid<t>.op(x, y), z)) in\n"
      "fold3[int](10, 20, 12)";
  Frontend FE;
  CompileOutput Out = FE.compile("aot-test.fg", Source);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult Tree = FE.run(Out);
  ASSERT_TRUE(Tree.ok()) << Tree.Error;

  ExecRequest Req;
  Req.Engine = Backend::Aot;
  Req.Level = sf::SpecializeLevel::Full;
  aot::RunInfo Info;
  Req.AotInfo = &Info;
  ExecResult Aot = execute(FE, Out, Req);
  ASSERT_TRUE(Aot.ok()) << Aot.Error;
  EXPECT_FALSE(Info.ExePath.empty());
  EXPECT_EQ(sf::valueToString(Tree.Val), sf::valueToString(Aot.Val));
}

} // namespace
