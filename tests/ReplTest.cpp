//===- tests/ReplTest.cpp - fgcd REPL and CLI behavior --------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// The interactive surface of `fgcd`, exercised against the real binary
// (its path arrives via the FG_FGCD_PATH compile definition):
//
//   * golden stdin/stdout transcripts through `fgcd --repl` — the
//     worked generic-programming session from docs/REPL.md must keep
//     producing exactly the documented output;
//   * the command-line contract shared with fgc (DriverCliTest):
//     `--help`/`-h` to stdout exit 0, usage errors to stderr exit 2;
//   * input nested past the default thread stack, answered by
//     `--stdio` and `--repl` with the session going on.
//
//===----------------------------------------------------------------------===//

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Stdout;
  std::string Stderr;
};

/// Runs \p Cmd through the shell, appending its output to \p Out.
int capture(const std::string &Cmd, std::string &Out) {
  FILE *P = popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs `fgcd <Args>` twice, capturing the two output streams.
RunResult runFgcd(const std::string &Args) {
  RunResult R;
  std::string Base = std::string(FG_FGCD_PATH) + " " + Args;
  R.ExitCode = capture(Base + " 2>/dev/null", R.Stdout);
  int Code2 = capture(Base + " 2>&1 1>/dev/null", R.Stderr);
  EXPECT_EQ(R.ExitCode, Code2) << "fgcd " << Args
                               << ": exit code differs between runs";
  return R;
}

/// Runs `fgcd <Mode>` on \p Input; the result has its stdout only.
RunResult feedFgcd(const std::string &Mode, const std::string &Input) {
  std::string Script = std::string("/tmp/fgcd_in_") +
                       std::to_string(::getpid()) + ".txt";
  std::ofstream(Script) << Input;
  RunResult R;
  R.ExitCode = capture(std::string(FG_FGCD_PATH) + " " + Mode + " < " +
                           Script + " 2>/dev/null",
                       R.Stdout);
  std::remove(Script.c_str());
  return R;
}

/// Feeds \p Input to `fgcd --repl` and returns everything it printed.
std::string repl(const std::string &Input) {
  return feedFgcd("--repl", Input).Stdout;
}

//===----------------------------------------------------------------------===//
// CLI conventions (same contract DriverCliTest pins for fgc)
//===----------------------------------------------------------------------===//

TEST(FgcdCliTest, HelpGoesToStdoutAndExitsZero) {
  RunResult R = runFgcd("--help");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("usage: fgcd"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("--socket"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("--repl"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
}

TEST(FgcdCliTest, ShortHelpMatchesLongHelp) {
  RunResult R = runFgcd("-h");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("usage: fgcd"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
}

TEST(FgcdCliTest, NoModeIsUsageErrorOnStderr) {
  RunResult R = runFgcd("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgcd"), std::string::npos) << R.Stderr;
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
}

TEST(FgcdCliTest, ConflictingModesAreAUsageError) {
  RunResult R = runFgcd("--stdio --repl");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgcd"), std::string::npos) << R.Stderr;
}

TEST(FgcdCliTest, UnknownFlagIsUsageError) {
  RunResult R = runFgcd("--definitely-not-a-flag");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgcd"), std::string::npos) << R.Stderr;
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
}

TEST(FgcdCliTest, BadThreadsValueIsUsageError) {
  RunResult R = runFgcd("--stdio --threads nope");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("--threads requires a number"),
            std::string::npos)
      << R.Stderr;
}

// 2^32 must not wrap to 0, which would mean all hardware threads.
TEST(FgcdCliTest, ThreadsThatDoNotFitAreAUsageError) {
  RunResult R = runFgcd("--stdio --threads 4294967296 < /dev/null");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("fgcd: error: --threads requires a number\n"
                          "usage: fgcd"),
            std::string::npos)
      << R.Stderr;
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
}

//===----------------------------------------------------------------------===//
// Deeply nested input: answered, and the session goes on
//===----------------------------------------------------------------------===//

/// 20,000 parentheses around `1`, about 40 KB: the parser recurses once
/// per level, past what an 8 MiB stack holds.
const std::string Deep =
    std::string(20000, '(') + "1" + std::string(20000, ')');

TEST(FgcdDeepTest, StdioAnswersADeepCheckAndTheNextRequest) {
  RunResult R = feedFgcd("--stdio",
                         "{\"id\":1,\"method\":\"check\",\"params\":"
                         "{\"source\":\"" + Deep + "\"}}\n"
                         "{\"id\":2,\"method\":\"version\"}\n");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("{\"id\":1,\"ok\":true,\"result\":"
                          "{\"success\":true,"),
            std::string::npos)
      << R.Stdout;
  EXPECT_NE(R.Stdout.find("{\"id\":2,\"ok\":true,"), std::string::npos)
      << R.Stdout;
}

TEST(FgcdDeepTest, ReplEvaluatesADeepInputAndTheNextLine) {
  RunResult R = feedFgcd("--repl", Deep + "\niadd(1, 1)\n:quit\n");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("fg> 1 : int\nfg> 2 : int\n"), std::string::npos)
      << R.Stdout;
}

//===----------------------------------------------------------------------===//
// Golden REPL transcripts
//===----------------------------------------------------------------------===//

TEST(ReplTest, ExpressionsPrintValueAndType) {
  std::string Out = repl("iadd(40, 2)\n:quit\n");
  EXPECT_NE(Out.find("42 : int"), std::string::npos) << Out;
}

TEST(ReplTest, DeclarationsAccumulate) {
  std::string Out = repl("let x = 21\n"
                         "let y = iadd(x, x)\n"
                         "y\n"
                         ":quit\n");
  EXPECT_NE(Out.find("defined let x : int"), std::string::npos) << Out;
  EXPECT_NE(Out.find("defined let y : int"), std::string::npos) << Out;
  EXPECT_NE(Out.find("42 : int"), std::string::npos) << Out;
}

// The worked generic-programming session documented in docs/REPL.md:
// concept, model, constrained generic function, then :type and
// :dump-bytecode on the constrained call.
TEST(ReplTest, GenericProgrammingTranscript) {
  std::string Out =
      repl("concept Doubler<t> { double : fn(t) -> t; }\n"
           "model Doubler<int> { double = fun(a : int). imult(a, 2); }\n"
           "let twice = forall t where Doubler<t>. fun(a : t). "
           "Doubler<t>.double(a)\n"
           "twice[int](21)\n"
           ":type twice[int](21)\n"
           ":dump-bytecode twice[int](21)\n"
           ":quit\n");
  EXPECT_NE(Out.find("defined concept Doubler"), std::string::npos) << Out;
  EXPECT_NE(Out.find("defined model Doubler"), std::string::npos) << Out;
  EXPECT_NE(Out.find("defined let twice"), std::string::npos) << Out;
  EXPECT_NE(Out.find("42 : int"), std::string::npos) << Out;
  // :type answers without evaluating.
  EXPECT_NE(Out.find("fg> int"), std::string::npos) << Out;
  // The disassembly shows the dictionary machinery: a type closure for
  // the forall and a projection out of the dictionary tuple.
  EXPECT_NE(Out.find("make.tyclosure"), std::string::npos) << Out;
  EXPECT_NE(Out.find("proj"), std::string::npos) << Out;
}

TEST(ReplTest, TypeErrorsAreReportedAndRecoverable) {
  std::string Out = repl("iadd(true, 1)\n"
                         "iadd(1, 1)\n"
                         ":quit\n");
  EXPECT_NE(Out.find("error"), std::string::npos) << Out;
  EXPECT_NE(Out.find("2 : int"), std::string::npos)
      << "the session must survive a type error: " << Out;
}

TEST(ReplTest, RuntimeErrorsArePrintedAfterTheType) {
  // The input compiles (so the type prints) but fails at run time; the
  // error must not be swallowed, and the session goes on.
  std::string Out = repl("car[int](nil[int])\n"
                         "iadd(1, 1)\n"
                         ":quit\n");
  EXPECT_NE(Out.find("fg> int\nerror: `car` of the empty list\n"),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("2 : int"), std::string::npos) << Out;
}

TEST(ReplTest, ResetDropsTheScope) {
  std::string Out = repl("let x = 1\n"
                         ":reset\n"
                         "x\n"
                         ":quit\n");
  EXPECT_NE(Out.find("scope reset"), std::string::npos) << Out;
  EXPECT_NE(Out.find("unbound variable `x`"), std::string::npos) << Out;
}

TEST(ReplTest, LoadSplicesModuleDeclarations) {
  // The shipped three-module example: loading it must both run it and
  // make its declarations (sum3 from intsum, accumulate from algebra)
  // available to later inputs.
  std::string Out = repl(":load " FG_EXAMPLES_DIR
                         "/modules/main.fg\n"
                         "sum3(10, 20, 12)\n"
                         ":quit\n");
  EXPECT_NE(Out.find("value (6, 15)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("42 : int"), std::string::npos) << Out;
}

TEST(ReplTest, LoadFglibAndUseItsConceptStack) {
  // Loading the library root splices all 21 fglib modules into the
  // session: the root smoke value prints, and the algebraic stack is
  // then live — mtimes/sg_square resolve through the ambient additive
  // Monoid<int>/Semigroup<int> models, and a freshly declared model
  // joins the imported Semigroup concept.
  std::string Out = repl(":load " FG_FGLIB_DIR "/fglib.fg\n"
                         "mtimes[int](3, 7)\n"
                         "sg_square[int](5)\n"
                         "model [by_mult] Semigroup<int> "
                         "{ sg_op = imult; }\n"
                         "use by_mult in sg_square[int](5)\n"
                         ":quit\n");
  EXPECT_NE(Out.find("value (31, 36, 7, 24, true)"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("21 : int"), std::string::npos) << Out;
  EXPECT_NE(Out.find("10 : int"), std::string::npos) << Out;
  EXPECT_NE(Out.find("defined model by_mult"), std::string::npos) << Out;
  EXPECT_NE(Out.find("25 : int"), std::string::npos) << Out;
}

TEST(ReplTest, UnknownCommandSuggestsHelp) {
  std::string Out = repl(":frobnicate\n:quit\n");
  EXPECT_NE(Out.find("unknown command :frobnicate"), std::string::npos)
      << Out;
}

TEST(ReplTest, HelpListsEveryCommand) {
  std::string Out = repl(":help\n:quit\n");
  for (const char *Cmd : {":type", ":dump-bytecode", ":load", ":decls",
                          ":reset", ":stats", ":quit"})
    EXPECT_NE(Out.find(Cmd), std::string::npos) << "missing " << Cmd;
}

} // namespace
