//===- tests/DriverCliTest.cpp - fgc command-line behavior ----------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// The driver's command-line contract, exercised against the real binary
// (its path arrives via the FG_FGC_PATH compile definition):
//
//   * `--help` / `-h` print the usage text to *stdout* and exit 0;
//   * a bad invocation (no input, unknown flag, malformed option)
//     prints the usage text to *stderr* and exits 2;
//   * both binaries' `--help` backend tables are generated from the
//     one registry (support/Backends.h), so registering an engine
//     without surfacing it in the help is a test failure;
//   * `--backend=aot` without a usable host compiler degrades
//     gracefully: exit 2 with a one-line actionable diagnostic;
//   * every backend runs the term the optimization level selects, as
//     the `--stats-json` counters of each (backend, -O) cell prove.
//
//===----------------------------------------------------------------------===//

#include "aot/Toolchain.h"
#include "support/Backends.h"
#include <cstdio>
#include <filesystem>
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

/// Runs `fgc <Args>` twice, capturing the two output streams separately.
RunResult runFgc(const std::string &Args) {
  RunResult R;
  std::string Base = std::string(FG_FGC_PATH) + " " + Args;
  R.ExitCode = capture(Base + " 2>/dev/null", R.Stdout);
  int Code2 = capture(Base + " 2>&1 1>/dev/null", R.Stderr);
  EXPECT_EQ(R.ExitCode, Code2) << "fgc " << Args
                               << ": exit code differs between runs";
  return R;
}

TEST(DriverCliTest, HelpGoesToStdoutAndExitsZero) {
  RunResult R = runFgc("--help");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("usage: fgc"), std::string::npos) << R.Stdout;
  EXPECT_NE(R.Stdout.find("--batch"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
}

TEST(DriverCliTest, ShortHelpMatchesLongHelp) {
  RunResult R = runFgc("-h");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Stdout.find("usage: fgc"), std::string::npos) << R.Stdout;
  EXPECT_TRUE(R.Stderr.empty()) << R.Stderr;
}

TEST(DriverCliTest, NoInputIsUsageErrorOnStderr) {
  RunResult R = runFgc("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << R.Stderr;
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
}

TEST(DriverCliTest, UnknownFlagIsUsageError) {
  RunResult R = runFgc("--definitely-not-a-flag");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << R.Stderr;
}

TEST(DriverCliTest, MultipleFilesWithoutBatchIsUsageError) {
  RunResult R = runFgc("a.fg b.fg");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << R.Stderr;
}

TEST(DriverCliTest, MalformedJobsFlagIsUsageError) {
  RunResult R = runFgc("--batch -j nope a.fg");
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(DriverCliTest, StdinProgramStillWorks) {
  std::string Out;
  int Code = capture("echo 'let x = 20 in iadd(x, 1)' | " +
                         std::string(FG_FGC_PATH) + " - 2>/dev/null",
                     Out);
  EXPECT_EQ(Code, 0);
  EXPECT_NE(Out.find("value: 21"), std::string::npos) << Out;
}

// Every registered backend (and its description) must appear in the
// generated `--help` table of *both* binaries.  This is the guard the
// registry comment promises: adding an engine without documenting it
// fails here.
TEST(DriverCliTest, FgcHelpListsEveryRegisteredBackend) {
  RunResult R = runFgc("--help");
  ASSERT_EQ(R.ExitCode, 0);
  for (const fg::BackendInfo &B : fg::backendRegistry()) {
    EXPECT_NE(R.Stdout.find(B.Name), std::string::npos)
        << "backend `" << B.Name << "` missing from fgc --help";
    EXPECT_NE(R.Stdout.find(B.Description), std::string::npos)
        << "description of `" << B.Name << "` missing from fgc --help";
  }
}

TEST(DriverCliTest, FgcdHelpListsEveryRegisteredBackend) {
  std::string Out;
  int Code = capture(std::string(FG_FGCD_PATH) + " --help 2>/dev/null", Out);
  ASSERT_EQ(Code, 0);
  for (const fg::BackendInfo &B : fg::backendRegistry()) {
    EXPECT_NE(Out.find(B.Name), std::string::npos)
        << "backend `" << B.Name << "` missing from fgcd --help";
    EXPECT_NE(Out.find(B.Description), std::string::npos)
        << "description of `" << B.Name << "` missing from fgcd --help";
  }
}

TEST(DriverCliTest, UnknownBackendNamesTheRegistry) {
  std::string Err;
  int Code = capture("echo 1 | " + std::string(FG_FGC_PATH) +
                         " --backend=bogus - 2>&1 1>/dev/null",
                     Err);
  EXPECT_EQ(Code, 2);
  EXPECT_NE(Err.find(fg::backendNameList()), std::string::npos) << Err;
}

// Graceful degradation: no usable host compiler is not a crash and not
// a silent fallback — it is exit 2 with a one-line diagnostic naming
// the way out.
TEST(DriverCliTest, AotWithoutHostCompilerIsActionableExit2) {
  std::string Err;
  int Code = capture("echo 1 | " + std::string(FG_FGC_PATH) +
                         " --backend=aot --aot-cxx=/nonexistent/cxx - "
                         "2>&1 1>/dev/null",
                     Err);
  EXPECT_EQ(Code, 2);
  EXPECT_NE(Err.find("--backend=aot is unavailable"), std::string::npos)
      << Err;
  EXPECT_NE(Err.find("/nonexistent/cxx"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// The backend x -O matrix: the counters prove which engine ran which term.
//===----------------------------------------------------------------------===//

/// The value of counter \p Name in a `--stats-json=-` report, or -1 when
/// the report does not list it.
long long statCounter(const std::string &Report, const std::string &Name) {
  std::string Key = "\"" + Name + "\": ";
  size_t At = Report.find(Key);
  return At == std::string::npos ? -1
                                 : std::stoll(Report.substr(At + Key.size()));
}

const std::string Figure5 =
    std::string(FG_EXAMPLES_DIR) + "/figure5_accumulate.fg";
const char *const OptLevels[] = {"", "-O1", "-O2"};

TEST(DriverCliTest, TreeAndVmRunTheTermTheLevelSelects) {
  long long VmInstructions[3] = {};
  for (fg::Backend B : {fg::Backend::Tree, fg::Backend::Vm})
    for (int L = 0; L != 3; ++L) {
      std::string Args = std::string(OptLevels[L]) + " --backend=" +
                         fg::backendName(B) + " --stats-json=- " + Figure5;
      RunResult R = runFgc(Args);
      ASSERT_EQ(R.ExitCode, 0) << Args << "\n" << R.Stderr;
      EXPECT_NE(R.Stdout.find("value: 3\n"), std::string::npos) << Args;
      // Only -O2 specializes; -O1 runs the baseline pipeline's term.
      EXPECT_EQ(R.Stdout.find("\"specialize.") == std::string::npos, L != 2)
          << Args;
      if (B == fg::Backend::Tree) {
        EXPECT_GT(statCounter(R.Stdout, "eval.steps"), 0) << Args;
        EXPECT_EQ(R.Stdout.find("\"vm."), std::string::npos)
            << Args << ": the tree walker ran, yet a vm counter moved";
      } else {
        VmInstructions[L] = statCounter(R.Stdout, "vm.instructions");
        EXPECT_GT(VmInstructions[L], 0) << Args;
      }
    }
  EXPECT_EQ(VmInstructions[0], 87) << "the translation as is";
  EXPECT_EQ(VmInstructions[2], 63) << "the -O2-specialized term";
  EXPECT_LT(VmInstructions[1], VmInstructions[0]) << "the -O1 term";
}

TEST(DriverCliTest, CheckOnlyOptimizesOnlyForTheBytecodeDump) {
  RunResult R = runFgc("--check -O2 --stats-json=- " + Figure5);
  ASSERT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_EQ(R.Stdout.find("\"optimize."), std::string::npos)
      << "nothing uses the optimized term: " << R.Stdout;
  EXPECT_EQ(R.Stdout.find("\"specialize."), std::string::npos) << R.Stdout;
  RunResult D = runFgc("--check -O2 --dump-bytecode --stats-json=- " + Figure5);
  ASSERT_EQ(D.ExitCode, 0) << D.Stderr;
  EXPECT_NE(D.Stdout.find("\"specialize."), std::string::npos)
      << "--dump-bytecode shows the -O2 term: " << D.Stdout;
}

TEST(DriverCliTest, AotRunsTheTermTheLevelSelects) {
  if (!fg::aot::toolchainAvailable())
    GTEST_SKIP() << "no host C++ compiler available";
  for (int L : {0, 2}) {
    std::string Args = std::string(OptLevels[L]) +
                       " --backend=aot --stats-json=- " + Figure5;
    RunResult R = runFgc(Args);
    ASSERT_EQ(R.ExitCode, 0) << Args << "\n" << R.Stderr;
    EXPECT_NE(R.Stdout.find("value: 3\n"), std::string::npos) << Args;
    EXPECT_EQ(statCounter(R.Stdout, "aot.runs"), 1) << Args;
    EXPECT_EQ(R.Stdout.find("\"specialize.") == std::string::npos, L == 0)
        << Args << ": only -O2 runs the specialized term";
  }
}

//===----------------------------------------------------------------------===//
// --gen-corpus and batch aggregation at scale.
//===----------------------------------------------------------------------===//

namespace fs = std::filesystem;

/// A scratch directory wiped on construction and destruction.
struct ScratchDir {
  fs::path P;
  explicit ScratchDir(const std::string &Name)
      : P(fs::temp_directory_path() / Name) {
    fs::remove_all(P);
    fs::create_directories(P);
  }
  ~ScratchDir() { fs::remove_all(P); }
  std::string str() const { return P.string(); }
};

TEST(DriverCliTest, GenCorpusIsByteIdenticalAcrossRuns) {
  ScratchDir A("fgc_cli_corpus_a"), B("fgc_cli_corpus_b");
  RunResult RA = runFgc("--gen-corpus 40 --seed 3 --out " + A.str());
  ASSERT_EQ(RA.ExitCode, 0) << RA.Stderr;
  EXPECT_NE(RA.Stdout.find("corpus: 40 modules"), std::string::npos)
      << RA.Stdout;
  RunResult RB = runFgc("--gen-corpus 40 --seed 3 --out " + B.str());
  ASSERT_EQ(RB.ExitCode, 0) << RB.Stderr;

  std::string DiffOut;
  int DiffCode =
      capture("diff -r " + A.str() + " " + B.str() + " 2>&1", DiffOut);
  EXPECT_EQ(DiffCode, 0) << "regeneration differs:\n" << DiffOut;
}

TEST(DriverCliTest, GenCorpusOutputBatchChecksWithQuietProgress) {
  ScratchDir Dir("fgc_cli_corpus_check"), Cache("fgc_cli_corpus_cache");
  ASSERT_EQ(runFgc("--gen-corpus 40 --seed 5 --out " + Dir.str()).ExitCode,
            0);
  RunResult R = runFgc("--batch -j 2 --module-cache=" + Cache.str() + " " +
                       Dir.str());
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("batch: 40 modules, 40 checked, 0 cached"),
            std::string::npos)
      << R.Stdout;
  // Above 32 modules the per-module progress flood is suppressed; the
  // summary line carries the signal.
  EXPECT_EQ(R.Stdout.find("module m0000"), std::string::npos) << R.Stdout;
}

TEST(DriverCliTest, GenCorpusUsageErrors) {
  // --out is mandatory; zero modules and mixing with input files are
  // contradictions.
  EXPECT_EQ(runFgc("--gen-corpus 5").ExitCode, 2);
  EXPECT_EQ(runFgc("--gen-corpus 0 --out /tmp/x").ExitCode, 2);
  EXPECT_EQ(runFgc("--gen-corpus 5 --out /tmp/x a.fg").ExitCode, 2);
  EXPECT_EQ(runFgc("--gen-corpus 5 --out /tmp/x --batch").ExitCode, 2);
  EXPECT_EQ(
      runFgc("--gen-corpus 5 --out /tmp/x --corpus-shape=mobius").ExitCode,
      2);
}

TEST(DriverCliTest, BatchFailureSummaryIsDeterministicAndExitsNonzero) {
  ScratchDir Dir("fgc_cli_batch_fail"), Cache("fgc_cli_batch_fail_cache");
  auto Put = [&](const char *Name, const char *Text) {
    std::ofstream(Dir.P / Name) << Text;
  };
  Put("good.fg", "module good;\nlet g = 1 in 0\n");
  Put("bad.fg", "module bad;\niadd(1, true)\n");
  Put("apex.fg", "module apex;\nimport good;\nimport bad;\ng\n");

  std::string Cmd = "--batch -j 2 --module-cache=" + Cache.str() + " " +
                    Dir.str();
  RunResult R1 = runFgc(Cmd);
  EXPECT_EQ(R1.ExitCode, 1);
  EXPECT_NE(R1.Stdout.find(
                "batch: 3 modules, 1 checked, 0 cached, 1 failed, 1 skipped"),
            std::string::npos)
      << R1.Stdout;
  EXPECT_NE(R1.Stderr.find("module bad: error:"), std::string::npos)
      << R1.Stderr;
  EXPECT_NE(R1.Stderr.find("module apex: skipped"), std::string::npos)
      << R1.Stderr;

  // The diagnostic digest is byte-stable run over run, independent of
  // worker scheduling.  (Fresh cache, so the summary is identical too —
  // runFgc's own double execution leaves good.fgi behind.)
  fs::remove_all(Cache.P);
  fs::create_directories(Cache.P);
  RunResult R2 = runFgc(Cmd);
  EXPECT_EQ(R2.ExitCode, 1);
  EXPECT_EQ(R1.Stderr, R2.Stderr);
  EXPECT_EQ(R1.Stdout, R2.Stdout);
}

// A literal outside the 64-bit range is a lexer diagnostic, not an
// uncaught exception that aborts the process; both ends of the range
// stay valid.  The module variant takes the header-scan path first.
TEST(DriverCliTest, OversizedIntegerLiteralIsADiagnostic) {
  ScratchDir Dir("fgc_cli_big_literal");
  std::ofstream(Dir.P / "big.fg") << "iadd(99999999999999999999, 1)\n";
  std::ofstream(Dir.P / "bigmod.fg") << "module bigmod;\n"
                                        "let x = -99999999999999999999 in x\n";
  std::ofstream(Dir.P / "edges.fg")
      << "iadd(-9223372036854775808, 9223372036854775807)\n";
  for (const char *File : {"big.fg", "bigmod.fg"}) {
    RunResult R = runFgc((Dir.P / File).string());
    EXPECT_EQ(R.ExitCode, 1) << File;
    EXPECT_NE(R.Stderr.find("error: integer literal out of range"),
              std::string::npos)
        << File << ": " << R.Stderr;
    EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
  }
  RunResult R = runFgc((Dir.P / "edges.fg").string());
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("value: -1"), std::string::npos) << R.Stdout;
}

} // namespace
