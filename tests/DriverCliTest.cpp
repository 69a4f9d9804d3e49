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
//   * a bad invocation (no input, unknown or retired flag, malformed
//     option, a number that does not fit) prints the usage text to
//     *stderr* and exits 2;
//   * both binaries' `--help` backend tables are generated from the
//     one registry (support/Backends.h), so registering an engine
//     without surfacing it in the help is a test failure;
//   * `--backend=aot` without a usable host compiler degrades
//     gracefully: exit 2 with a one-line actionable diagnostic;
//   * every backend runs the term the optimization level selects, as
//     the `--stats-json` counters of each (backend, -O) cell prove, and
//     the last -O on the command line is the level;
//   * batch workers check modules nested past the default thread stack;
//   * a program opens one way (fg::open): a missing file or a directory
//     is a `cannot read` error, an import skips a directory named like
//     its module, a parse error in a module prints once, and a module
//     header in source text is an error at the header.
//
//===----------------------------------------------------------------------===//

#include "aot/Toolchain.h"
#include "support/Backends.h"
#include <cstdio>
#include <cstring>
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

// Spellings fgc does not accept: the -O aliases and settings no caller
// used.
const char *const RetiredSpellings[] = {
    "--optimize",        "--specialize",      "--specialize=off",
    "--specialize=apps", "--specialize=dicts", "--specialize=full",
    "--no-verify",       "--validate",        "--no-cache",
    "--no-model-cache",  "--corpus-layers=3", "--corpus-max-imports=2",
    "--corpus-diamond=5",
};

TEST(DriverCliTest, RetiredSpellingsAreUsageErrors) {
  const std::string Program =
      std::string(FG_EXAMPLES_DIR) + "/figure1_square.fg";
  for (const char *Flag : RetiredSpellings) {
    RunResult R = runFgc(std::string(Flag) + " " + Program);
    EXPECT_EQ(R.ExitCode, 2) << Flag;
    EXPECT_NE(R.Stderr.find("usage: fgc"), std::string::npos) << Flag;
    EXPECT_TRUE(R.Stdout.empty()) << Flag << ": " << R.Stdout;
  }
}

TEST(DriverCliTest, HelpNamesNoRetiredSpelling) {
  RunResult R = runFgc("--help");
  ASSERT_EQ(R.ExitCode, 0);
  for (const char *Flag : RetiredSpellings) {
    // `--validate=<mode>` survives; the bare `--validate` does not.
    std::string Name(Flag, std::strcspn(Flag, "="));
    for (size_t At = R.Stdout.find(Name); At != std::string::npos;
         At = R.Stdout.find(Name, At + 1))
      EXPECT_TRUE(Name == "--validate" &&
                  R.Stdout.compare(At, 11, "--validate=") == 0)
          << "--help still names " << Name;
  }
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

TEST(DriverCliTest, LastOptimizationLevelWins) {
  auto Instructions = [](const std::string &Levels) {
    RunResult R = runFgc(Levels + " --backend=vm --stats-json=- " + Figure5);
    EXPECT_EQ(R.ExitCode, 0) << Levels << "\n" << R.Stderr;
    EXPECT_NE(R.Stdout.find("value: 3\n"), std::string::npos) << Levels;
    bool Specialized = R.Stdout.find("\"specialize.") != std::string::npos;
    return std::make_pair(statCounter(R.Stdout, "vm.instructions"),
                          Specialized);
  };
  auto O1 = Instructions("-O1"), O2 = Instructions("-O2");
  ASSERT_NE(O1.first, O2.first) << "the cells below could not tell apart";
  EXPECT_EQ(O2, std::make_pair(63LL, true));
  EXPECT_FALSE(O1.second);
  EXPECT_EQ(Instructions("-O2 -O1"), O1);
  EXPECT_EQ(Instructions("-O1 -O2"), O2);
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

// A number that does not fit its setting is the flag's usage error,
// never a truncated value (-j 4294967297 is not -j 1).  Nothing runs,
// so the module cache is never created.
TEST(DriverCliTest, NumbersThatDoNotFitAreUsageErrors) {
  ScratchDir Dir("fgc_cli_big_jobs");
  std::ofstream(Dir.P / "one.fg") << "module one;\n1\n";
  fs::path Cache = Dir.P / "cache";
  RunResult R = runFgc("--batch -j 4294967297 --module-cache=" +
                       Cache.string() + " " + Dir.str());
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Stderr.find("fgc: error: -j requires a number\nusage: fgc"),
            std::string::npos)
      << R.Stderr;
  EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
  EXPECT_FALSE(fs::exists(Cache));
  const std::string Overflowing[] = {
      "--fuzz 4294967297", "--gen-corpus=4294967297 --out " + Cache.string(),
      "--seed 18446744073709551616 --fuzz 1"};
  for (const std::string &Args : Overflowing)
    EXPECT_EQ(runFgc(Args).ExitCode, 2) << Args;
  EXPECT_FALSE(fs::exists(Cache));
}

/// \p Depth parentheses around `1`: the parser recurses once per level.
std::string nested(int Depth) {
  return std::string(Depth, '(') + "1" + std::string(Depth, ')');
}

// Every batch worker, not only the first, runs on a deep stack: with
// -j 2 the two modules are checked on two threads.
TEST(DriverCliTest, BatchWorkersCheckDeeplyNestedModules) {
  ScratchDir Dir("fgc_cli_batch_deep"), Cache("fgc_cli_batch_deep_cache");
  for (const char *Name : {"a", "b"})
    std::ofstream(Dir.P / (std::string(Name) + ".fg"))
        << "module " << Name << ";\nlet x = " << nested(20000) << " in x\n";
  RunResult R = runFgc("--batch -j 2 --module-cache=" + Cache.str() + " " +
                       Dir.str());
  EXPECT_EQ(R.ExitCode, 0) << R.Stderr;
  EXPECT_NE(R.Stdout.find("module a: checked\nmodule b: checked\n"
                          "batch: 2 modules, 2 checked, 0 cached\n"),
            std::string::npos)
      << R.Stdout;
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

// fgc reads every file through the module loader, so a path that is
// not a readable file fails before anything compiles, with the
// loader's message: a directory is not an empty program when it is
// named on the command line, and not a module when an import finds it.
TEST(DriverCliTest, UnreadablePathsAreLoaderErrors) {
  ScratchDir Dir("fgc_cli_unreadable");
  fs::create_directories(Dir.P / "dep.fg");
  std::ofstream(Dir.P / "main.fg") << "module main;\nimport dep;\n1\n";
  const std::string Missing = (Dir.P / "missing.fg").string();
  const std::pair<std::string, std::string> Cases[] = {
      {Dir.str(), "cannot read `" + Dir.str() + "`: is a directory"},
      {(Dir.P / "main.fg").string(),
       (Dir.P / "main.fg").string() +
           ": module `dep` not found (searched: " + Dir.str() + ")"},
      {Missing, "cannot read `" + Missing + "`"},
  };
  for (const auto &[Path, Message] : Cases) {
    RunResult R = runFgc(Path);
    EXPECT_EQ(R.ExitCode, 1) << Path;
    EXPECT_EQ(R.Stderr, "fgc: error: " + Message + "\n");
    EXPECT_TRUE(R.Stdout.empty()) << R.Stdout;
  }
}

// An import resolves to the first regular file `<m>.fg` along its
// search paths: a directory of that name next to the importer does not
// hide the module on a later -I path, when linking or in a batch.
TEST(DriverCliTest, DirectoryNamedLikeAModuleDoesNotHideIt) {
  ScratchDir Dir("fgc_cli_import_dir"), Cache("fgc_cli_import_dir_cache");
  fs::create_directories(Dir.P / "a" / "dep.fg");
  fs::create_directories(Dir.P / "lib");
  std::ofstream(Dir.P / "lib" / "dep.fg") << "module dep;\nlet d = 41 in 0\n";
  std::ofstream(Dir.P / "a" / "main.fg")
      << "module main;\nimport dep;\niadd(d, 1)\n";
  const std::string Args =
      "-I " + (Dir.P / "lib").string() + " " + (Dir.P / "a" / "main.fg").string();
  RunResult Link = runFgc(Args);
  EXPECT_EQ(Link.ExitCode, 0) << Link.Stderr;
  EXPECT_NE(Link.Stdout.find("value: 42"), std::string::npos) << Link.Stdout;
  RunResult Batch = runFgc("--batch --module-cache=" + Cache.str() + " " + Args);
  EXPECT_EQ(Batch.ExitCode, 0) << Batch.Stderr;
  EXPECT_NE(Batch.Stdout.find("batch: 2 modules, 2 checked, 0 cached"),
            std::string::npos)
      << Batch.Stdout;
}

// A parse error in a module is printed once, as the rendered
// diagnostic with its caret, exactly as for a file without a header.
TEST(DriverCliTest, ModuleParseErrorIsPrintedOnce) {
  ScratchDir Dir("fgc_cli_link_error");
  std::ofstream(Dir.P / "bad.fg") << "module bad;\nlet x = in 1\n";
  std::ofstream(Dir.P / "plain.fg") << "let x = in 1\n";
  const std::pair<const char *, const char *> Cases[] = {{"bad.fg", "2"},
                                                         {"plain.fg", "1"}};
  for (const auto &[File, Line] : Cases) {
    std::string Path = (Dir.P / File).string();
    RunResult R = runFgc(Path);
    EXPECT_EQ(R.ExitCode, 1) << File;
    EXPECT_EQ(R.Stderr, Path + ":" + Line +
                            ":9: error: expected an expression, found 'in'\n"
                            "  let x = in 1\n"
                            "          ^\n");
  }
}

// Source text on stdin cannot resolve imports, so a header there is an
// error that points at the header and names no flag of any one tool.
TEST(DriverCliTest, ModuleHeaderInSourceTextIsLocated) {
  const std::pair<const char *, const char *> Cases[] = {
      {"module x;\\n1\\n", "1:1"},
      {"import eq;\\n1\\n", "1:1"},
      {"// a comment\\n  module x;\\n1\\n", "2:3"},
  };
  for (const auto &[Text, Loc] : Cases) {
    std::string Err;
    int Code = capture("printf '" + std::string(Text) + "' | " +
                           std::string(FG_FGC_PATH) + " - 2>&1 1>/dev/null",
                       Err);
    EXPECT_EQ(Code, 1) << Text;
    EXPECT_EQ(Err, std::string("fgc: error: <stdin>:") + Loc +
                       ": source text cannot have a module header; compile "
                       "it from a file so its imports resolve\n");
  }
}

} // namespace
