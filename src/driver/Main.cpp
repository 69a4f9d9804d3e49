//===- driver/Main.cpp - The fgc command-line tool ------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fgc command-line tool: compiles and runs one F_G program (a file,
/// or `-` for stdin), batch-checks a module graph (`--batch`), fuzzes
/// the validators (`--fuzz`) or generates a module corpus
/// (`--gen-corpus`); `fgc --help` lists the options.  A single file that
/// declares `module`/`import` is compiled through the module loader: its
/// imports are resolved and linked into one program, which then runs
/// through the usual pipeline.
///
//===----------------------------------------------------------------------===//

#include "driver/CommandLine.h"
#include "corpus/Corpus.h"
#include "modules/Batch.h"
#include "modules/Loader.h"
#include "support/Backends.h"
#include "support/DeepStack.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "validate/Fuzz.h"
#include "validate/Validate.h"
#include "vm/Disasm.h"
#include "vm/Emit.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

using namespace fg;

namespace {

void printUsage(std::ostream &OS) {
  OS << "usage: fgc [options] <file.fg | ->\n"
        "       fgc --batch [options] <files-or-directories...>\n"
        "\n"
        "options:\n"
        "  --check                stop after typechecking\n"
        "  --translate            print the System F translation\n"
        "  --ast                  print the parsed program\n"
        "  --validate=<mode>      `off`, `translate` (re-check the\n"
        "                         translation; Theorems 1/2), or `passes`\n"
        "                         (also re-typecheck each optimizer pass);\n"
        "                         default is `translate` in debug builds,\n"
        "                         `off` in release builds\n"
        "  --fuzz <n>             validate <n> generated well-typed\n"
        "                         programs across all backends\n"
        "  --seed <n>             base seed for --fuzz / --gen-corpus\n"
        "                         (default 42)\n"
        "  --direct               cross-check with the direct interpreter\n"
        "  -O1                    run the optimized translation and\n"
        "                         cross-check it against the unoptimized\n"
        "                         one on the tree walker\n"
        "  -O2                    -O1 plus whole-program specialization:\n"
        "                         polymorphic functions cloned at concrete\n"
        "                         types, concept members devirtualized,\n"
        "                         dead dictionary params/fields dropped;\n"
        "                         the last -O on the line wins\n"
        "  --backend=<name>       execution engine; it runs the term the\n"
        "                         optimization level selects; one of:\n"
     << backendHelpTable("                           ")
     << "  --aot-cxx=<path>       host C++ compiler for --backend=aot\n"
        "  --aot-cache=<dir>      AOT build cache directory (default\n"
        "                         ./.fgc.aot-cache or $FGC_AOT_CACHE)\n"
        "  --aot-keep-cpp         keep the generated C++ in the cache dir\n"
        "  --dump-bytecode        print the VM bytecode of the term the\n"
        "                         optimization level selects\n"
        "  --no-superinstructions disable VM peephole fusion (for A/B;\n"
        "                         the result must be identical)\n"
        "  --batch                separately check modules (.fgi output)\n"
        "  --gen-corpus <n>       write a deterministic corpus of <n>\n"
        "                         well-typed modules into --out\n"
        "  --out <dir>            output directory for --gen-corpus\n"
        "  --corpus-shape=<s>     corpus graph shape: layered (default),\n"
        "                         chain, or fanin\n"
        "  -j <n>                 batch worker threads (0 = all cores)\n"
        "  -I <dir>               add a module search path\n"
        "  --module-cache=<dir>   directory for .fgi interface files\n"
        "  --stats                print statistics to stderr on exit\n"
        "  --stats-json=<file>    write statistics as JSON (- for stdout)\n"
        "  --help, -h             print this help\n";
}

/// Prints \p Message, if any, and the usage text to stderr; returns the
/// exit code of a bad invocation.
int usageError(const std::string &Message = "") {
  if (!Message.empty())
    std::cerr << "fgc: error: " << Message << "\n";
  printUsage(std::cerr);
  return 2;
}

/// Expands batch path arguments: a directory stands for every `.fg`
/// file directly inside it, sorted by name.
bool expandBatchPaths(const std::vector<std::string> &Args,
                      std::vector<std::string> &Files) {
  namespace fs = std::filesystem;
  for (const std::string &Arg : Args) {
    std::error_code EC;
    if (fs::is_directory(Arg, EC)) {
      std::vector<std::string> Found;
      for (const auto &Entry : fs::directory_iterator(Arg, EC))
        if (Entry.path().extension() == ".fg")
          Found.push_back(Entry.path().string());
      std::sort(Found.begin(), Found.end());
      if (Found.empty()) {
        std::cerr << "fgc: error: no .fg files in `" << Arg << "`\n";
        return false;
      }
      Files.insert(Files.end(), Found.begin(), Found.end());
    } else {
      Files.push_back(Arg);
    }
  }
  return true;
}

int runBatchMode(const std::vector<std::string> &PathArgs,
                 const std::vector<std::string> &SearchPaths, unsigned Jobs,
                 const std::string &CacheDir, const CompileOptions &Opts) {
  std::vector<std::string> Files;
  if (!expandBatchPaths(PathArgs, Files))
    return 1;

  if (!CacheDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(CacheDir, EC);
    if (EC) {
      std::cerr << "fgc: error: cannot create module cache directory `"
                << CacheDir << "`: " << EC.message() << "\n";
      return 1;
    }
  }

  modules::ModuleLoader::Options LO;
  LO.SearchPaths = SearchPaths;
  modules::ModuleLoader Loader(LO);
  std::vector<std::string> Roots;
  for (const std::string &File : Files) {
    std::string Root, Error;
    if (!Loader.loadFile(File, Root, Error)) {
      std::cerr << "fgc: error: " << Error << "\n";
      return 1;
    }
    Roots.push_back(Root);
  }

  modules::BatchOptions BO;
  BO.Jobs = Jobs;
  BO.CacheDir = CacheDir;
  BO.Verify = Opts.VerifyTranslation;
  modules::BatchResult BR = modules::runBatch(Loader, Roots, BO);

  // Aggregate deterministically: runBatch already returns results in
  // dependency order (independent of worker scheduling), and failures
  // are re-sorted by module name so the diagnostic summary is stable
  // run over run and readable at corpus scale.
  unsigned Checked = 0, Cached = 0;
  std::vector<const modules::ModuleBuildResult *> Failed, Skipped;
  for (const modules::ModuleBuildResult &R : BR.Results) {
    if (R.Success)
      ++(R.CacheHit ? Cached : Checked);
    else if (R.Skipped)
      Skipped.push_back(&R);
    else
      Failed.push_back(&R);
  }

  // Per-module progress lines are useful at example scale and an
  // unreadable flood over a generated corpus; the summary line and the
  // sorted failure digest carry the signal either way.
  if (BR.Results.size() <= 32)
    for (const modules::ModuleBuildResult &R : BR.Results)
      if (R.Success)
        std::cout << "module " << R.Module << ": "
                  << (R.CacheHit ? "cached" : "checked") << "\n";

  auto ByName = [](const modules::ModuleBuildResult *A,
                   const modules::ModuleBuildResult *B) {
    return A->Module < B->Module;
  };
  std::sort(Failed.begin(), Failed.end(), ByName);
  std::sort(Skipped.begin(), Skipped.end(), ByName);
  const size_t MaxShown = 20;
  for (size_t I = 0; I < Failed.size() && I < MaxShown; ++I)
    std::cerr << "module " << Failed[I]->Module << ": error: "
              << Failed[I]->Error << "\n";
  if (Failed.size() > MaxShown)
    std::cerr << "... and " << Failed.size() - MaxShown
              << " more failed modules\n";
  for (size_t I = 0; I < Skipped.size() && I < MaxShown; ++I)
    std::cerr << "module " << Skipped[I]->Module << ": skipped ("
              << Skipped[I]->Error << ")\n";
  if (Skipped.size() > MaxShown)
    std::cerr << "... and " << Skipped.size() - MaxShown
              << " more skipped modules\n";

  std::cout << "batch: " << BR.Results.size() << " modules, " << Checked
            << " checked, " << Cached << " cached";
  if (!Failed.empty() || !Skipped.empty())
    std::cout << ", " << Failed.size() << " failed, " << Skipped.size()
              << " skipped";
  std::cout << "\n";
  return BR.Success ? 0 : 1;
}

int runGenCorpus(const corpus::CorpusOptions &Opts,
                 const std::string &OutDir) {
  std::vector<corpus::GeneratedModule> Mods = corpus::generate(Opts);
  std::string Error;
  if (!corpus::writeCorpus(Mods, OutDir, Error)) {
    std::cerr << "fgc: error: " << Error << "\n";
    return 1;
  }
  std::cout << "corpus: " << Mods.size() << " modules -> " << OutDir
            << " (seed " << Opts.Seed << ", shape "
            << corpus::shapeName(Opts.GraphShape) << ", root "
            << Mods.back().Name << ")\n";
  return 0;
}

int fgcMain(int Argc, char **Argv) {
  bool CheckOnly = false, PrintTranslation = false, PrintAst = false;
  bool Direct = false, Batch = false, DumpBytecode = false;
  // Unset is -O0; -O1 is `Off`, -O2 is `Full` (ExecRequest::Level).
  std::optional<sf::SpecializeLevel> Level;
  Backend Engine = Backend::Tree;
  aot::ToolchainOptions AotToolchain;
  unsigned Jobs = 1;
  unsigned FuzzCount = 0;
  uint64_t FuzzSeed = 42;
  // Default verification level: re-check the translation in debug
  // builds, nothing in release builds (BenchValidate measures why).
#ifndef NDEBUG
  validate::Mode VMode = validate::Mode::Translate;
#else
  validate::Mode VMode = validate::Mode::Off;
#endif
  bool VModeSet = false;
  std::vector<std::string> SearchPaths, Paths;
  std::string CacheDir;
  corpus::CorpusOptions CorpusOpts;
  unsigned GenCorpus = 0;
  std::string CorpusOut;
  CompileOptions Opts;
  stats::StatsReporter Reporter("fgc");

  driver::ArgReader Args(Argc, Argv);
  std::string Value;
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Arg == "--check")
      CheckOnly = true;
    else if (Arg == "--translate")
      PrintTranslation = true;
    else if (Arg == "--ast")
      PrintAst = true;
    else if (Arg == "--direct")
      Direct = true;
    else if (Arg == "-O1")
      Level = sf::SpecializeLevel::Off;
    else if (Arg == "-O2")
      Level = sf::SpecializeLevel::Full;
    else if (Arg == "--batch")
      Batch = true;
    else if (Arg == "--dump-bytecode")
      DumpBytecode = true;
    else if (Arg == "--no-superinstructions")
      vm::defaultEmitOptions().Superinstructions = false;
    else if (Args.value("--backend", Value, /*Spaced=*/false)) {
      if (!parseBackend(Value, Engine))
        return usageError("--backend must be one of " + backendNameList());
    } else if (Args.value("--aot-cxx", Value, /*Spaced=*/false)) {
      if (Value.empty())
        return usageError("--aot-cxx= requires a compiler path");
      AotToolchain.Cxx = Value;
    } else if (Args.value("--aot-cache", Value, /*Spaced=*/false)) {
      if (Value.empty())
        return usageError("--aot-cache= requires a directory");
      AotToolchain.CacheDir = Value;
    } else if (Arg == "--aot-keep-cpp")
      AotToolchain.KeepCpp = true;
    else if (Args.value("--validate", Value, /*Spaced=*/false)) {
      if (!validate::parseMode(Value, VMode))
        return usageError("--validate must be one of off, translate, passes");
      VModeSet = true;
    } else if (Args.value("--fuzz", Value)) {
      if (!driver::parseNumber(Value, FuzzCount, 1))
        return usageError("--fuzz requires a positive number");
    } else if (Args.value("--seed", Value)) {
      if (!driver::parseNumber(Value, FuzzSeed))
        return usageError("--seed requires a number");
    } else if (Args.value("--gen-corpus", Value)) {
      if (!driver::parseNumber(Value, GenCorpus, 1))
        return usageError("--gen-corpus requires a positive module count");
    } else if (Args.value("--out", Value)) {
      if (Value.empty())
        return usageError("--out requires a directory");
      CorpusOut = Value;
    } else if (Args.value("--corpus-shape", Value, /*Spaced=*/false)) {
      if (!corpus::parseShape(Value, CorpusOpts.GraphShape))
        return usageError(
            "--corpus-shape must be one of layered, chain, fanin");
    } else if (Arg == "--stats")
      Reporter.Human = true;
    else if (Args.value("--stats-json", Value, /*Spaced=*/false)) {
      if (Value.empty())
        return usageError("--stats-json= requires a file name");
      Reporter.JsonPath = Value;
    } else if (Args.value("--module-cache", Value, /*Spaced=*/false)) {
      if (Value.empty())
        return usageError("--module-cache= requires a directory");
      CacheDir = Value;
    } else if (Args.value("-j", Value)) {
      if (!driver::parseNumber(Value, Jobs))
        return usageError("-j requires a number");
    } else if (Args.value("-I", Value)) {
      if (Value.empty())
        return usageError("-I requires a directory");
      SearchPaths.push_back(Value);
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-")
      return usageError();
    else
      Paths.push_back(Arg);
  }
  Opts.VerifyTranslation = VMode != validate::Mode::Off;
  if (Paths.empty() && FuzzCount == 0 && GenCorpus == 0)
    return usageError();
  if (!Batch && Paths.size() > 1)
    return usageError();
  if (Reporter.Human || !Reporter.JsonPath.empty())
    stats::Statistics::global().enable(true);

  if (GenCorpus != 0) {
    if (!Paths.empty() || Batch || FuzzCount != 0)
      return usageError();
    if (CorpusOut.empty())
      return usageError("--gen-corpus requires --out <dir>");
    CorpusOpts.Modules = GenCorpus;
    CorpusOpts.Seed = FuzzSeed;
    return runGenCorpus(CorpusOpts, CorpusOut);
  }

  if (FuzzCount != 0) {
    if (!Paths.empty() || Batch)
      return usageError();
    validate::FuzzOptions FO;
    FO.Count = FuzzCount;
    FO.Seed = FuzzSeed;
    // Fuzzing exists to exercise the validators; keep per-pass
    // checking on unless the user explicitly lowered the level.
    FO.ValidatePasses = !VModeSet || VMode == validate::Mode::Passes;
    FO.Specialize = Level.value_or(sf::SpecializeLevel::Off);
    FO.Log = &std::cerr;
    if (Engine == Backend::Aot) {
      // Fuzzing the AOT backend is opt-in (each program costs a host
      // compile); degrade to a notice when no toolchain exists.
      std::string WhyNot;
      if (aot::toolchainAvailable(AotToolchain, &WhyNot)) {
        FO.IncludeAot = true;
        FO.AotToolchain = AotToolchain;
      } else {
        std::cerr << "fgc: note: skipping the aot backend in the fuzz "
                     "sweep: "
                  << WhyNot << "\n";
      }
    }
    validate::FuzzResult FR = validate::runFuzz(FO);
    std::cout << "fuzz: " << FR.Generated << " programs, "
              << FR.Failures.size() << " failures (seed " << FuzzSeed
              << ")\n";
    return FR.ok() ? 0 : 1;
  }

  if (Batch)
    return runBatchMode(Paths, SearchPaths, Jobs, CacheDir, Opts);

  const std::string &Path = Paths[0];
  std::string Source;
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Source = SS.str();
  } else {
    std::ifstream In(Path);
    if (!In) {
      std::cerr << "fgc: error: cannot open `" << Path << "`\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    Source = SS.str();
  }

  Frontend FE;
  CompileOutput Out;

  // A file with a module header routes through the loader: imports are
  // resolved and the graph is linked into one program, which then flows
  // through the same pipeline as a plain file.
  ModuleHeader Header;
  std::string HeaderError;
  bool IsModule = false;
  if (Path != "-") {
    if (!modules::ModuleLoader::scanHeader(Path, Source, Header,
                                           HeaderError)) {
      std::cerr << "fgc: error: " << HeaderError << "\n";
      return 1;
    }
    IsModule = Header.HasModuleDecl || !Header.Imports.empty();
  }
  if (IsModule) {
    modules::ModuleLoader::Options LO;
    LO.SearchPaths = SearchPaths;
    modules::ModuleLoader Loader(LO);
    std::string Root, Error;
    if (!Loader.loadFile(Path, Root, Error)) {
      std::cerr << "fgc: error: " << Error << "\n";
      return 1;
    }
    const Term *Program = Loader.link(FE, Root, Error);
    if (!Program) {
      std::cerr << "fgc: error: " << Error << "\n";
      std::cerr << FE.getDiags().render();
      return 1;
    }
    Out = FE.compileTerm(Program, Opts);
  } else {
    Out = FE.compile(Path == "-" ? "<stdin>" : Path, Source, Opts);
  }
  if (!Out.Success) {
    std::cerr << FE.getDiags().render();
    return 1;
  }
  // -O1/-O2 optimize once, up front, when a run or --dump-bytecode uses
  // the result, under --validate=passes' per-pass re-typechecking when
  // asked: execute() and --dump-bytecode reuse the term this builds.
  // --validate=passes alone validates the -O1 pipeline (-O2's with -O2)
  // without running its result.
  sf::OptimizeStats Stats;
  if ((Level && (!CheckOnly || DumpBytecode)) ||
      VMode == validate::Mode::Passes) {
    validate::Validator V(FE.getSfContext(), FE.getPrelude().Types);
    sf::OptimizeOptions OO;
    OO.Specialize = Level.value_or(sf::SpecializeLevel::Off);
    if (VMode == validate::Mode::Passes)
      OO.PassHook = V.passHook(Out.SfType);
    FE.optimize(Out, &Stats, OO);
    if (V.failed()) {
      std::cerr << "fgc: " << V.error() << "\n";
      return 1;
    }
  }
  if (PrintAst)
    std::cout << "ast: " << termToString(Out.Ast) << "\n";
  if (PrintTranslation) {
    std::cout << "systemf: " << sf::termToString(Out.SfTerm) << "\n";
    if (Out.SfType)
      std::cout << "systemf-type: " << sf::typeToString(Out.SfType) << "\n";
  }
  if (DumpBytecode) {
    std::string Error;
    std::shared_ptr<const vm::Chunk> Chunk = vm::compile(
        Level ? Out.SfOptimized : Out.SfTerm, FE.getPrelude(), &Error);
    if (!Chunk) {
      std::cerr << "fgc: error: cannot compile to bytecode: " << Error
                << "\n";
      return 1;
    }
    std::cout << "bytecode:\n" << vm::disassemble(*Chunk);
  }
  std::cout << "type: " << typeToString(Out.FgType) << "\n";
  if (CheckOnly)
    return 0;

  ExecRequest Req;
  Req.Engine = Engine;
  Req.Level = Level;
  Req.Toolchain = AotToolchain;
  aot::RunInfo Info;
  Req.AotInfo = &Info;
  ExecResult R = execute(FE, Out, Req);
  if (R.Unavailable) {
    std::cerr << "fgc: error: --backend=" << backendName(Engine)
              << " is unavailable: " << R.Error << "\n";
    return 2;
  }
  if (!Info.CppPath.empty())
    std::cerr << "fgc: note: kept generated C++ at " << Info.CppPath << "\n";
  if (!R.ok()) {
    std::cerr << "runtime error: " << R.Error << "\n";
    return 1;
  }
  std::cout << "value: " << sf::valueToString(R.Val) << "\n";

  if (Level) {
    std::cout << "specialized: " << sf::termToString(Out.SfOptimized)
              << "\n";
    std::cout << "  (nodes " << Stats.NodesBefore << " -> "
              << Stats.NodesAfter << ", " << Stats.TypeAppsInlined
              << " instantiations, " << Stats.LetsInlined
              << " lets inlined, " << Stats.ProjectionsFolded
              << " projections folded)\n";
    if (*Level != sf::SpecializeLevel::Off) {
      std::cout << "  (specialize full: " << Stats.ClonesCreated << " clones, "
                << Stats.SpecCacheHits << " cache hits, "
                << Stats.MembersDevirtualized << " members devirtualized, "
                << Stats.DictParamsEliminated << " params + "
                << Stats.DictFieldsEliminated << " fields dropped, "
                << Stats.BudgetHits << " budget hits)\n";
      if (Stats.BudgetHits != 0 && Reporter.Human)
        std::cerr << "fgc: note: the specialization size budget declined "
                  << Stats.BudgetHits
                  << " specialization(s) (specialize.budget_hits)\n";
    }
    // The reference: the unoptimized translation on the tree walker.
    ExecResult Ref = execute(FE, Out, ExecRequest());
    if (!Ref.ok() || sf::valueToString(Ref.Val) != sf::valueToString(R.Val)) {
      std::cerr << "error: specialization changed the program's value\n";
      return 1;
    }
  }

  if (Direct) {
    interp::EvalResult D = FE.runDirect(Out);
    if (!D.ok()) {
      std::cerr << "direct interpreter error: " << D.Error << "\n";
      return 1;
    }
    std::cout << "direct: " << interp::valueToString(D.Val) << "\n";
    if (interp::valueToString(D.Val) != sf::valueToString(R.Val)) {
      std::cerr << "error: direct interpretation disagrees with the "
                   "translation\n";
      return 1;
    }
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  int Ret = 1;
  runOnDeepStack([&] { Ret = fgcMain(Argc, Argv); });
  return Ret;
}
