//===- driver/Main.cpp - The fgc command-line tool ------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line driver:
///
///   fgc [options] file.fg            compile and run an F_G program
///   fgc [options] -                  read the program from stdin
///   fgc --batch [options] paths...   separately check a module graph
///
/// A single file that declares `module`/`import` is automatically
/// compiled through the module loader: its imports are resolved, the
/// modules are linked into one program, and the usual pipeline runs on
/// the result.  `--batch` instead checks every module separately
/// against its dependencies' serialized `.fgi` interfaces, scheduling
/// independent modules across a thread pool; a directory argument means
/// every `.fg` file in it.
///
/// Options:
///   --check        stop after typechecking; print the F_G type
///   --translate    print the System F translation and its type
///   --ast          print the parsed F_G program
///   --no-verify    skip re-checking the translation in System F
///                  (alias for --validate=off)
///   --validate[=<off|translate|passes>]
///                  dynamic verification level: `translate` re-checks
///                  the translation in System F and compares its type
///                  against the F_G type's image (Theorems 1 and 2);
///                  `passes` additionally re-typechecks every
///                  optimizer pass's output, attributing a failure to
///                  the pass by name.  Bare `--validate` means
///                  `passes`.  Defaults to `translate` in debug
///                  builds and `off` in release builds.
///   --fuzz <n>     generate <n> seeded well-typed programs and drive
///                  the full validation surface with them (no input
///                  file is read; see validate/Fuzz.h)
///   --seed <n>     base seed for --fuzz / --gen-corpus (default 42)
///   --direct       evaluate with the direct F_G interpreter instead of
///                  the System F translation (and cross-check the two)
///   --optimize, -O1
///                  run the optimized translation (dictionary
///                  elimination), print it with the optimizer's
///                  counts, and cross-check its value against the
///                  unoptimized translation on the tree walker
///   --specialize[=off|apps|dicts|full]
///                  whole-program specialization level on top of the
///                  baseline passes (systemf/Specialize.h); `-O2` is
///                  shorthand for `--optimize --specialize=full`
///   --backend=<tree|vm|aot>
///                  execution engine for the translation: the
///                  tree-walking evaluator (default), the bytecode VM,
///                  or the ahead-of-time C++ transpiler (aot/Aot.h).
///                  The engine runs the term the optimization level
///                  selects, whatever the engine (fg::execute).  The
///                  registry of names lives in support/Backends.h.
///   --aot-cxx=<path>
///                  host C++ compiler for --backend=aot (overrides
///                  the $FGC_AOT_CXX/$CXX/PATH discovery ladder)
///   --aot-cache=<dir>
///                  AOT build cache directory (default
///                  ./.fgc.aot-cache, or $FGC_AOT_CACHE)
///   --aot-keep-cpp keep the generated C++ in the cache dir and print
///                  its path
///   --dump-bytecode
///                  print the VM bytecode for the term the optimization
///                  level selects (vm/Disasm.h) and continue
///   --no-superinstructions
///                  disable the VM's peephole superinstruction fusion
///                  for the whole process (for A/B comparison; values,
///                  errors, and abort points must be identical)
///   --batch        separately check modules; write `.fgi` interfaces
///   --gen-corpus <n>
///                  generate a seeded, deterministic corpus of <n>
///                  well-typed modules into --out (corpus/Corpus.h);
///                  same seed and knobs => byte-identical files
///   --out <dir>    output directory for --gen-corpus
///   --corpus-shape=<layered|chain|fanin>
///                  dependency-graph silhouette (default layered)
///   --corpus-layers=<n>
///                  layer count for the layered shape (0 = auto)
///   --corpus-max-imports=<n>
///                  max direct imports per module (layered shape)
///   --corpus-diamond=<pct>
///                  share of import edges reaching past the previous
///                  layer, which is what creates diamonds
///   -j <n>         batch worker threads (0 = all hardware threads)
///   -I <dir>       add a module search path (repeatable)
///   --module-cache=<dir>
///                  write/read `.fgi` interfaces in <dir> instead of
///                  next to each source file
///   --no-cache     ignore existing `.fgi` files; recheck everything
///   --stats        print compiler statistics (phase timings, counter
///                  values, cache hit rates) to stderr on exit
///   --stats-json=<file>
///                  also write the statistics as JSON to <file>
///                  (`-` for stdout)
///   --no-model-cache
///                  disable the checker's model-resolution and
///                  congruence-query caches (for A/B comparison; the
///                  result must be identical either way)
///
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "modules/Batch.h"
#include "modules/Loader.h"
#include "support/Backends.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "validate/Fuzz.h"
#include "validate/Validate.h"
#include "vm/Disasm.h"
#include "vm/Emit.h"
#include <algorithm>
#include <cstdio>
#if defined(__unix__) || defined(__APPLE__)
#include <pthread.h>
#endif
#include <cstdlib>
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
        "  --no-verify            skip System F re-checking\n"
        "  --validate[=<mode>]    `off`, `translate` (re-check the\n"
        "                         translation; Theorems 1/2), or `passes`\n"
        "                         (also re-typecheck each optimizer pass);\n"
        "                         bare --validate means `passes`; default\n"
        "                         is `translate` in debug builds, `off` in\n"
        "                         release builds\n"
        "  --fuzz <n>             validate <n> generated well-typed\n"
        "                         programs across all backends\n"
        "  --seed <n>             base seed for --fuzz / --gen-corpus\n"
        "                         (default 42)\n"
        "  --direct               cross-check with the direct interpreter\n"
        "  --optimize, -O1        run the optimized translation and\n"
        "                         cross-check it against the unoptimized\n"
        "                         one on the tree walker\n"
        "  --specialize[=<lvl>]   whole-program specialization level on\n"
        "                         top of -O1: `off`, `apps` (clone\n"
        "                         polymorphic functions at concrete\n"
        "                         types), `dicts` (also devirtualize\n"
        "                         concept members), `full` (also drop\n"
        "                         dead dictionary params/fields); bare\n"
        "                         --specialize means `full`\n"
        "  -O2                    shorthand for --optimize\n"
        "                         --specialize=full\n"
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
        "  --corpus-layers=<n>    layered-shape layer count (0 = auto)\n"
        "  --corpus-max-imports=<n>\n"
        "                         max direct imports per corpus module\n"
        "  --corpus-diamond=<p>   percent of corpus import edges that\n"
        "                         skip layers (diamond density)\n"
        "  -j <n>                 batch worker threads (0 = all cores)\n"
        "  -I <dir>               add a module search path\n"
        "  --module-cache=<dir>   directory for .fgi interface files\n"
        "  --no-cache             ignore existing .fgi files\n"
        "  --stats                print statistics to stderr on exit\n"
        "  --stats-json=<file>    write statistics as JSON (- for stdout)\n"
        "  --no-model-cache       disable checker memoization\n"
        "  --help, -h             print this help\n";
}

int usageError() {
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
                 const std::string &CacheDir, bool UseCache,
                 const CompileOptions &Opts) {
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
  BO.UseCache = UseCache;
  BO.Verify = Opts.VerifyTranslation;
  BO.EnableModelCache = Opts.EnableModelCache;
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
  bool Direct = false, Batch = false, UseCache = true;
  bool DumpBytecode = false;
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

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--check")
      CheckOnly = true;
    else if (Arg == "--translate")
      PrintTranslation = true;
    else if (Arg == "--ast")
      PrintAst = true;
    else if (Arg == "--direct")
      Direct = true;
    else if (Arg == "--optimize" || Arg == "-O1") {
      if (!Level)
        Level = sf::SpecializeLevel::Off;
    } else if (Arg == "-O2" || Arg == "--specialize")
      Level = sf::SpecializeLevel::Full;
    else if (Arg.rfind("--specialize=", 0) == 0) {
      std::string Value = Arg.substr(std::string("--specialize=").size());
      sf::SpecializeLevel L;
      if (!sf::parseSpecializeLevel(Value, L)) {
        std::cerr << "fgc: error: --specialize must be one of off, apps, "
                     "dicts, full\n";
        return usageError();
      }
      // `--specialize=off` alone stays at -O0; after -O1/-O2 it means -O1.
      if (Level || L != sf::SpecializeLevel::Off)
        Level = L;
    } else if (Arg == "--batch")
      Batch = true;
    else if (Arg == "--no-cache")
      UseCache = false;
    else if (Arg == "--dump-bytecode")
      DumpBytecode = true;
    else if (Arg == "--no-superinstructions")
      vm::defaultEmitOptions().Superinstructions = false;
    else if (Arg.rfind("--backend=", 0) == 0) {
      if (!parseBackend(Arg.substr(std::string("--backend=").size()),
                        Engine)) {
        std::cerr << "fgc: error: --backend must be one of "
                  << backendNameList() << "\n";
        return usageError();
      }
    } else if (Arg.rfind("--aot-cxx=", 0) == 0) {
      AotToolchain.Cxx = Arg.substr(std::string("--aot-cxx=").size());
      if (AotToolchain.Cxx.empty()) {
        std::cerr << "fgc: error: --aot-cxx= requires a compiler path\n";
        return usageError();
      }
    } else if (Arg.rfind("--aot-cache=", 0) == 0) {
      AotToolchain.CacheDir = Arg.substr(std::string("--aot-cache=").size());
      if (AotToolchain.CacheDir.empty()) {
        std::cerr << "fgc: error: --aot-cache= requires a directory\n";
        return usageError();
      }
    } else if (Arg == "--aot-keep-cpp")
      AotToolchain.KeepCpp = true;
    else if (Arg == "--no-verify") {
      VMode = validate::Mode::Off;
      VModeSet = true;
    } else if (Arg == "--validate") {
      VMode = validate::Mode::Passes;
      VModeSet = true;
    } else if (Arg.rfind("--validate=", 0) == 0) {
      std::string Value = Arg.substr(std::string("--validate=").size());
      if (!validate::parseMode(Value, VMode)) {
        std::cerr << "fgc: error: --validate must be one of off, "
                     "translate, passes\n";
        return usageError();
      }
      VModeSet = true;
    } else if (Arg == "--fuzz" || Arg.rfind("--fuzz=", 0) == 0) {
      std::string Value = Arg == "--fuzz"
                              ? (I + 1 < Argc ? Argv[++I] : "")
                              : Arg.substr(std::string("--fuzz=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0' || N == 0) {
        std::cerr << "fgc: error: --fuzz requires a positive number\n";
        return usageError();
      }
      FuzzCount = static_cast<unsigned>(N);
    } else if (Arg == "--seed" || Arg.rfind("--seed=", 0) == 0) {
      std::string Value = Arg == "--seed"
                              ? (I + 1 < Argc ? Argv[++I] : "")
                              : Arg.substr(std::string("--seed=").size());
      char *End = nullptr;
      unsigned long long N = std::strtoull(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0') {
        std::cerr << "fgc: error: --seed requires a number\n";
        return usageError();
      }
      FuzzSeed = N;
    }
    else if (Arg == "--gen-corpus" || Arg.rfind("--gen-corpus=", 0) == 0) {
      std::string Value =
          Arg == "--gen-corpus"
              ? (I + 1 < Argc ? Argv[++I] : "")
              : Arg.substr(std::string("--gen-corpus=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0' || N == 0) {
        std::cerr << "fgc: error: --gen-corpus requires a positive "
                     "module count\n";
        return usageError();
      }
      GenCorpus = static_cast<unsigned>(N);
    } else if (Arg == "--out" || Arg.rfind("--out=", 0) == 0) {
      CorpusOut = Arg == "--out" ? (I + 1 < Argc ? Argv[++I] : "")
                                 : Arg.substr(std::string("--out=").size());
      if (CorpusOut.empty()) {
        std::cerr << "fgc: error: --out requires a directory\n";
        return usageError();
      }
    } else if (Arg.rfind("--corpus-shape=", 0) == 0) {
      std::string Value = Arg.substr(std::string("--corpus-shape=").size());
      if (!corpus::parseShape(Value, CorpusOpts.GraphShape)) {
        std::cerr << "fgc: error: --corpus-shape must be one of layered, "
                     "chain, fanin\n";
        return usageError();
      }
    } else if (Arg.rfind("--corpus-layers=", 0) == 0) {
      std::string Value = Arg.substr(std::string("--corpus-layers=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0') {
        std::cerr << "fgc: error: --corpus-layers requires a number\n";
        return usageError();
      }
      CorpusOpts.Layers = static_cast<unsigned>(N);
    } else if (Arg.rfind("--corpus-max-imports=", 0) == 0) {
      std::string Value =
          Arg.substr(std::string("--corpus-max-imports=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0' || N == 0) {
        std::cerr << "fgc: error: --corpus-max-imports requires a "
                     "positive number\n";
        return usageError();
      }
      CorpusOpts.MaxImports = static_cast<unsigned>(N);
    } else if (Arg.rfind("--corpus-diamond=", 0) == 0) {
      std::string Value = Arg.substr(std::string("--corpus-diamond=").size());
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0' || N > 100) {
        std::cerr << "fgc: error: --corpus-diamond requires a percentage "
                     "(0-100)\n";
        return usageError();
      }
      CorpusOpts.DiamondPct = static_cast<unsigned>(N);
    } else if (Arg == "--stats")
      Reporter.Human = true;
    else if (Arg.rfind("--stats-json=", 0) == 0) {
      Reporter.JsonPath = Arg.substr(std::string("--stats-json=").size());
      if (Reporter.JsonPath.empty()) {
        std::cerr << "fgc: error: --stats-json= requires a file name\n";
        return usageError();
      }
    } else if (Arg.rfind("--module-cache=", 0) == 0) {
      CacheDir = Arg.substr(std::string("--module-cache=").size());
      if (CacheDir.empty()) {
        std::cerr << "fgc: error: --module-cache= requires a directory\n";
        return usageError();
      }
    } else if (Arg == "--no-model-cache")
      Opts.EnableModelCache = false;
    else if (Arg == "-j" || Arg.rfind("-j", 0) == 0) {
      std::string Value = Arg == "-j" ? (I + 1 < Argc ? Argv[++I] : "")
                                      : Arg.substr(2);
      char *End = nullptr;
      unsigned long N = std::strtoul(Value.c_str(), &End, 10);
      if (Value.empty() || !End || *End != '\0') {
        std::cerr << "fgc: error: -j requires a number\n";
        return usageError();
      }
      Jobs = static_cast<unsigned>(N);
    } else if (Arg == "-I" || Arg.rfind("-I", 0) == 0) {
      std::string Value = Arg == "-I" ? (I + 1 < Argc ? Argv[++I] : "")
                                      : Arg.substr(2);
      if (Value.empty()) {
        std::cerr << "fgc: error: -I requires a directory\n";
        return usageError();
      }
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
    if (CorpusOut.empty()) {
      std::cerr << "fgc: error: --gen-corpus requires --out <dir>\n";
      return usageError();
    }
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
    return runBatchMode(Paths, SearchPaths, Jobs, CacheDir, UseCache, Opts);

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
  // --validate=passes alone validates the pipeline at the --specialize
  // level without running its result.
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
      std::cout << "  (specialize " << sf::specializeLevelName(*Level)
                << ": " << Stats.ClonesCreated << " clones, "
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
#if defined(__unix__) || defined(__APPLE__)
  // Corpus-scale inputs recurse proportionally to program depth: a
  // 10k-module import chain links into a let spine tens of thousands
  // of levels deep, and the parser, checker, translator and
  // tree-walking evaluator all walk it recursively.  The default 8 MiB
  // main-thread stack overflows around that scale, so the driver runs
  // on a thread with a deep (lazily committed) stack instead.
  pthread_attr_t Attr;
  if (pthread_attr_init(&Attr) == 0) {
    struct Args {
      int Argc;
      char **Argv;
      int Ret;
    } A{Argc, Argv, 1};
    pthread_t Tid;
    if (pthread_attr_setstacksize(&Attr, size_t(512) << 20) == 0 &&
        pthread_create(
            &Tid, &Attr,
            [](void *P) -> void * {
              Args *A = static_cast<Args *>(P);
              A->Ret = fgcMain(A->Argc, A->Argv);
              return nullptr;
            },
            &A) == 0) {
      pthread_join(Tid, nullptr);
      pthread_attr_destroy(&Attr);
      return A.Ret;
    }
    pthread_attr_destroy(&Attr);
  }
#endif
  return fgcMain(Argc, Argv);
}
