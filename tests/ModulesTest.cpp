//===- tests/ModulesTest.cpp - Module system tests ------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// The module subsystem end to end: header scanning, graph loading and
// cycle rejection, whole-program linking (must agree with the
// equivalent single-file program), separate compilation against
// serialized interfaces, interface round-tripping, and the on-disk
// cache with its digest-cascade invalidation and early cutoff.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "modules/Batch.h"
#include "modules/Interface.h"
#include "modules/Loader.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <regex>
#include <set>

using namespace fg;
using namespace fg::modules;
namespace fs = std::filesystem;

namespace {

class ModulesTest : public ::testing::Test {
protected:
  fs::path Dir;

  void SetUp() override {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Dir = fs::temp_directory_path() /
          (std::string("fgc_modules_") + Info->name());
    fs::remove_all(Dir);
    fs::create_directories(Dir);
  }
  void TearDown() override { fs::remove_all(Dir); }

  std::string write(const std::string &Name, const std::string &Text) {
    fs::path P = Dir / Name;
    std::ofstream Out(P);
    Out << Text;
    return P.string();
  }

  static std::string readAll(const std::string &Path) {
    std::ifstream In(Path);
    std::stringstream SS;
    SS << In.rdbuf();
    return SS.str();
  }

  /// Edits module file \p Name so that its interface changes: one more
  /// exported value, declared right after the `module` and `import`
  /// lines.
  void addExport(const std::string &Name) {
    std::string Text = readAll((Dir / Name).string());
    size_t BodyStart = 0;
    for (size_t Pos = 0; Pos < Text.size();) {
      size_t Eol = Text.find('\n', Pos);
      size_t Next = Eol == std::string::npos ? Text.size() : Eol + 1;
      if (Text.compare(Pos, 7, "module ") == 0 ||
          Text.compare(Pos, 7, "import ") == 0)
        BodyStart = Next;
      Pos = Next;
    }
    write(Name, Text.insert(BodyStart, "let edit_export = 1 in\n"));
  }

  /// The interface text from its declarations on: everything but the
  /// header that records the module's hash and its imports' digests.
  static std::string exportsOf(const std::string &FgiPath) {
    std::string Text = readAll(FgiPath);
    size_t Decls = Text.find("(decls");
    return Decls == std::string::npos ? "" : Text.substr(Decls);
  }

  /// Writes the diamond used by several tests:
  ///   top -> {left, right} -> base
  /// and returns top.fg's path.  Evaluates to (8, 12).
  std::string writeDiamond() {
    write("base.fg", "module base;\n"
                     "concept Doubler<t> { twice : fn(t) -> t; } in\n"
                     "let pair = forall t. fun(a : t, b : t). (a, b)\n"
                     "in 0\n");
    write("left.fg", "module left;\n"
                     "import base;\n"
                     "model Doubler<int> { twice = fun(x : int). iadd(x, x); }\n"
                     "in let four = Doubler<int>.twice(2) in 0\n");
    write("right.fg", "module right;\n"
                      "import base;\n"
                      "let triple = fun(x : int). iadd(x, iadd(x, x)) in 0\n");
    return write("top.fg", "module top;\n"
                           "import base;\n"
                           "import left;\n"
                           "import right;\n"
                           "pair[int](Doubler<int>.twice(four), triple(four))\n");
  }

  /// The diamond flattened to one file, for value cross-checking.
  static const char *diamondSingleFile() {
    return "concept Doubler<t> { twice : fn(t) -> t; } in\n"
           "let pair = forall t. fun(a : t, b : t). (a, b) in\n"
           "model Doubler<int> { twice = fun(x : int). iadd(x, x); } in\n"
           "let four = Doubler<int>.twice(2) in\n"
           "let triple = fun(x : int). iadd(x, iadd(x, x)) in\n"
           "pair[int](Doubler<int>.twice(four), triple(four))\n";
  }

  static BatchResult batch(const ModuleLoader &Loader,
                           const std::vector<std::string> &Roots,
                           unsigned Jobs = 1, const fs::path &CacheDir = {}) {
    BatchOptions BO;
    BO.Jobs = Jobs;
    BO.CacheDir = CacheDir.string();
    return runBatch(Loader, Roots, BO);
  }
};

// The scan lexes only as far as the header reaches, so nothing in the
// body, however malformed, is its business.
TEST_F(ModulesTest, ScanHeaderParsesModuleAndImports) {
  const char *Bodies[] = {
      "42\n",
      "let x = 99999999999999999999 in @ /* never closed",
      "/* never closed\n1\n",
      "@\n",
      "99999999999999999999\n",
  };
  for (const char *Body : Bodies) {
    ModuleHeader H;
    std::string Error;
    ASSERT_TRUE(ModuleLoader::scanHeader(
        "m.fg", std::string("module m;\nimport a;\nimport b;\n") + Body, H,
        Error))
        << Body << ": " << Error;
    EXPECT_TRUE(H.HasModuleDecl);
    EXPECT_EQ(H.Name, "m");
    ASSERT_EQ(H.Imports.size(), 2u) << Body;
    EXPECT_EQ(H.Imports[0].Name, "a");
    EXPECT_EQ(H.Imports[1].Name, "b");
  }
}

TEST_F(ModulesTest, ScanHeaderPlainProgramHasNoHeader) {
  ModuleHeader H;
  std::string Error;
  ASSERT_TRUE(ModuleLoader::scanHeader("p.fg", "let x = 1 in x", H, Error));
  EXPECT_FALSE(H.HasModuleDecl);
  EXPECT_TRUE(H.Imports.empty());
}

TEST_F(ModulesTest, ScanHeaderRejectsMalformedHeader) {
  const std::pair<const char *, const char *> Cases[] = {
      {"module ;", "m.fg: expected module name after `module`"},
      {"module @;", "m.fg: expected module name after `module`"},
      {"module m import a;", "m.fg: expected `;` after module name"},
      {"module m;\nimport 7;", "m.fg: expected module name after `import`"},
      {"import a\nimport b;", "m.fg: expected `;` after import name"},
      {"module m;\nimport a", "m.fg: expected `;` after import name"},
  };
  for (const auto &[Source, Message] : Cases) {
    ModuleHeader H;
    std::string Error;
    EXPECT_FALSE(ModuleLoader::scanHeader("m.fg", Source, H, Error))
        << Source;
    EXPECT_EQ(Error, Message) << Source;
  }
}

// The benchmark harness derives its header-scan layer from lexer.lex
// timer calls outside a parse: one scan must be exactly one call.
TEST_F(ModulesTest, ScanHeaderIsOneLexCall) {
  stats::Statistics &S = stats::Statistics::global();
  bool WasEnabled = S.isEnabled();
  S.enable(true);
  uint64_t Before = S.timers()["lexer.lex"].Calls;
  ModuleHeader H;
  std::string Error;
  ASSERT_TRUE(ModuleLoader::scanHeader(
      "m.fg", "module m;\nimport a;\nimport b;\nlet x = 1 in x\n", H,
      Error));
  uint64_t After = S.timers()["lexer.lex"].Calls;
  S.enable(WasEnabled);
  EXPECT_EQ(After - Before, 1u);
}

TEST_F(ModulesTest, LoaderBuildsDiamondInDependencyOrder) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  EXPECT_EQ(Root, "top");
  EXPECT_EQ(Loader.modules().size(), 4u);
  std::vector<const ModuleUnit *> Order =
      Loader.topoOrder({Loader.find("top")});
  ASSERT_EQ(Order.size(), 4u);
  EXPECT_EQ(Order.front()->Name, "base");
  EXPECT_EQ(Order.back()->Name, "top");
}

TEST_F(ModulesTest, LoaderRejectsImportCycle) {
  write("a.fg", "module a;\nimport b;\n1\n");
  write("b.fg", "module b;\nimport a;\n2\n");
  ModuleLoader Loader;
  std::string Root, Error;
  EXPECT_FALSE(Loader.loadFile((Dir / "a.fg").string(), Root, Error));
  EXPECT_NE(Error.find("import cycle: a -> b -> a"), std::string::npos)
      << Error;
}

TEST_F(ModulesTest, LoaderRejectsNameStemMismatch) {
  std::string P = write("x.fg", "module y;\n1\n");
  ModuleLoader Loader;
  std::string Root, Error;
  EXPECT_FALSE(Loader.loadFile(P, Root, Error));
  EXPECT_NE(Error.find("y.fg"), std::string::npos) << Error;
}

TEST_F(ModulesTest, LoaderReportsMissingImport) {
  std::string P = write("solo.fg", "module solo;\nimport nowhere;\n1\n");
  ModuleLoader Loader;
  std::string Root, Error;
  EXPECT_FALSE(Loader.loadFile(P, Root, Error));
  EXPECT_NE(Error.find("nowhere"), std::string::npos) << Error;
}

TEST_F(ModulesTest, LinkedProgramMatchesSingleFileValue) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;

  Frontend Linked;
  const Term *Program = Loader.link(Linked, Root, Error);
  ASSERT_NE(Program, nullptr) << Error;
  CompileOutput Out = Linked.compileTerm(Program);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult R = Linked.run(Out);
  ASSERT_TRUE(R.ok()) << R.Error;

  Frontend Single;
  CompileOutput SingleOut = Single.compile("diamond", diamondSingleFile());
  ASSERT_TRUE(SingleOut.Success) << SingleOut.ErrorMessage;
  ExecResult S = execute(Single, SingleOut, ExecRequest());
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(sf::valueToString(R.Val), sf::valueToString(S.Val));
  EXPECT_EQ(sf::valueToString(R.Val), "(8, 12)");
}

TEST_F(ModulesTest, BatchChecksDiamondSeparately) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;

  BatchResult BR = batch(Loader, {Root});
  ASSERT_TRUE(BR.Success);
  ASSERT_EQ(BR.Results.size(), 4u);
  for (const ModuleBuildResult &R : BR.Results) {
    EXPECT_TRUE(R.Success) << R.Module << ": " << R.Error;
    EXPECT_FALSE(R.CacheHit) << R.Module;
  }
  for (const char *M : {"base", "left", "right", "top"})
    EXPECT_TRUE(fs::exists(Dir / (std::string(M) + ".fgi"))) << M;
}

TEST_F(ModulesTest, BatchWarmRunHitsInterfaceCache) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  ASSERT_TRUE(batch(Loader, {Root}).Success);

  auto Before = stats::Statistics::global().counters();
  BatchResult Warm = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(Warm.Success);
  for (const ModuleBuildResult &R : Warm.Results)
    EXPECT_TRUE(R.CacheHit) << R.Module;
  EXPECT_EQ(After["modules.cache.hits"] - Before["modules.cache.hits"],
            4u);
  EXPECT_EQ(After["modules.cache.misses"] - Before["modules.cache.misses"],
            0u);
}

// `base` exports `pair : forall t. fn(t, t) -> (t * t)`, whose body its
// interface writes with the index `#0`.  An index outside its binders
// makes the file malformed: a miss that rebuilds it, not a hit that
// fails its dependents.
TEST_F(ModulesTest, InterfaceWithAnUnboundIndexIsACacheMiss) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  ASSERT_TRUE(batch(Loader, {Root}).Success);

  std::string Base = readAll((Dir / "base.fgi").string());
  size_t At = Base.find("(all (t) (reqs) (eqs) (-> (#0 #0)");
  ASSERT_NE(At, std::string::npos) << Base;
  std::string Bad = Base;
  Bad.replace(Bad.find("#0", At), 2, "#1");
  write("base.fgi", Bad);

  auto Before = stats::Statistics::global().counters();
  BatchResult BR = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(BR.Success);
  EXPECT_FALSE(BR.find("base")->CacheHit);
  EXPECT_EQ(After["modules.cache.misses"] - Before["modules.cache.misses"],
            1u);
  EXPECT_EQ(After["modules.cache.hits"] - Before["modules.cache.hits"], 3u);
  EXPECT_EQ(readAll((Dir / "base.fgi").string()), Base);
}

TEST_F(ModulesTest, DependencyEditInvalidatesWholeCone) {
  std::string Top = writeDiamond();
  {
    ModuleLoader Loader;
    std::string Root, Error;
    ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
    ASSERT_TRUE(batch(Loader, {Root}).Success);
  }
  // Change `left`'s interface only: `left` and `top` must recompile,
  // `base` and `right` stay cached (the key covers the import closure's
  // interfaces, not the whole graph).
  addExport("left.fg");
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  BatchResult BR = batch(Loader, {Root});
  ASSERT_TRUE(BR.Success);
  EXPECT_TRUE(BR.find("base")->CacheHit);
  EXPECT_TRUE(BR.find("right")->CacheHit);
  EXPECT_FALSE(BR.find("left")->CacheHit);
  EXPECT_FALSE(BR.find("top")->CacheHit);
}

TEST_F(ModulesTest, BatchParallelMatchesSerial) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  // Each run gets an empty interface cache, so both check every module.
  fs::create_directories(Dir / "serial");
  fs::create_directories(Dir / "parallel");
  BatchResult Serial = batch(Loader, {Root}, 1, Dir / "serial");
  BatchResult Parallel = batch(Loader, {Root}, 4, Dir / "parallel");
  ASSERT_TRUE(Serial.Success);
  ASSERT_TRUE(Parallel.Success);
  ASSERT_EQ(Serial.Results.size(), Parallel.Results.size());
  for (size_t I = 0; I != Serial.Results.size(); ++I) {
    EXPECT_EQ(Serial.Results[I].Module, Parallel.Results[I].Module);
    EXPECT_EQ(Serial.Results[I].Success, Parallel.Results[I].Success);
    EXPECT_FALSE(Parallel.Results[I].CacheHit);
  }
  EXPECT_GE(Parallel.MaxWavefront, 1u);
  EXPECT_LE(Parallel.MaxWavefront, 4u);
}

TEST_F(ModulesTest, BatchReportsCrossModuleTypeError) {
  write("lib.fg", "module lib;\nlet inc = fun(x : int). iadd(x, 1) in 0\n");
  std::string Bad =
      write("bad.fg", "module bad;\nimport lib;\ninc(true)\n");
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Bad, Root, Error)) << Error;
  BatchResult BR = batch(Loader, {Root});
  EXPECT_FALSE(BR.Success);
  EXPECT_TRUE(BR.find("lib")->Success);
  EXPECT_FALSE(BR.find("bad")->Success);
  EXPECT_FALSE(BR.find("bad")->Error.empty());
}

TEST_F(ModulesTest, InterfaceRoundTripPreservesExportedTypes) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  ASSERT_TRUE(batch(Loader, {Root}).Success);

  std::string BaseText = readAll((Dir / "base.fgi").string());
  ASSERT_FALSE(BaseText.empty());

  // Deserialize the same interface into two independent compilers: the
  // remapped ids differ, but every exported type must render (and thus
  // alpha-compare) identically.
  ParsedInterface Parsed;
  std::string ParseErr;
  ASSERT_TRUE(parseInterface(BaseText, Parsed, ParseErr)) << ParseErr;
  EXPECT_EQ(Parsed.ModuleName, "base");
  auto instantiate = [&](Frontend &FE, ImportEnv &Env, ModuleInterface &I) {
    std::string Err;
    ASSERT_TRUE(instantiateInterface(Parsed, FE, Env, I, Err)) << Err;
  };
  Frontend FA, FB;
  ImportEnv EA, EB;
  ModuleInterface IA, IB;
  instantiate(FA, EA, IA);
  instantiate(FB, EB, IB);

  ASSERT_EQ(IA.Values.size(), 1u);
  ASSERT_EQ(IB.Values.size(), 1u);
  EXPECT_EQ(IA.Values[0].Name, "pair");
  EXPECT_EQ(typeToString(IA.Values[0].Ty), typeToString(IB.Values[0].Ty));
  EXPECT_EQ(typeToString(IA.Values[0].Ty),
            "forall t. fn(t, t) -> (t * t)");
  ASSERT_EQ(IA.Decls.size(), 1u);
  const auto *CI = std::get_if<ConceptInfo>(&IA.Decls[0]);
  ASSERT_NE(CI, nullptr);
  EXPECT_EQ(CI->Name, "Doubler");
  ASSERT_EQ(CI->Members.size(), 1u);
  EXPECT_EQ(CI->Members[0].Name, "twice");
  EXPECT_EQ(typeToString(IA.ResultType), "int");
}

TEST_F(ModulesTest, AssocTypesAndNamedModelsCrossModules) {
  write("shapes.fg",
        "module shapes;\n"
        "concept Container<c> {\n"
        "  types elt;\n"
        "  first : fn(c) -> elt;\n"
        "} in\n"
        "model Container<list int> {\n"
        "  types elt = int;\n"
        "  first = fun(c : list int). car[int](c);\n"
        "} in\n"
        "model [rev] Container<(int * int)> {\n"
        "  types elt = int;\n"
        "  first = fun(p : (int * int)). nth p 1;\n"
        "} in 0\n");
  std::string Use = write(
      "useshapes.fg",
      "module useshapes;\n"
      "import shapes;\n"
      "let a = Container<list int>.first(cons[int](7, nil[int])) in\n"
      "let b = (use rev in Container<(int * int)>.first((1, 9))) in\n"
      "iadd(a, b)\n");
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Use, Root, Error)) << Error;

  // Separate check: useshapes compiles against shapes' interface only.
  BatchResult BR = batch(Loader, {Root});
  ASSERT_TRUE(BR.Success) << BR.find("useshapes")->Error;

  // Link path: the spliced program must evaluate to 7 + 9.
  Frontend FE;
  const Term *Program = Loader.link(FE, Root, Error);
  ASSERT_NE(Program, nullptr) << Error;
  CompileOutput Out = FE.compileTerm(Program);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult R = FE.run(Out);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(sf::valueToString(R.Val), "16");
}

TEST_F(ModulesTest, ExportProbeCollectsSpineLets) {
  Frontend FE;
  Parser P(FE.getSourceManager(), FE.getDiags(), FE.getFgContext(),
           FE.getFgArena());
  uint32_t Buf = FE.getSourceManager().addBuffer(
      "m.fg", "let a = 1 in let b = true in iadd(a, 2)");
  const Term *Ast = P.parseProgram(Buf);
  ASSERT_NE(Ast, nullptr);
  std::vector<std::string> Names;
  const Term *Probe = buildExportProbe(FE.getFgArena(), Ast, Names);
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "a");
  EXPECT_EQ(Names[1], "b");
  CompileOutput Out = FE.compileTerm(Probe);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  EXPECT_EQ(typeToString(Out.FgType), "(int * bool * int)");
}

TEST_F(ModulesTest, InterfaceHashCoversSourceAndDeps) {
  uint64_t H1 = interfaceHash("src", {{"a", 1}});
  EXPECT_EQ(H1, interfaceHash("src", {{"a", 1}}));
  EXPECT_NE(H1, interfaceHash("src2", {{"a", 1}}));
  EXPECT_NE(H1, interfaceHash("src", {{"a", 2}}));
  EXPECT_NE(H1, interfaceHash("src", {{"b", 1}}));
  EXPECT_NE(H1, interfaceHash("src", {}));
  // The value itself is pinned: a changed hash function or format salt
  // would make every user's .fgi cache miss.
  EXPECT_EQ(H1, 0x8162edf92216c033ull);
}

//===----------------------------------------------------------------------===//
// Generated corpora (corpus/Corpus.h) through the module pipeline.
//===----------------------------------------------------------------------===//

/// Writes \p Mods into the fixture dir and loads the graph from its
/// root (the generator's final module reaches everything).
static void loadCorpus(const fs::path &Dir,
                       const std::vector<corpus::GeneratedModule> &Mods,
                       ModuleLoader &Loader, std::string &Root) {
  std::string Error;
  ASSERT_TRUE(corpus::writeCorpus(Mods, Dir.string(), Error)) << Error;
  std::string RootPath = (Dir / (Mods.back().Name + ".fg")).string();
  ASSERT_TRUE(Loader.loadFile(RootPath, Root, Error)) << Error;
}

/// The name-keyed walk the loader used before its graph was indexed,
/// kept as the reference the indexed walk must reproduce exactly:
/// depth-first over import *names* in declaration order, post-order,
/// with a set of visited names.
static std::vector<std::string> referenceTopoOrder(const ModuleLoader &L,
                                                   const std::string &Root) {
  std::vector<std::string> Order;
  std::set<std::string> Visited;
  struct Frame {
    const ModuleUnit *U;
    size_t NextImport = 0;
  };
  std::vector<Frame> Stack;
  if (const ModuleUnit *R = L.find(Root)) {
    Visited.insert(Root);
    Stack.push_back({R});
  }
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextImport < F.U->Imports.size()) {
      const std::string &Dep = F.U->Imports[F.NextImport++].Name;
      if (Visited.insert(Dep).second)
        if (const ModuleUnit *D = L.find(Dep))
          Stack.push_back({D});
      continue;
    }
    Order.push_back(F.U->Name);
    Stack.pop_back();
  }
  return Order;
}

/// The batch's union order as it was built before: each root's
/// reference walk in turn, keeping a module's first occurrence.
static std::vector<std::string>
referenceUnion(const ModuleLoader &L, const std::vector<std::string> &Roots) {
  std::vector<std::string> Order;
  std::set<std::string> Seen;
  for (const std::string &Root : Roots)
    for (const std::string &M : referenceTopoOrder(L, Root))
      if (Seen.insert(M).second)
        Order.push_back(M);
  return Order;
}

/// The names of \p Roots' closure in the loader's indexed walk.
static std::vector<std::string>
indexedOrder(const ModuleLoader &L, const std::vector<std::string> &Roots) {
  std::vector<const ModuleUnit *> RootUnits;
  for (const std::string &Root : Roots)
    RootUnits.push_back(L.find(Root));
  std::vector<std::string> Names;
  for (const ModuleUnit *U : L.topoOrder(RootUnits))
    Names.push_back(U->Name);
  return Names;
}

/// Asserts that the indexed walks agree with the reference on \p L:
/// every module's closure, and the union over \p Roots both from
/// topoOrder and as the order of the batch's results.  The batch checks
/// every module, writing interfaces into the fresh \p CacheDir.
static void expectReferenceOrders(const ModuleLoader &L,
                                  const std::vector<std::string> &Roots,
                                  const fs::path &CacheDir) {
  for (const auto &[Name, U] : L.modules())
    EXPECT_EQ(indexedOrder(L, {Name}), referenceTopoOrder(L, Name)) << Name;

  std::vector<std::string> Expected = referenceUnion(L, Roots);
  EXPECT_EQ(indexedOrder(L, Roots), Expected);

  fs::create_directories(CacheDir);
  BatchOptions BO;
  BO.Jobs = 2;
  BO.CacheDir = CacheDir.string();
  BatchResult BR = runBatch(L, Roots, BO);
  EXPECT_TRUE(BR.Success);
  std::vector<std::string> Batched;
  for (const ModuleBuildResult &R : BR.Results) {
    EXPECT_FALSE(R.CacheHit) << R.Module;
    Batched.push_back(R.Module);
  }
  EXPECT_EQ(Batched, Expected);
}

/// Links \p Root and returns its value, rendered.
static std::string linkedValue(const ModuleLoader &L, const std::string &Root) {
  Frontend FE;
  std::string Error;
  const Term *Program = L.link(FE, Root, Error);
  if (!Program)
    return "link error: " + Error;
  CompileOutput Out = FE.compileTerm(Program);
  if (!Out.Success)
    return "check error: " + Out.ErrorMessage;
  sf::EvalResult R = FE.run(Out);
  return R.ok() ? sf::valueToString(R.Val) : "run error: " + R.Error;
}

TEST_F(ModulesTest, IndexedWalkMatchesNameWalkOnFglib) {
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(
      (fs::path(FG_FGLIB_DIR) / "fglib.fg").string(), Root, Error))
      << Error;
  ASSERT_EQ(Loader.modules().size(), 21u);
  // Every module a root, in name order and reversed: the union then
  // starts from leaves and from the top respectively.
  std::vector<std::string> Roots;
  for (const auto &[Name, U] : Loader.modules())
    Roots.push_back(Name);
  expectReferenceOrders(Loader, Roots, Dir / "forward");
  std::reverse(Roots.begin(), Roots.end());
  expectReferenceOrders(Loader, Roots, Dir / "reversed");
  EXPECT_EQ(linkedValue(Loader, Root), "(31, 36, 7, 24, true)");
}

TEST_F(ModulesTest, IndexedWalkMatchesNameWalkOnLayeredCorpus) {
  corpus::CorpusOptions Opts;
  Opts.Modules = 200;
  Opts.Seed = 42;
  std::vector<corpus::GeneratedModule> Mods = corpus::generate(Opts);
  std::string Error;
  ASSERT_TRUE(corpus::writeCorpus(Mods, Dir.string(), Error)) << Error;
  // Loaded one file at a time in name order, as `fgc --batch <dir>`
  // does, so ids follow file order rather than the root's walk.
  ModuleLoader Loader;
  std::vector<std::string> Roots;
  for (const corpus::GeneratedModule &M : Mods) {
    std::string Root;
    ASSERT_TRUE(
        Loader.loadFile((Dir / (M.Name + ".fg")).string(), Root, Error))
        << Error;
    Roots.push_back(Root);
  }
  // Diamonds: modules two of whose imports share a dependency, so the
  // walk reaches that dependency twice and must place it once.
  unsigned Diamonds = 0;
  for (const auto &[Name, U] : Loader.modules()) {
    size_t Reached = 0;
    for (const ModuleHeader::Import &Imp : U.Imports)
      Reached += referenceTopoOrder(Loader, Imp.Name).size();
    Diamonds += Reached + 1 > referenceTopoOrder(Loader, Name).size();
  }
  EXPECT_GT(Diamonds, 50u);
  expectReferenceOrders(Loader, Roots, Dir / "forward");
  std::reverse(Roots.begin(), Roots.end());
  expectReferenceOrders(Loader, Roots, Dir / "reversed");
  // Pinned from the name-keyed walk's link of the same corpus.
  EXPECT_EQ(linkedValue(Loader, Mods.back().Name), "7");
}

TEST_F(ModulesTest, CorpusIsDeterministicAndSeedSensitive) {
  corpus::CorpusOptions Opts;
  Opts.Modules = 40;
  Opts.Seed = 7;
  std::vector<corpus::GeneratedModule> A = corpus::generate(Opts);
  std::vector<corpus::GeneratedModule> B = corpus::generate(Opts);
  ASSERT_EQ(A.size(), 40u);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Imports, B[I].Imports);
    EXPECT_EQ(A[I].Source, B[I].Source) << A[I].Name;
  }
  Opts.Seed = 8;
  std::vector<corpus::GeneratedModule> C = corpus::generate(Opts);
  bool AnyDiff = false;
  for (size_t I = 0; I < A.size(); ++I)
    AnyDiff |= A[I].Source != C[I].Source;
  EXPECT_TRUE(AnyDiff) << "seed change did not alter the corpus";
}

TEST_F(ModulesTest, CorpusLayeredTypechecksAndRuns) {
  corpus::CorpusOptions Opts;
  Opts.Modules = 40;
  Opts.Seed = 11;
  ModuleLoader Loader;
  std::string Root;
  loadCorpus(Dir, corpus::generate(Opts), Loader, Root);

  BatchResult BR = batch(Loader, {Root}, /*Jobs=*/2);
  ASSERT_TRUE(BR.Success);
  EXPECT_EQ(BR.Results.size(), 40u);
  for (const ModuleBuildResult &R : BR.Results)
    EXPECT_TRUE(R.Success) << R.Module << ": " << R.Error;

  // The root links into a runnable whole program: generated values are
  // bounded by construction, so evaluation terminates with an int.
  Frontend FE;
  std::string Error;
  const Term *Program = Loader.link(FE, Root, Error);
  ASSERT_NE(Program, nullptr) << Error;
  CompileOutput Out = FE.compileTerm(Program);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult R = FE.run(Out);
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST_F(ModulesTest, CorpusChain64DeepInvalidationRipplesFromLeaf) {
  corpus::CorpusOptions Opts;
  Opts.Modules = 64;
  Opts.Seed = 5;
  Opts.GraphShape = corpus::Shape::Chain;
  std::vector<corpus::GeneratedModule> Mods = corpus::generate(Opts);
  {
    ModuleLoader Loader;
    std::string Root;
    loadCorpus(Dir, Mods, Loader, Root);
    ASSERT_EQ(Root, "m0063");
    BatchResult Cold = batch(Loader, {Root});
    ASSERT_TRUE(Cold.Success);
    ASSERT_EQ(Cold.Results.size(), 64u);
    BatchResult Warm = batch(Loader, {Root});
    ASSERT_TRUE(Warm.Success);
    for (const ModuleBuildResult &R : Warm.Results)
      EXPECT_TRUE(R.CacheHit) << R.Module;
  }

  // Change the leaf's interface: the digest cascade must invalidate the
  // entire 64-deep chain above it — the leaf attributed to its source,
  // all 63 dependents transitively.
  addExport("m0000.fg");
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(
      Loader.loadFile((Dir / "m0063.fg").string(), Root, Error))
      << Error;
  auto Before = stats::Statistics::global().counters();
  BatchResult BR = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(BR.Success);
  for (const ModuleBuildResult &R : BR.Results)
    EXPECT_FALSE(R.CacheHit) << R.Module;
  EXPECT_EQ(After["modules.cache.invalidations.source"] -
                Before["modules.cache.invalidations.source"],
            1u);
  EXPECT_EQ(After["modules.cache.invalidations.transitive"] -
                Before["modules.cache.invalidations.transitive"],
            63u);
  EXPECT_EQ(After["modules.cache.hits"] - Before["modules.cache.hits"], 0u);
  // The root's interface names only what it mentions, not the 63
  // modules of concepts below it.
  EXPECT_EQ(readAll((Dir / "m0063.fgi").string()).find("cref"),
            std::string::npos);
}

TEST_F(ModulesTest, CorpusFanIn64WideRootChecksAndCaches) {
  corpus::CorpusOptions Opts;
  Opts.Modules = 65; // 64 independent foundations + the fan-in root.
  Opts.Seed = 9;
  Opts.GraphShape = corpus::Shape::FanIn;
  std::vector<corpus::GeneratedModule> Mods = corpus::generate(Opts);
  EXPECT_EQ(Mods.back().Imports.size(), 64u);

  ModuleLoader Loader;
  std::string Root;
  loadCorpus(Dir, Mods, Loader, Root);
  auto Before = stats::Statistics::global().counters();
  BatchResult Cold = batch(Loader, {Root}, /*Jobs=*/4);
  ASSERT_TRUE(Cold.Success);
  EXPECT_EQ(Cold.Results.size(), 65u);

  // A second run is 65 hits; an edit to one foundation's interface
  // invalidates exactly itself and the root — the other 63 stay cached.
  BatchResult Warm = batch(Loader, {Root}, /*Jobs=*/4);
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(Warm.Success);
  EXPECT_EQ(After["modules.cache.hits"] - Before["modules.cache.hits"],
            65u);

  addExport("m0007.fg");
  ModuleLoader Fresh;
  std::string Root2, Error;
  ASSERT_TRUE(
      Fresh.loadFile((Dir / "m0064.fg").string(), Root2, Error))
      << Error;
  BatchResult BR = batch(Fresh, {Root2}, /*Jobs=*/4);
  ASSERT_TRUE(BR.Success);
  unsigned Hits = 0, Recompiled = 0;
  for (const ModuleBuildResult &R : BR.Results)
    ++(R.CacheHit ? Hits : Recompiled);
  EXPECT_EQ(Hits, 63u);
  EXPECT_EQ(Recompiled, 2u);
  EXPECT_FALSE(BR.find("m0007")->CacheHit);
  EXPECT_FALSE(BR.find("m0064")->CacheHit);
}

// Early cutoff: a comment leaves the leaf's interface as it was, so
// only the leaf is rechecked and the 63 modules above it stay hits.
TEST_F(ModulesTest, CorpusChain64CommentEditRechecksOnlyTheLeaf) {
  corpus::CorpusOptions Opts;
  Opts.Modules = 64;
  Opts.Seed = 5;
  Opts.GraphShape = corpus::Shape::Chain;
  {
    ModuleLoader Loader;
    std::string Root;
    loadCorpus(Dir, corpus::generate(Opts), Loader, Root);
    ASSERT_TRUE(batch(Loader, {Root}).Success);
  }

  write("m0000.fg", readAll((Dir / "m0000.fg").string()) + "// edited\n");
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile((Dir / "m0063.fg").string(), Root, Error))
      << Error;
  auto Before = stats::Statistics::global().counters();
  BatchResult BR = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(BR.Success);
  auto delta = [&](const char *Counter) {
    return After[Counter] - Before[Counter];
  };
  EXPECT_EQ(delta("modules.cache.misses"), 1u);
  EXPECT_EQ(delta("modules.cache.hits"), 63u);
  EXPECT_EQ(delta("modules.cache.cutoffs"), 1u);
  EXPECT_EQ(delta("modules.cache.invalidations.source"), 1u);
  EXPECT_FALSE(BR.find("m0000")->CacheHit);
}

/// `module a` binding `av` to \p Value.
static std::string aSource(const std::string &Value) {
  return "module a;\nlet av = " + Value + " in 0\n";
}

/// Writes a <- b <- c, where c uses a's `av` through b and b's own
/// interface does not mention it; returns c.fg's path.  c evaluates to
/// av + 2.
static std::string writeChain(const fs::path &Dir) {
  std::ofstream(Dir / "a.fg") << aSource("1");
  std::ofstream(Dir / "b.fg") << "module b;\nimport a;\nlet bv = 2 in 0\n";
  std::ofstream(Dir / "c.fg") << "module c;\nimport b;\niadd(av, bv)\n";
  return (Dir / "c.fg").string();
}

// A value edit that keeps the value's type keeps `a`'s interface, so
// `a` alone is rechecked, and the linked program sees the new value.
TEST_F(ModulesTest, SameTypeValueEditRechecksOnlyItsModule) {
  std::string C = writeChain(Dir);
  std::string Root, Error;
  {
    ModuleLoader Loader;
    ASSERT_TRUE(Loader.loadFile(C, Root, Error)) << Error;
    ASSERT_TRUE(batch(Loader, {Root}).Success);
    EXPECT_EQ(linkedValue(Loader, Root), "3");
  }

  write("a.fg", aSource("5"));
  ModuleLoader Loader;
  ASSERT_TRUE(Loader.loadFile(C, Root, Error)) << Error;
  auto Before = stats::Statistics::global().counters();
  BatchResult BR = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(BR.Success);
  EXPECT_FALSE(BR.find("a")->CacheHit);
  EXPECT_TRUE(BR.find("b")->CacheHit);
  EXPECT_TRUE(BR.find("c")->CacheHit);
  EXPECT_EQ(After["modules.cache.misses"] - Before["modules.cache.misses"],
            1u);
  EXPECT_EQ(After["modules.cache.cutoffs"] - Before["modules.cache.cutoffs"],
            1u);
  EXPECT_EQ(linkedValue(Loader, Root), "7");
}

// Why a digest covers the interfaces below it: `av` turning into a bool
// leaves `b`'s exports byte-identical, yet `c`, which uses `av` through
// `b`, must be rechecked and fail.  Restoring `a` makes `c` a hit again.
TEST_F(ModulesTest, TypeChangeBelowAnUnchangedInterfaceRechecksAbove) {
  std::string C = writeChain(Dir);
  auto build = [&]() {
    ModuleLoader Loader;
    std::string Root, Error;
    EXPECT_TRUE(Loader.loadFile(C, Root, Error)) << Error;
    return batch(Loader, {Root});
  };
  ASSERT_TRUE(build().Success);
  std::string BExports = exportsOf((Dir / "b.fgi").string());
  ASSERT_NE(BExports, "");

  write("a.fg", aSource("true"));
  BatchResult Bool = build();
  EXPECT_FALSE(Bool.Success);
  EXPECT_TRUE(Bool.find("a")->Success);
  EXPECT_TRUE(Bool.find("b")->Success);
  EXPECT_FALSE(Bool.find("b")->CacheHit);
  EXPECT_EQ(exportsOf((Dir / "b.fgi").string()), BExports);
  EXPECT_FALSE(Bool.find("c")->Success);
  EXPECT_FALSE(Bool.find("c")->Skipped);
  EXPECT_NE(Bool.find("c")->Error.find(
                "argument 1 has type `bool` but `int` was expected"),
            std::string::npos)
      << Bool.find("c")->Error;

  write("a.fg", aSource("1"));
  BatchResult Restored = build();
  EXPECT_TRUE(Restored.Success);
  EXPECT_TRUE(Restored.find("c")->CacheHit);
}

// Interface keys are numbered by first appearance, not by the ids the
// checker minted: a body edit that mints one more type parameter above
// a concept declaration leaves `a`'s interface, and so the key of its
// dependent, as they were.
TEST_F(ModulesTest, BodyEditThatMintsIdsKeepsDependentsCached) {
  auto aWith = [](const std::string &FBody) {
    return "module a;\nlet f = fun(x : int). " + FBody +
           " in\nconcept C<t> { op : fn(t) -> t; } in 0\n";
  };
  write("a.fg", aWith("x"));
  std::string B = write("b.fg", "module b;\nimport a;\n"
                                "model C<int> { op = f; } in C<int>.op(3)\n");
  std::string Root, Error;
  {
    ModuleLoader Loader;
    ASSERT_TRUE(Loader.loadFile(B, Root, Error)) << Error;
    ASSERT_TRUE(batch(Loader, {Root}).Success);
  }
  std::string AExports = exportsOf((Dir / "a.fgi").string());
  ASSERT_NE(AExports.find("(cdecl 0 C (params (0 t))"), std::string::npos)
      << AExports;

  write("a.fg", aWith("(forall u. fun(y : u). y)[int](x)"));
  ModuleLoader Loader;
  ASSERT_TRUE(Loader.loadFile(B, Root, Error)) << Error;
  auto Before = stats::Statistics::global().counters();
  BatchResult BR = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(BR.Success);
  EXPECT_FALSE(BR.find("a")->CacheHit);
  EXPECT_TRUE(BR.find("b")->CacheHit);
  EXPECT_EQ(exportsOf((Dir / "a.fgi").string()), AExports);
  EXPECT_EQ(After["modules.cache.cutoffs"] - Before["modules.cache.cutoffs"],
            1u);
}

TEST_F(ModulesTest, ParsedInterfaceDepsRoundTrip) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  ASSERT_TRUE(batch(Loader, {Root}).Success);

  ParsedInterface P;
  ASSERT_TRUE(parseInterface(readAll((Dir / "top.fgi").string()), P, Error))
      << Error;
  EXPECT_EQ(P.ModuleName, "top");
  ASSERT_EQ(P.Deps.size(), 3u);
  EXPECT_EQ(P.Deps[0].first, "base");
  EXPECT_EQ(P.Deps[1].first, "left");
  EXPECT_EQ(P.Deps[2].first, "right");
  // The stored hash must be reproducible from source + stored deps —
  // the property the transitive-invalidation attribution relies on.
  EXPECT_EQ(P.Hash, interfaceHash(readAll((Dir / "top.fg").string()), P.Deps));

  // Each recorded dependency is that interface's digest: the links of
  // the Merkle chain.
  for (const auto &[Name, Digest] : P.Deps) {
    ParsedInterface D;
    ASSERT_TRUE(
        parseInterface(readAll((Dir / (Name + ".fgi")).string()), D, Error))
        << Error;
    EXPECT_EQ(Digest, D.Digest) << Name;
  }

  ParsedInterface Leaf;
  ASSERT_TRUE(
      parseInterface(readAll((Dir / "base.fgi").string()), Leaf, Error))
      << Error;
  EXPECT_TRUE(Leaf.Deps.empty());
}

TEST_F(ModulesTest, UnreadableCacheFileIsAMiss) {
  std::string Top = writeDiamond();
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Top, Root, Error)) << Error;
  ASSERT_TRUE(batch(Loader, {Root}).Success);

  // Plant three unreadable interfaces where the warm run would read
  // hits: a truncated one, garbage, and a well-formed older version.
  std::map<std::string, std::string> Good;
  for (const char *M : {"base", "left", "right", "top"})
    Good[M] = readAll((Dir / (std::string(M) + ".fgi")).string());
  const std::string Head = "(fgi " + std::to_string(InterfaceFormatVersion);
  ASSERT_EQ(Good["right"].rfind(Head, 0), 0u);
  write("base.fgi", Good["base"].substr(0, Good["base"].size() / 2));
  write("left.fgi", "garbage ) (\n");
  write("right.fgi", "(fgi 1" + Good["right"].substr(Head.size()));

  auto Before = stats::Statistics::global().counters();
  BatchResult BR = batch(Loader, {Root});
  auto After = stats::Statistics::global().counters();
  ASSERT_TRUE(BR.Success);
  EXPECT_EQ(After["modules.cache.misses"] - Before["modules.cache.misses"],
            3u);
  EXPECT_EQ(After["modules.compiled"] - Before["modules.compiled"], 3u);
  EXPECT_EQ(After["modules.cache.hits"] - Before["modules.cache.hits"], 1u);
  // An unreadable file has no stored hash to attribute an invalidation to.
  EXPECT_EQ(After["modules.cache.invalidations.source"] -
                Before["modules.cache.invalidations.source"],
            0u);
  EXPECT_EQ(After["modules.cache.invalidations.transitive"] -
                Before["modules.cache.invalidations.transitive"],
            0u);
  for (const char *M : {"base", "left", "right"}) {
    EXPECT_FALSE(BR.find(M)->CacheHit) << M;
    // Rechecking reproduces the interface byte for byte.
    EXPECT_EQ(readAll((Dir / (std::string(M) + ".fgi")).string()), Good[M])
        << M;
  }
  // The rebuilt interfaces keep their digests, so their dependent hits.
  EXPECT_TRUE(BR.find("top")->CacheHit);
  for (const auto &E : fs::directory_iterator(Dir))
    EXPECT_EQ(E.path().string().find(".tmp."), std::string::npos)
        << E.path();
}

TEST_F(ModulesTest, ImportedAliasCrossesModules) {
  write("lib.fg", "module lib;\n"
                  "type pt = (int * int) in\n"
                  "let swap = fun(p : pt). (nth p 1, nth p 0) in 0\n");
  write("mid.fg", "module mid;\n"
                  "import lib;\n"
                  "let twice = fun(p : pt). swap(swap(p)) in 0\n");
  std::string Main = write("main.fg", "module main;\n"
                                      "import mid;\n"
                                      "nth twice((1, 2)) 0\n");
  ModuleLoader Loader;
  std::string Root, Error;
  ASSERT_TRUE(Loader.loadFile(Main, Root, Error)) << Error;
  BatchResult BR = batch(Loader, {Root});
  ASSERT_TRUE(BR.Success) << BR.find("mid")->Error << BR.find("main")->Error;

  Frontend FE;
  const Term *Program = Loader.link(FE, Root, Error);
  ASSERT_NE(Program, nullptr) << Error;
  CompileOutput Out = FE.compileTerm(Program);
  ASSERT_TRUE(Out.Success) << Out.ErrorMessage;
  sf::EvalResult R = FE.run(Out);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(sf::valueToString(R.Val), "1");

  // mid's exported type mentions lib's alias, so mid references it;
  // main's interface mentions no imported entity and references none.
  std::string MidText = readAll((Dir / "mid.fgi").string());
  std::string MainText = readAll((Dir / "main.fgi").string());
  EXPECT_TRUE(
      std::regex_search(MidText, std::regex(R"(\(aref \d+ lib pt\))")))
      << MidText;
  EXPECT_EQ(MainText.find("aref"), std::string::npos) << MainText;
  EXPECT_EQ(MainText.find("cref"), std::string::npos) << MainText;
}

} // namespace
