//===- modules/Batch.cpp - Parallel separate compilation ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "modules/Batch.h"
#include "modules/Interface.h"
#include "support/DeepStack.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace fg;
using namespace fg::modules;

namespace fs = std::filesystem;

namespace {

/// What a finished module leaves behind for its dependents: its
/// interface, parsed once for all of them.
struct Product {
  bool Ok = false;
  ParsedInterface Iface;
};

std::string cacheFileFor(const ModuleUnit &U, const BatchOptions &Opts) {
  if (!Opts.CacheDir.empty())
    return (fs::path(Opts.CacheDir) / (U.Name + ".fgi")).string();
  fs::path P(U.Path);
  P.replace_extension(".fgi");
  return P.string();
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

/// Writes \p Text to \p Path through a pid-suffixed temp file and a
/// rename, so a killed batch, or another batch sharing the cache
/// directory, never leaves a truncated interface behind.  Cache writes
/// are best-effort: a read-only tree still batch-checks, it just cannot
/// warm the cache.
void publish(const std::string &Path, const std::string &Text) {
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  bool Written = false;
  {
    std::ofstream OutFile(Tmp, std::ios::binary | std::ios::trunc);
    Written = OutFile && (OutFile << Text).flush();
  }
  if (!Written || ::rename(Tmp.c_str(), Path.c_str()) != 0)
    ::unlink(Tmp.c_str());
}

/// Checks one module against its dependencies' interfaces.  Every
/// module of \p U's closure has a complete, successful entry in
/// \p Products (indexed by ModuleUnit::Id).
void buildModule(const ModuleLoader &Loader, const ModuleUnit &U,
                 const std::vector<Product> &Products,
                 const BatchOptions &Opts, ModuleBuildResult &R,
                 Product &Out) {
  stats::Statistics &S = stats::Statistics::global();

  // The expected hash covers this module's source plus the *direct*
  // imports' interface hashes; those hashes cover their own deps in
  // turn, so any change in the dependency cone cascades here.
  std::vector<std::pair<std::string, uint64_t>> DirectDeps;
  for (const ModuleUnit *Dep : U.Deps)
    DirectDeps.emplace_back(Dep->Name, Products[Dep->Id].Iface.Hash);
  uint64_t Expected = interfaceHash(U.Source, DirectDeps);

  std::string CachePath = cacheFileFor(U, Opts);
  {
    // One parse validates the stored hash, gives the stored deps for
    // attribution, and on a hit is what dependents instantiate.  A file
    // that does not parse is a plain miss.
    std::string Text, Err;
    ParsedInterface Stored;
    if (readFile(CachePath, Text) &&
        parseInterface(std::move(Text), Stored, Err)) {
      if (Stored.Hash == Expected) {
        S.add("modules.cache.hits");
        Out.Ok = true;
        Out.Iface = std::move(Stored);
        R.Success = true;
        R.CacheHit = true;
        return;
      }
      // A stale interface exists: attribute the invalidation.  If the
      // current source re-hashed against the *stored* dep hashes still
      // reproduces the stored hash, this module's own text is
      // unchanged — the invalidation cascaded transitively from a
      // dependency.  Otherwise the source itself was edited.
      if (interfaceHash(U.Source, Stored.Deps) == Stored.Hash)
        S.add("modules.cache.invalidations.transitive");
      else
        S.add("modules.cache.invalidations.source");
    }
  }
  S.add("modules.cache.misses");

  // Fresh compiler state per module: instantiate every interface in the
  // closure (dependency order), then check this module's body against
  // them.  Only a miss needs the closure, so it is walked here, in the
  // worker.
  std::vector<const ModuleUnit *> Closure = Loader.topoOrder({&U});
  Closure.pop_back(); // The module itself.
  Frontend FE;
  ImportEnv Env;
  std::vector<ModuleInterface> Ifaces(Closure.size());
  for (size_t I = 0; I < Closure.size(); ++I) {
    std::string Err;
    if (!instantiateInterface(Products[Closure[I]->Id].Iface, FE, Env,
                              Ifaces[I], Err)) {
      R.Error = Err;
      return;
    }
  }
  ParserSeeds Seeds;
  for (const ModuleInterface &I : Ifaces) {
    std::string Err;
    if (!bindImportedValues(FE, Env, I, Err)) {
      R.Error = Err;
      return;
    }
    for (const auto &D : I.Decls) {
      if (const auto *CI = std::get_if<ConceptInfo>(&D))
        Seeds.Concepts.emplace_back(CI->Name, CI->Id);
      else {
        const auto &A = std::get<AliasExport>(D);
        Seeds.TypeVars.emplace_back(A.Name, A.ParamId);
      }
    }
  }

  uint32_t BufferId = FE.getSourceManager().addBuffer(U.Path, U.Source);
  Parser P(FE.getSourceManager(), FE.getDiags(), FE.getFgContext(),
           FE.getFgArena());
  ModuleHeader Header;
  const Term *Ast = P.parseModule(BufferId, Header, Seeds);
  if (!Ast) {
    R.Error = FE.getDiags().firstError();
    return;
  }

  // One check of the export probe yields every exported value's type
  // alongside the module's own result type.
  std::vector<std::string> ExportNames;
  const Term *Probe = buildExportProbe(FE.getFgArena(), Ast, ExportNames);
  CompileOptions CO;
  CO.VerifyTranslation = Opts.Verify;
  CO.ImportTypes = &Env.ImportTypes;
  CO.AllowConceptEscape = true;
  CompileOutput CompileOut = FE.compileTerm(Probe, CO);
  if (!CompileOut.Success) {
    R.Error = CompileOut.ErrorMessage;
    return;
  }

  ModuleInterface I;
  std::string Err;
  if (!buildInterface(FE, Env, U.Name, Ast, ExportNames, CompileOut.FgType,
                      I, Err)) {
    R.Error = Err;
    return;
  }
  I.Hash = Expected;
  I.Deps = std::move(DirectDeps);
  std::string Text;
  {
    stats::ScopedTimer Timer("modules.serialize");
    Text = serializeInterface(I, Env);
  }
  if (!parseInterface(std::move(Text), Out.Iface, Err)) {
    R.Error = "internal error: serialized interface does not parse: " + Err;
    return;
  }
  publish(CachePath, Out.Iface.Text);
  S.add("modules.compiled");
  Out.Ok = true;
  R.Success = true;
}

} // namespace

BatchResult fg::modules::runBatch(const ModuleLoader &Loader,
                                  const std::vector<std::string> &Roots,
                                  const BatchOptions &Opts) {
  BatchResult Result;

  // Union of the roots' closures, dependency-ordered, from one walk.
  std::vector<const ModuleUnit *> RootUnits;
  for (const std::string &Root : Roots)
    if (const ModuleUnit *U = Loader.find(Root))
      RootUnits.push_back(U);
  std::vector<const ModuleUnit *> Order = Loader.topoOrder(RootUnits);

  // Per-module state, indexed by ModuleUnit::Id.
  struct Node {
    std::vector<const ModuleUnit *> Dependents;
    size_t PendingDeps = 0;
  };
  size_t NumUnits = Loader.modules().size();
  std::vector<Node> Nodes(NumUnits);
  std::vector<Product> Products(NumUnits);
  std::vector<ModuleBuildResult> Results(NumUnits);
  for (const ModuleUnit *U : Order) {
    Nodes[U->Id].PendingDeps = U->Deps.size();
    for (const ModuleUnit *Dep : U->Deps)
      Nodes[Dep->Id].Dependents.push_back(U);
  }

  std::mutex Mu;
  std::condition_variable CV;
  std::deque<const ModuleUnit *> Ready;
  size_t Remaining = Order.size();
  unsigned Running = 0, MaxWave = 0;
  for (const ModuleUnit *U : Order)
    if (U->Deps.empty())
      Ready.push_back(U);

  auto worker = [&]() {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      CV.wait(Lock, [&] { return !Ready.empty() || Remaining == 0; });
      if (Ready.empty())
        return;
      const ModuleUnit &U = *Ready.front();
      Ready.pop_front();
      ++Running;
      MaxWave = std::max(MaxWave, Running);
      ModuleBuildResult R;
      R.Module = U.Name;

      bool DepsOk = true;
      for (const ModuleUnit *Dep : U.Deps)
        if (!Products[Dep->Id].Ok) {
          R.Skipped = true;
          R.Error = "import `" + Dep->Name + "` failed";
          DepsOk = false;
          break;
        }
      if (DepsOk) {
        Product Out;
        Lock.unlock();
        buildModule(Loader, U, Products, Opts, R, Out);
        Lock.lock();
        Products[U.Id] = std::move(Out);
      }

      Results[U.Id] = std::move(R);
      --Running;
      --Remaining;
      for (const ModuleUnit *D : Nodes[U.Id].Dependents)
        if (--Nodes[D->Id].PendingDeps == 0)
          Ready.push_back(D);
      CV.notify_all();
    }
  };

  unsigned Jobs = Opts.Jobs ? Opts.Jobs
                            : std::max(1u, std::thread::hardware_concurrency());
  if (Order.size() < Jobs)
    Jobs = static_cast<unsigned>(Order.size());
  if (Jobs == 0)
    Jobs = 1;
  // Checking a module recurses as deep as its body is nested.
  std::vector<DeepStackThread> Pool;
  for (unsigned I = 1; I < Jobs; ++I)
    Pool.emplace_back(worker);
  worker();
  for (DeepStackThread &T : Pool)
    T.join();

  Result.MaxWavefront = MaxWave;
  Result.Success = true;
  for (const ModuleUnit *U : Order) {
    if (!Results[U->Id].Success)
      Result.Success = false;
    Result.Results.push_back(std::move(Results[U->Id]));
  }
  stats::Statistics &S = stats::Statistics::global();
  std::atomic<uint64_t> &Wave = S.counter("batch.wavefront.max_width");
  uint64_t Cur = Wave.load();
  while (MaxWave > Cur && !Wave.compare_exchange_weak(Cur, MaxWave)) {
  }
  return Result;
}
