//===- perfbench/harness.cpp - In-process side of the benchmark -----------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parts of the end-to-end benchmark that need the compiler as a
/// library or need precise client-side timing.  run.py generates every
/// input from the seed, writes a manifest (JSON), and runs
///
///   perfbench_harness <mode> <manifest.json>
///
/// with one of these modes:
///
///   refs     value of each listed program under the direct F_G
///            interpreter (Frontend::runDirect), the reference for
///            inputs that carry no EXPECT header;
///   engines  untraced: compile each program once, then run it on the
///            tree walker and the VM at -O0, the VM at -O2 and the AOT
///            binary at -O2, in seeded round-robin, for `seconds`;
///   daemon   untraced: an `fgcd --socket --threads 2` child driven by
///            two closed-loop connections for `seconds`;
///   trace    traced: a fixed, seed-determined pass over the workload's
///            operations, calling each layer's public entry points in
///            the order the drivers do, with a span around every call.
///
/// Tracing is done from outside the program: nothing in src/ knows
/// about spans.  Around each call the tracer snapshots the counters and
/// phase timers support/Stats already keeps; timer deltas split a
/// call's duration among the layers it ran (lexer.lex inside
/// parser.parse, checker.check, frontend.verify, eval.run, ...), and
/// whatever no timer covers is the call's own layer.  Spans are kept in
/// memory and written as Chrome trace-event JSON when the pass ends.
///
/// Every mode prints one JSON object on the last line of stdout.
///
//===----------------------------------------------------------------------===//

#include "aot/Aot.h"
#include "aot/CppEmitter.h"
#include "modules/Batch.h"
#include "modules/Loader.h"
#include "server/ArtifactCache.h"
#include "server/Json.h"
#include "server/Protocol.h"
#include "server/Session.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "vm/Emit.h"
#include "vm/VM.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace fg;
using server::Json;
namespace fs = std::filesystem;

namespace {

//===----------------------------------------------------------------------===//
// Small utilities
//===----------------------------------------------------------------------===//

uint64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string &Msg) {
  std::cerr << "perfbench_harness: " << Msg << "\n";
  std::exit(2);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const Json &member(const Json &Obj, const std::string &Key) {
  const Json *J = Obj.find(Key);
  if (!J)
    die("manifest lacks `" + Key + "`");
  return *J;
}

std::string str(const Json &Obj, const std::string &Key) {
  return member(Obj, Key).asString();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += std::log(X);
  return std::exp(S / V.size());
}

/// Flat JSON object writer for the harness's result line.
class Report {
public:
  void num(const std::string &K, double V) {
    std::ostringstream SS;
    SS.precision(12);
    SS << V;
    add(K, SS.str());
  }
  void raw(const std::string &K, const std::string &JsonText) {
    add(K, JsonText);
  }
  void list(const std::string &K, const std::vector<double> &V) {
    std::ostringstream SS;
    SS.precision(9);
    SS << "[";
    for (size_t I = 0; I < V.size(); ++I)
      SS << (I ? "," : "") << V[I];
    SS << "]";
    add(K, SS.str());
  }
  void print() const { std::cout << "{" << Body << "}" << std::endl; }
  const std::string &body() const { return Body; }

private:
  void add(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "\"" : ", \"") + K + "\": " + V;
  }
  std::string Body;
};

pid_t spawn(const std::vector<std::string> &Argv, int OutFd) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&FA, OutFd, 1);
  posix_spawn_file_actions_adddup2(&FA, OutFd, 2);
  pid_t Pid = -1;
  int Err = posix_spawn(&Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Err != 0)
    die("cannot spawn " + Argv[0] + ": " + std::strerror(Err));
  return Pid;
}

/// Wall time of one run of a child whose output is discarded.
double childMs(const std::vector<std::string> &Argv) {
  int Null = open("/dev/null", O_WRONLY | O_CLOEXEC);
  uint64_t T0 = nowNs();
  pid_t Pid = spawn(Argv, Null);
  int Status;
  if (waitpid(Pid, &Status, 0) != Pid)
    die("waitpid failed");
  double Ms = (nowNs() - T0) / 1e6;
  close(Null);
  return Ms;
}

//===----------------------------------------------------------------------===//
// Tracing from outside: spans plus support/Stats deltas
//===----------------------------------------------------------------------===//

using Timers = std::map<std::string, stats::Statistics::TimerRecord>;

struct Snap {
  Timers T;
  std::map<std::string, uint64_t> C;
};

Snap snap() {
  const stats::Statistics &S = stats::Statistics::global();
  return {S.timers(), S.counters()};
}

double dT(const Timers &A, const Timers &B, const char *Name) {
  auto I = B.find(Name);
  if (I == B.end())
    return 0;
  auto J = A.find(Name);
  return double(I->second.Nanos - (J == A.end() ? 0 : J->second.Nanos));
}

double dT(const Snap &A, const Snap &B, const char *Name) {
  return dT(A.T, B.T, Name);
}

uint64_t dCalls(const Timers &A, const Timers &B, const char *Name) {
  auto I = B.find(Name);
  if (I == B.end())
    return 0;
  auto J = A.find(Name);
  return I->second.Calls - (J == A.end() ? 0 : J->second.Calls);
}

uint64_t dC(const Snap &A, const Snap &B, const char *Name) {
  auto I = B.C.find(Name);
  if (I == B.C.end())
    return 0;
  auto J = A.C.find(Name);
  return I->second - (J == A.C.end() ? 0 : J->second);
}

struct Span {
  std::string Name;
  std::string Layer;
  uint64_t Start = 0, End = 0;
  int Parent = -1;
  int Op = -1;
  bool Derived = false; ///< Placed from a Stats timer delta.
};

/// The layers whose self times the traced run reports, in report order.
const char *const Layers[] = {
    "driver.other",        "syntax.header_scan", "syntax.lex",
    "syntax.parse",        "modules.load",       "modules.link",
    "modules.instantiate", "modules.serialize",  "modules.batch",
    "core.check",          "systemf.verify",     "systemf.optimize",
    "systemf.eval",        "vm.emit",            "vm.run",
    "aot.emit",            "aot.host_compile",   "aot.run",
    "server.session",      "server.json",
};

class Tracer {
public:
  explicit Tracer(bool On) : On(On) {
    for (const char *L : Layers)
      SelfNs[L] = 0;
  }

  bool enabled() const { return On; }

  /// Opens a root span for one user operation.
  int beginOp(const std::string &Name) {
    if (!On)
      return -1;
    Spans.push_back({Name, "driver.other", nowNs(), 0, -1, NumOps++, false});
    OpBookkeeping = 0;
    OpChildNs = 0;
    return int(Spans.size()) - 1;
  }

  void endOp(int Id) {
    if (!On)
      return;
    Span &S = Spans[Id];
    S.End = nowNs();
    double Self = double(S.End - S.Start) - OpChildNs - OpBookkeeping;
    SelfNs["driver.other"] += std::max(0.0, Self);
    Bookkeeping += OpBookkeeping;
  }

  /// Runs \p Fn as a leaf call under root \p Parent.  Only a copy of
  /// the phase timers is taken here, after the call (the previous
  /// leaf's copy serves as this one's "before": the harness runs no
  /// timed library code between leaves); attribution waits for
  /// finish(), so the pass pays as little bookkeeping as possible.
  template <class F>
  void leaf(int Parent, const char *Name, const char *Layer, F &&Fn) {
    if (!On) {
      Fn();
      return;
    }
    uint64_t B0 = nowNs();
    if (Snaps.empty())
      Snaps.push_back(stats::Statistics::global().timers());
    uint64_t Start = nowNs();
    Fn();
    uint64_t End = nowNs();
    size_t Before = Snaps.size() - 1;
    Snaps.push_back(stats::Statistics::global().timers());
    Spans.push_back({Name, Layer, Start, End, Parent,
                     Parent >= 0 ? Spans[Parent].Op : -1, false});
    Leaves.push_back({int(Spans.size()) - 1, Before, Snaps.size() - 1});
    OpChildNs += double(End - Start);
    OpBookkeeping += double((Start - B0) + (nowNs() - End));
  }

  /// Re-reads the timers after timed work that ran outside any leaf.
  void resync() {
    if (On)
      Snaps.push_back(stats::Statistics::global().timers());
  }

  /// Splits every leaf among layers; call once, after the pass.
  void finish() {
    for (const LeafRec &L : Leaves)
      attribute(L.Span, Snaps[L.Before], Snaps[L.After]);
    Snaps.clear();
    Leaves.clear();
  }

  /// Writes every span as Chrome trace-event JSON ("X" events, one
  /// thread row per operation).
  void writeTrace(const std::string &Path) const {
    std::ofstream OS(Path);
    OS << "{\"traceEvents\": [\n";
    uint64_t T0 = Spans.empty() ? 0 : Spans.front().Start;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << (I ? ",\n" : "") << "{\"name\": \"" << server::jsonEscape(S.Name)
         << "\", \"cat\": \"" << S.Layer << "\", \"ph\": \"X\", \"ts\": "
         << (S.Start - T0) / 1000.0 << ", \"dur\": "
         << (S.End - S.Start) / 1000.0 << ", \"pid\": 1, \"tid\": 1"
         << ", \"args\": {\"id\": " << I << ", \"parent\": " << S.Parent
         << ", \"op\": " << S.Op << ", \"derived\": "
         << (S.Derived ? "true" : "false") << "}}";
    }
    OS << "\n]}\n";
  }

  std::map<std::string, double> SelfNs;
  double Bookkeeping = 0;
  int NumOps = 0;
  std::vector<Span> Spans;

private:
  struct LeafRec {
    int Span;
    size_t Before, After;
  };

  void derive(int Id, const std::string &Layer, double Ns, uint64_t &Cursor) {
    if (Ns <= 0)
      return;
    SelfNs[Layer] += Ns;
    Span D{Layer, Layer, Cursor, Cursor + uint64_t(Ns), Id, Spans[Id].Op,
           true};
    Cursor += uint64_t(Ns);
    Spans.push_back(std::move(D));
  }

  /// Splits a leaf span among layers by the Stats timer deltas it
  /// caused; what no timer covers is the leaf's own layer.  Nesting in
  /// the library: lexer.lex runs inside parser.parse and inside
  /// scanHeader (which loadFile calls); server.{check,run,eval,load}
  /// wrap the compiling part of Session calls, so for a
  /// Protocol::handleLine leaf (layer server.json) the rest of the
  /// request is JSON, dispatch and artifact-cache lookups.
  void attribute(int Id, const Timers &A, const Timers &B) {
    double D = double(Spans[Id].End - Spans[Id].Start);
    uint64_t Cursor = Spans[Id].Start;
    // Every parse lexes its buffer once; lexing beyond that is header
    // scanning (loadFile scans each file's header).  When one call does
    // both, the lex time is split by call counts.
    double Lex = dT(A, B, "lexer.lex");
    double Parse = dT(A, B, "parser.parse");
    uint64_t LexCalls = dCalls(A, B, "lexer.lex");
    uint64_t ParseCalls = dCalls(A, B, "parser.parse");
    double InParse =
        LexCalls == 0 ? 0
                      : Lex * double(std::min(LexCalls, ParseCalls)) / LexCalls;
    std::string Home = Spans[Id].Layer;
    std::vector<std::pair<std::string, double>> Parts = {
        {"syntax.header_scan", Lex - InParse},
        {"syntax.lex", InParse},
        {"syntax.parse", std::max(0.0, Parse - InParse)},
        {"core.check", dT(A, B, "checker.check")},
        {"systemf.verify", dT(A, B, "frontend.verify")},
        {"systemf.optimize", dT(A, B, "optimize.specialize")},
        {"systemf.eval", dT(A, B, "eval.run")},
        {"vm.emit", dT(A, B, "vm.compile")},
        {"vm.run", dT(A, B, "vm.run")},
        {"modules.instantiate", dT(A, B, "modules.instantiate")},
        {"modules.serialize", dT(A, B, "modules.serialize")},
        {"aot.emit", dT(A, B, "aot.emit")},
        {"aot.host_compile", dT(A, B, "aot.compile")},
        {"aot.run", dT(A, B, "aot.run")},
    };
    double Inner = 0;
    for (auto &[L, Ns] : Parts)
      Inner += Ns;
    if (Home == "server.json") {
      double Session = dT(A, B, "server.check") + dT(A, B, "server.run") +
                       dT(A, B, "server.eval") + dT(A, B, "server.load");
      Session = std::max(Session, Inner);
      Parts.push_back({"server.session", Session - Inner});
      Parts.push_back({"server.json", std::max(0.0, D - Session)});
    } else {
      Parts.push_back({Home, std::max(0.0, D - Inner)});
    }
    for (auto &[L, Ns] : Parts)
      derive(Id, L, Ns, Cursor);
  }

  bool On;
  double OpBookkeeping = 0;
  double OpChildNs = 0;
  std::vector<Timers> Snaps;
  std::vector<LeafRec> Leaves;
};

/// Reports the traced pass: layer self times (ms, totals over the
/// pass), the reconciliation against the pass's wall time, and the
/// tracing overhead against an untraced replay.
void reportTrace(Report &O, const Tracer &T, double TracedWallNs,
                 double UntracedWallNs) {
  double Sum = 0;
  for (const char *L : Layers) {
    double Ns = T.SelfNs.at(L);
    Sum += Ns;
    std::string Name = L;
    if (Name == "aot.host_compile")
      O.num("aot.host_compile_s", Ns / 1e9);
    else if (Name == "server.json")
      continue; // Reported per request by the daemon pass.
    else
      O.num(Name + "_ms", Ns / 1e6);
  }
  O.num("trace.ops", T.NumOps);
  O.num("trace.wall_ms", TracedWallNs / 1e6);
  O.num("trace.untraced_wall_ms", UntracedWallNs / 1e6);
  O.num("trace.overhead_ms", (TracedWallNs - UntracedWallNs) / 1e6);
  O.num("trace.bookkeeping_ms", T.Bookkeeping / 1e6);
  O.num("trace.reconcile_pct",
        100.0 * std::fabs(Sum - TracedWallNs) / TracedWallNs);
}

/// Count metrics shared by every traced pass, from counter deltas.
void reportCounts(Report &O, const Snap &A, const Snap &B) {
  auto Pct = [&](const char *Hits, const char *Misses) {
    double H = dC(A, B, Hits), M = dC(A, B, Misses);
    return H + M == 0 ? 0.0 : 100.0 * H / (H + M);
  };
  O.num("syntax.tokens", dC(A, B, "lexer.tokens"));
  O.num("modules.instantiate_calls",
        dCalls(A.T, B.T, "modules.instantiate"));
  O.num("core.model_resolutions", dC(A, B, "checker.model_resolutions"));
  O.num("core.model_cache_hit_pct",
        Pct("checker.model_cache.hits", "checker.model_cache.misses"));
  O.num("core.congruence_queries", dC(A, B, "congruence.queries"));
  O.num("systemf.eval_steps", dC(A, B, "eval.steps"));
  O.num("vm.instructions_emitted", dC(A, B, "vm.instructions.emitted"));
  O.num("vm.instructions_executed", dC(A, B, "vm.instructions"));
  O.num("vm.ic_hit_pct", Pct("vm.ic.hits", "vm.ic.misses"));
  O.num("server.cache_hit_pct",
        Pct("server.artifact_cache.hits", "server.artifact_cache.misses"));
}

/// The one-time cost paid by whichever engine runs first in a process:
/// the first evaluation of a literal minus the second.  Must run before
/// anything else evaluates.
double firstRunMs() {
  Frontend FE;
  CompileOutput Out = FE.compile("<probe>", "1");
  uint64_t T0 = nowNs();
  FE.run(Out);
  uint64_t T1 = nowNs();
  FE.run(Out);
  uint64_t T2 = nowNs();
  return (double(T1 - T0) - double(T2 - T1)) / 1e6;
}

/// Median wall time of `fgc --help`: process startup with no work.
double startupMs(const std::string &Fgc) {
  std::vector<double> V;
  for (int I = 0; I < 15; ++I)
    V.push_back(childMs({Fgc, "--help"}));
  return median(V);
}

//===----------------------------------------------------------------------===//
// Programs compiled the way fgc compiles them
//===----------------------------------------------------------------------===//

/// One program loaded through the driver's path: header scan, then the
/// module loader (load + link + compileTerm) or a plain compile.
struct Compiled {
  std::unique_ptr<Frontend> FE;
  CompileOutput Out;
  std::string Error; ///< Rendered diagnostics when compilation failed.
};

Compiled compileLikeFgc(Tracer &T, int Op, const std::string &Path,
                        const std::vector<std::string> &SearchPaths,
                        bool Verify) {
  Compiled C;
  C.FE = std::make_unique<Frontend>();
  Frontend &FE = *C.FE;
  std::string Source = readFile(Path);
  CompileOptions Opts;
  Opts.VerifyTranslation = Verify;
  ModuleHeader Header;
  std::string Error;
  bool Ok = true;
  T.leaf(Op, "ModuleLoader::scanHeader", "syntax.header_scan", [&] {
    Ok = modules::ModuleLoader::scanHeader(Path, Source, Header, Error);
  });
  if (!Ok) {
    C.Error = Error;
    return C;
  }
  if (Header.HasModuleDecl || !Header.Imports.empty()) {
    modules::ModuleLoader::Options LO;
    LO.SearchPaths = SearchPaths;
    modules::ModuleLoader Loader(LO);
    std::string Root;
    T.leaf(Op, "ModuleLoader::loadFile", "modules.load",
           [&] { Ok = Loader.loadFile(Path, Root, Error); });
    const Term *Program = nullptr;
    if (Ok)
      T.leaf(Op, "ModuleLoader::link", "modules.link",
             [&] { Program = Loader.link(FE, Root, Error); });
    if (!Program) {
      C.Error = Error + "\n" + FE.getDiags().render();
      return C;
    }
    T.leaf(Op, "Frontend::compileTerm", "core.check",
           [&] { C.Out = FE.compileTerm(Program, Opts); });
  } else {
    T.leaf(Op, "Frontend::compile", "core.check",
           [&] { C.Out = FE.compile(Path, Source, Opts); });
  }
  if (!C.Out.Success)
    C.Error = FE.getDiags().render();
  return C;
}

std::vector<std::string> searchPaths(const Json &M) {
  std::vector<std::string> V;
  if (const Json *S = M.find("search"))
    for (const Json &E : S->elements())
      V.push_back(E.asString());
  return V;
}

//===----------------------------------------------------------------------===//
// refs
//===----------------------------------------------------------------------===//

int modeRefs(const Json &M) {
  std::vector<std::string> Search = searchPaths(M);
  Tracer Off(false);
  std::string Values = "{";
  bool First = true;
  for (const Json &P : member(M, "programs").elements()) {
    Compiled C = compileLikeFgc(Off, -1, P.asString(), Search, true);
    if (!C.Out.Success)
      die("reference compile failed for " + P.asString() + ": " + C.Error);
    interp::EvalResult D = C.FE->runDirect(C.Out);
    if (!D.ok())
      die("direct interpreter failed on " + P.asString() + ": " + D.Error);
    Values += std::string(First ? "" : ", ") + "\"" +
              server::jsonEscape(P.asString()) + "\": \"" +
              server::jsonEscape(interp::valueToString(D.Val)) + "\"";
    First = false;
  }
  Report O;
  O.raw("values", Values + "}");
  O.print();
  return 0;
}

//===----------------------------------------------------------------------===//
// engines
//===----------------------------------------------------------------------===//

enum Engine { Tree, Vm, VmO2, Aot, NumEngines };
const char *const EngineNames[] = {"tree", "vm", "vm.O2", "aot"};

struct EngineProgram {
  std::string Name, Path, Expected;
  bool WithAot = false;
  Compiled C;
  std::shared_ptr<const vm::Chunk> Chunk, ChunkO2;
  sf::OptimizeStats OptStats;
};

struct EngineSetup {
  std::vector<EngineProgram> Programs;
  aot::ToolchainOptions Toolchain;
  long long AotRepeat = 1;
};

/// Compiles every program once: front end, -O2 specialization, VM
/// emission at -O0 and -O2, and the host compile of the AOT binaries
/// into a fresh cache (in parallel, at most one thread per program).
void setupEngines(Tracer &T, const Json &M, EngineSetup &S) {
  std::vector<std::string> Search = searchPaths(M);
  S.Programs.clear();
  S.Toolchain.CacheDir = str(M, "aot_cache");
  S.AotRepeat = member(M, "aot_repeat").asInt();
  std::error_code EC;
  fs::remove_all(S.Toolchain.CacheDir, EC);
  for (const Json &P : member(M, "programs").elements()) {
    EngineProgram E;
    E.Name = str(P, "name");
    E.Path = str(P, "path");
    E.Expected = str(P, "expected");
    E.WithAot = member(P, "aot").asBool();
    int Op = T.beginOp("setup " + E.Name);
    E.C = compileLikeFgc(T, Op, E.Path, Search, false);
    if (!E.C.Out.Success)
      die("engines: " + E.Name + " does not compile: " + E.C.Error);
    Frontend &FE = *E.C.FE;
    sf::OptimizeOptions OO;
    OO.Specialize = sf::SpecializeLevel::Full;
    T.leaf(Op, "Frontend::optimize", "systemf.optimize",
           [&] { FE.optimize(E.C.Out, &E.OptStats, OO); });
    T.leaf(Op, "vm::compile", "vm.emit", [&] {
      E.Chunk = vm::compile(E.C.Out.SfTerm, FE.getPrelude());
    });
    T.leaf(Op, "vm::compile -O2", "vm.emit", [&] {
      E.ChunkO2 = vm::compile(E.C.Out.SfOptimized, FE.getPrelude());
    });
    if (!E.Chunk || !E.ChunkO2)
      die("engines: " + E.Name + " does not compile to bytecode");
    T.endOp(Op);
    S.Programs.push_back(std::move(E));
  }
  // Host compiles dominate set-up; they run concurrently, one thread per
  // AOT program, outside any leaf (the tracer is single-threaded), and
  // the aot.* timers apportion their wall time afterwards.
  std::vector<std::thread> Threads;
  std::vector<std::string> Errors(S.Programs.size());
  Snap A = snap();
  uint64_t T0 = nowNs();
  for (size_t I = 0; I < S.Programs.size(); ++I) {
    EngineProgram &E = S.Programs[I];
    if (!E.WithAot)
      continue;
    Threads.emplace_back([&S, &E, &Err = Errors[I]] {
      aot::RunInfo Info;
      sf::EvalResult R =
          aot::runAot(E.C.Out.SfOptimized, E.C.FE->getPrelude(),
                      sf::EvalOptions(), S.Toolchain, &Info);
      if (!R.ok())
        Err = R.Error;
      else if (sf::valueToString(R.Val) != E.Expected)
        Err = "value " + sf::valueToString(R.Val);
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  if (T.enabled()) {
    // Reported as one operation: wall time split by the busy share of
    // each AOT phase across the compiling threads.
    Snap B = snap();
    uint64_t T1 = nowNs();
    int Op = T.beginOp("setup aot");
    double Wall = double(T1 - T0);
    double Emit = dT(A, B, "aot.emit"), Comp = dT(A, B, "aot.compile"),
           Run = dT(A, B, "aot.run");
    double Busy = std::max(1.0, Emit + Comp + Run);
    T.SelfNs["aot.emit"] += Wall * Emit / Busy;
    T.SelfNs["aot.host_compile"] += Wall * Comp / Busy;
    T.SelfNs["aot.run"] += Wall * Run / Busy;
    T.Spans[Op].Start = T0;
    T.Spans[Op].End = T1;
    T.Spans.push_back({"aot host compiles", "aot.host_compile", T0, T1, Op,
                       T.Spans[Op].Op, true});
    T.resync();
  }
  for (size_t I = 0; I < Errors.size(); ++I)
    if (!Errors[I].empty())
      die("engines: aot leg of " + S.Programs[I].Name + ": " + Errors[I]);
}

/// One timed run of \p P on \p E.  Returns the run time in ns, or a
/// negative value when the value differs from the reference.
double runEngine(Tracer &T, int Op, EngineSetup &S, EngineProgram &P,
                 Engine E) {
  sf::EvalResult R;
  double Ns = 0;
  Frontend &FE = *P.C.FE;
  uint64_t T0 = nowNs();
  switch (E) {
  case Tree:
    T.leaf(Op, "Frontend::run", "systemf.eval", [&] { R = FE.run(P.C.Out); });
    break;
  case Vm:
    T.leaf(Op, "VM::run", "vm.run", [&] { R = vm::VM().run(P.Chunk); });
    break;
  case VmO2:
    T.leaf(Op, "VM::run -O2", "vm.run", [&] { R = vm::VM().run(P.ChunkO2); });
    break;
  case Aot: {
    aot::RunInfo Info;
    T.leaf(Op, "aot::runAot", "aot.run", [&] {
      R = aot::runAot(P.C.Out.SfOptimized, FE.getPrelude(), sf::EvalOptions(),
                      S.Toolchain, &Info, S.AotRepeat);
    });
    Ns = double(Info.BenchNsPerRun);
    if (!Info.CacheHit)
      Ns = -1;
    break;
  }
  default:
    break;
  }
  if (E != Aot)
    Ns = double(nowNs() - T0);
  if (!R.ok() || sf::valueToString(R.Val) != P.Expected)
    return -1;
  return Ns;
}

/// Seeded round-robin over every (program, engine) pair.
std::vector<std::pair<size_t, Engine>> enginePairs(const EngineSetup &S) {
  std::vector<std::pair<size_t, Engine>> Pairs;
  for (size_t I = 0; I < S.Programs.size(); ++I)
    for (int E = 0; E < NumEngines; ++E)
      if (E != Aot || S.Programs[I].WithAot)
        Pairs.push_back({I, Engine(E)});
  return Pairs;
}

int modeEngines(const Json &M) {
  double Seconds = member(M, "seconds").asDouble();
  std::mt19937_64 Rng(member(M, "seed").asInt());
  Tracer Off(false);
  EngineSetup S;
  std::vector<double> SetupS;
  std::vector<std::pair<size_t, Engine>> Pairs;
  // Run times (ms) per (program, engine), and one window per round.
  std::vector<std::vector<double>> Times;
  std::vector<double> WindowS, WindowOps;
  long Attempted = 0, Failed = 0;
  // The run is `setup_reps` equal slices, each after a fresh set-up, so
  // set-ups are sampled across the run in the machine state the runs
  // see rather than back to back at its start.
  int Reps = int(member(M, "setup_reps").asInt());
  for (int Rep = 0; Rep < Reps; ++Rep) {
    uint64_t T0 = nowNs();
    setupEngines(Off, M, S);
    SetupS.push_back((nowNs() - T0) / 1e9);
    if (Rep == 0) {
      Pairs = enginePairs(S);
      Times.resize(S.Programs.size() * NumEngines);
    }
    uint64_t Start = nowNs();
    do {
      std::shuffle(Pairs.begin(), Pairs.end(), Rng);
      uint64_t W0 = nowNs();
      for (auto [I, E] : Pairs) {
        double Ns = runEngine(Off, -1, S, S.Programs[I], E);
        ++Attempted;
        if (Ns < 0)
          ++Failed;
        else
          Times[I * NumEngines + E].push_back(Ns / 1e6);
      }
      WindowS.push_back((nowNs() - W0) / 1e9);
      WindowOps.push_back(double(Pairs.size()));
    } while ((nowNs() - Start) / 1e9 < Seconds / Reps);
  }
  std::string Kinds = "{";
  for (auto [I, E] : Pairs) {
    std::ostringstream SS;
    SS.precision(9);
    SS << (Kinds.size() > 1 ? ", \"" : "\"") << S.Programs[I].Name << " "
       << EngineNames[E] << "\": [";
    const std::vector<double> &V = Times[I * NumEngines + E];
    for (size_t K = 0; K < V.size(); ++K)
      SS << (K ? "," : "") << V[K];
    Kinds += SS.str() + "]";
  }
  Kinds += "}";
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  Report O;
  O.list("setup_s", SetupS);
  O.raw("kinds", Kinds);
  O.list("window_s", WindowS);
  O.list("window_ops", WindowOps);
  O.num("attempted", Attempted);
  O.num("failed", Failed);
  O.num("peak_rss_mb", RU.ru_maxrss / 1024.0);
  O.print();
  return 0;
}

/// Traced engines pass: set-up spans, then a fixed number of rounds.
void traceEngines(const Json &M, Tracer &T, Report &O, long &Attempted,
                  long &Failed, std::function<void()> &Post) {
  auto SP = std::make_shared<EngineSetup>();
  EngineSetup &S = *SP;
  setupEngines(T, M, S);
  auto Pairs = enginePairs(S);
  std::mt19937_64 Rng(member(M, "seed").asInt());
  std::vector<std::vector<double>> Times(S.Programs.size() * NumEngines);
  for (int Round = 0; Round < member(M, "trace_rounds").asInt(); ++Round) {
    std::shuffle(Pairs.begin(), Pairs.end(), Rng);
    for (auto [I, E] : Pairs) {
      int Op = T.beginOp(S.Programs[I].Name + " " + EngineNames[E]);
      double Ns = runEngine(T, Op, S, S.Programs[I], E);
      T.endOp(Op);
      ++Attempted;
      if (Ns < 0)
        ++Failed;
      else
        Times[I * NumEngines + E].push_back(Ns / 1e6);
    }
  }
  if (!T.enabled())
    return;
  // Per engine: geometric mean over programs of each program's median.
  double Med[NumEngines] = {};
  double SpeedVm = 0, SpeedAot = 0;
  {
    std::vector<double> PerEngine[NumEngines], VmRatio, AotRatio;
    for (size_t I = 0; I < S.Programs.size(); ++I) {
      double M4[NumEngines];
      for (int E = 0; E < NumEngines; ++E) {
        M4[E] = median(Times[I * NumEngines + E]);
        if (M4[E] > 0)
          PerEngine[E].push_back(M4[E]);
      }
      if (M4[Vm] > 0)
        VmRatio.push_back(M4[Tree] / M4[Vm]);
      if (M4[Aot] > 0)
        AotRatio.push_back(M4[VmO2] / M4[Aot]);
    }
    for (int E = 0; E < NumEngines; ++E)
      Med[E] = geomean(PerEngine[E]);
    SpeedVm = 100 * geomean(VmRatio);
    SpeedAot = 100 * geomean(AotRatio);
  }
  for (int E = 0; E < NumEngines; ++E)
    O.num(std::string("run_ms.") + EngineNames[E], Med[E]);
  O.num("vm.speedup_vs_tree_pct", SpeedVm);
  O.num("aot.speedup_vs_vm_pct", SpeedAot);
  double Nodes = 0;
  for (EngineProgram &P : S.Programs)
    Nodes += P.OptStats.NodesAfter;
  O.num("systemf.nodes_after_O2", Nodes);
  Post = [SP, &O] {
    double CppBytes = 0;
    for (EngineProgram &P : SP->Programs)
      if (P.WithAot)
        CppBytes += aot::emitCpp(P.C.Out.SfOptimized, P.C.FE->getPrelude())
                        .Cpp.size();
    O.num("aot.cpp_bytes", CppBytes);
  };
}

//===----------------------------------------------------------------------===//
// cli-programs (traced only; the untraced workload spawns fgc)
//===----------------------------------------------------------------------===//

/// Whether \p C's outcome matches a cli-programs reference: a value, a
/// type, or an error substring.
bool matches(const Json &Expect, const Compiled &C, const sf::EvalResult *R) {
  if (const Json *Err = Expect.find("error"))
    return !C.Out.Success &&
           C.Error.find(Err->asString()) != std::string::npos;
  if (!C.Out.Success || !R || !R->ok())
    return false;
  if (const Json *Ty = Expect.find("type"))
    if (typeToString(C.Out.FgType) != Ty->asString())
      return false;
  return sf::valueToString(R->Val) == str(Expect, "value");
}

/// One in-process `fgc --backend=<tree|vm> <file>`, teardown included.
/// Each operation also re-checks the translation in System F, which
/// fgc skips in release builds and the daemon pays: that is how the
/// pass measures verification next to the rest of the front end.
bool cliOp(Tracer &T, int Id, const Json &Op,
           const std::vector<std::string> &Search) {
  std::string Path = str(Op, "path"), Backend = str(Op, "backend");
  Compiled C = compileLikeFgc(T, Id, Path, Search, false);
  if (!C.Out.Success)
    return matches(member(Op, "expect"), C, nullptr);
  sf::EvalResult R;
  if (Backend == "vm") {
    std::shared_ptr<const vm::Chunk> Chunk;
    T.leaf(Id, "vm::compile", "vm.emit", [&] {
      Chunk = vm::compile(C.Out.SfTerm, C.FE->getPrelude());
    });
    T.leaf(Id, "VM::run", "vm.run", [&] { R = vm::VM().run(Chunk); });
  } else {
    T.leaf(Id, "Frontend::run", "systemf.eval", [&] { R = C.FE->run(C.Out); });
  }
  bool Verified = false;
  T.leaf(Id, "sf::TypeChecker::check", "systemf.verify", [&] {
    sf::TypeChecker Checker(C.FE->getSfContext());
    Verified = Checker.check(C.Out.SfTerm, C.FE->getPrelude().Types);
  });
  return Verified && matches(member(Op, "expect"), C, &R);
}

void traceCli(const Json &M, Tracer &T, long &Attempted, long &Failed) {
  std::vector<std::string> Search = searchPaths(M);
  for (int Pass = 0; Pass < member(M, "trace_passes").asInt(); ++Pass)
    for (const Json &Op : member(M, "ops").elements()) {
      int Id = T.beginOp("fgc --backend=" + str(Op, "backend") + " " +
                         str(Op, "path"));
      bool Ok = cliOp(T, Id, Op, Search);
      T.endOp(Id);
      ++Attempted;
      Failed += !Ok;
    }
}

//===----------------------------------------------------------------------===//
// corpus (traced only; the untraced workload spawns fgc)
//===----------------------------------------------------------------------===//

/// Restores the unedited corpus and an empty interface cache.
void prepareCorpus(const Json &M) {
  std::string Dir = str(M, "corpus_dir"), Pristine = str(M, "pristine_dir");
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::remove_all(str(M, "fgi_dir"), EC);
  fs::copy(Pristine, Dir, EC);
  if (EC)
    die("corpus: cannot copy " + Pristine);
}

void traceCorpus(const Json &M, Tracer &T, Report &O, long &Attempted,
                 long &Failed, Snap &RoundsBegin, Snap &RoundsEnd,
                 int &Rounds, std::function<void()> &Post) {
  std::string Dir = str(M, "corpus_dir"), Cache = str(M, "fgi_dir");
  std::string RootPath = str(M, "root_path"), Expected = str(M, "expected");
  std::vector<std::string> Files;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".fg")
      Files.push_back(E.path().string());
  std::sort(Files.begin(), Files.end());

  modules::BatchOptions BO;
  BO.Jobs = 1; // One worker, so phase timers partition the wall time.
  BO.CacheDir = Cache;
  fs::create_directories(Cache);
  BO.Verify = false; // As `fgc --batch` in release builds.
  auto Build = [&](int Op, unsigned MaxChecked) {
    modules::ModuleLoader Loader;
    std::vector<std::string> Roots;
    bool Ok = true;
    T.leaf(Op, "ModuleLoader::loadFile", "modules.load", [&] {
      for (const std::string &F : Files) {
        std::string Root, Error;
        Ok &= Loader.loadFile(F, Root, Error);
        Roots.push_back(Root);
      }
    });
    modules::BatchResult BR;
    T.leaf(Op, "modules::runBatch", "modules.batch",
           [&] { BR = modules::runBatch(Loader, Roots, BO); });
    unsigned Checked = 0;
    for (const auto &R : BR.Results)
      Checked += R.Success && !R.CacheHit;
    // Rechecking fewer modules than the invalidated cone is a gain
    // (modules.rechecked_per_edit shows it), not a failure.
    ++Attempted;
    if (!Ok || !BR.Success || Checked > MaxChecked)
      ++Failed;
  };

  int Op = T.beginOp("cold build");
  Build(Op, unsigned(Files.size()));
  T.endOp(Op);
  RoundsBegin = snap();
  for (const Json &E : member(M, "edits").elements()) {
    Op = T.beginOp("edit " + str(E, "path"));
    {
      std::ofstream F(str(E, "path"), std::ios::app);
      F << "// edit\n";
    }
    Build(Op, unsigned(member(E, "cone").asInt()));
    bool Ok = false;
    {
      Compiled C = compileLikeFgc(T, Op, RootPath, {}, false);
      sf::EvalResult R;
      if (C.Out.Success)
        T.leaf(Op, "Frontend::run", "systemf.eval",
               [&] { R = C.FE->run(C.Out); });
      Ok = R.ok() && sf::valueToString(R.Val) == Expected;
    }
    T.endOp(Op);
    ++Attempted;
    ++Rounds;
    Failed += !Ok;
  }
  RoundsEnd = snap();
  // The widest wavefront of a cold build with fgc's two workers.
  Post = [&M, &O, Files] {
    modules::ModuleLoader Loader;
    std::vector<std::string> Roots;
    for (const std::string &F : Files) {
      std::string Root, Error;
      Loader.loadFile(F, Root, Error);
      Roots.push_back(Root);
    }
    modules::BatchOptions BO;
    BO.Jobs = 2;
    BO.Verify = false;
    BO.CacheDir = str(M, "fgi_dir") + "-j2";
    std::error_code EC;
    fs::remove_all(BO.CacheDir, EC);
    fs::create_directories(BO.CacheDir);
    O.num("modules.wavefront_max_width",
          modules::runBatch(Loader, Roots, BO).MaxWavefront);
  };
}

//===----------------------------------------------------------------------===//
// daemon
//===----------------------------------------------------------------------===//

/// One connection's endless request stream: a cycle of blocks, each a
/// list of request templates.  `@N@` in a template becomes a counter
/// unique to the connection, which makes that request a cache miss.
struct Stream {
  struct Req {
    std::string Line;
    Json Expect;
    std::string Kind;
  };
  std::vector<Req> Reqs;
  size_t Next = 0;
  uint64_t Counter = 0;

  /// The next request line and the request it came from.
  std::pair<std::string, const Req *> next() {
    const Req &R = Reqs[Next];
    Next = (Next + 1) % Reqs.size();
    std::string Line = R.Line;
    for (size_t P; (P = Line.find("@N@")) != std::string::npos;)
      Line.replace(P, 3, std::to_string(Counter));
    ++Counter;
    return {Line, &R};
  }
};

std::vector<Stream> loadStreams(const Json &M) {
  std::vector<Stream> S;
  for (const Json &C : member(M, "connections").elements()) {
    Stream St;
    St.Counter = member(C, "counter_base").asInt();
    for (const Json &R : member(C, "requests").elements())
      St.Reqs.push_back({str(R, "line"), member(R, "expect"), str(R, "kind")});
    S.push_back(std::move(St));
  }
  return S;
}

/// Whether a response line satisfies a request's expectation.
bool responseOk(const std::string &Line, const Json &Expect) {
  Json R;
  std::string Err;
  if (!Json::parse(Line, R, Err) || !R.boolOr("ok", false))
    return false;
  const Json *Res = R.find("result");
  if (!Res || !Res->boolOr("success", false))
    return false;
  for (const auto &[K, V] : Expect.members())
    if (Res->stringOr(K, "\x01") != V.asString())
      return false;
  return true;
}

int connectTo(const std::string &Path) {
  int Fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0) {
    close(Fd);
    return -1;
  }
  return Fd;
}

/// A line-oriented client over one socket.
class Conn {
public:
  explicit Conn(int Fd) : Fd(Fd) {}
  ~Conn() {
    if (Fd >= 0)
      close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool roundTrip(const std::string &Line, std::string &Reply) {
    std::string Msg = Line + "\n";
    for (size_t Off = 0; Off < Msg.size();) {
      ssize_t N = write(Fd, Msg.data() + Off, Msg.size() - Off);
      if (N <= 0)
        return false;
      Off += size_t(N);
    }
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Reply = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      char Tmp[65536];
      ssize_t N = read(Fd, Tmp, sizeof Tmp);
      if (N <= 0)
        return false;
      Buf.append(Tmp, size_t(N));
    }
  }

private:
  int Fd;
  std::string Buf;
};

/// Confines this process, and every thread and child it starts
/// afterwards, to the first two CPUs it may use.  The daemon's closed
/// loop has at most two runnable threads at a time (a client or the
/// worker serving it, per connection); sharing two CPUs makes each
/// round trip a context switch instead of waking an idle virtual CPU,
/// whose cost follows the host's load rather than fgcd's.
void pinToTwoCpus() {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof Allowed, &Allowed) != 0 ||
      CPU_COUNT(&Allowed) < 2)
    return;
  cpu_set_t Two;
  CPU_ZERO(&Two);
  for (int C = 0, N = 0; C < CPU_SETSIZE && N < 2; ++C)
    if (CPU_ISSET(C, &Allowed)) {
      CPU_SET(C, &Two);
      ++N;
    }
  sched_setaffinity(0, sizeof Two, &Two);
}

/// An fgcd child serving a socket in the current directory.
class Daemon {
public:
  Daemon(const std::string &Fgcd, const std::vector<std::string> &Search,
         const std::string &Sock = "fgcd.sock")
      : Sock(Sock) {
    std::vector<std::string> Argv = {Fgcd, "--socket", Sock, "--threads",
                                     "2"};
    for (const std::string &S : Search) {
      Argv.push_back("-I");
      Argv.push_back(S);
    }
    int Pipe[2];
    if (pipe2(Pipe, O_CLOEXEC) != 0)
      die("cannot create a pipe for fgcd");
    Pid = spawn(Argv, Pipe[1]);
    close(Pipe[1]);
    Log = Pipe[0];
    // fgcd says on stderr when it listens.  Blocking on that line times
    // its start-up exactly, where polling the socket would add up to one
    // polling interval to every set-up.
    std::string Out;
    char Ch;
    while (Out.find("listening on") == std::string::npos &&
           read(Log, &Ch, 1) == 1)
      Out += Ch;
    int Fd = connectTo(Sock);
    if (Fd >= 0) {
      Conn C(Fd);
      std::string Reply;
      if (C.roundTrip("{\"id\":0,\"method\":\"version\"}", Reply))
        return;
    }
    stop();
    die("fgcd did not come up: " + Out);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Asks the daemon to shut down and reaps it; returns its peak RSS.
  /// The read end of fgcd's output pipe stays open until then, so a
  /// late diagnostic cannot kill it with SIGPIPE.
  long stop() {
    if (Pid < 0)
      return MaxRssKb;
    MaxRssKb = reap();
    Pid = -1;
    close(Log);
    return MaxRssKb;
  }

  std::string Sock;

private:
  long reap() {
    int Fd = connectTo(Sock);
    if (Fd >= 0) {
      Conn C(Fd);
      std::string Reply;
      C.roundTrip("{\"id\":0,\"method\":\"shutdown\"}", Reply);
    }
    for (int I = 0; I < 500; ++I) {
      int Status;
      struct rusage RU;
      if (wait4(Pid, &Status, WNOHANG, &RU) == Pid)
        return RU.ru_maxrss;
      usleep(10000);
    }
    kill(Pid, SIGKILL);
    struct rusage RU;
    int Status;
    wait4(Pid, &Status, 0, &RU);
    return RU.ru_maxrss;
  }

  pid_t Pid = -1;
  int Log = -1;
  long MaxRssKb = 0;
};

int modeDaemon(const Json &M) {
  pinToTwoCpus();
  double Seconds = member(M, "seconds").asDouble();
  std::vector<std::string> Search = searchPaths(M);
  std::string Fgcd = str(M, "fgcd");
  std::vector<double> SetupS;
  std::vector<Stream> Streams = loadStreams(M);
  std::vector<std::map<std::string, std::vector<double>>> Lat(
      Streams.size());
  std::vector<std::vector<double>> End(Streams.size());
  std::vector<long> Att(Streams.size()), Fail(Streams.size());
  // One fgcd serves the whole run, which is `setup_reps` equal slices.
  // Its start-up is the first set-up; between slices the connections
  // pause while a second fgcd is started and stopped, so start-ups are
  // sampled across the run in the machine state the requests see.
  // Every slice replays each stream from its first request (a reset) on
  // a new connection, and its completion times continue the previous
  // slice's clock.
  uint64_t Boot = nowNs();
  Daemon D(Fgcd, Search);
  SetupS.push_back((nowNs() - Boot) / 1e9);
  int Reps = int(member(M, "setup_reps").asInt());
  double Slice = Seconds / Reps;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    if (Rep > 0) {
      uint64_t Boot = nowNs();
      Daemon Probe(Fgcd, Search, "fgcd-setup.sock");
      SetupS.push_back((nowNs() - Boot) / 1e9);
    }
    double Offset = Rep * Slice;
    uint64_t Start = nowNs(), Deadline = Start + uint64_t(Slice * 1e9);
    std::vector<std::thread> Threads;
    for (size_t I = 0; I < Streams.size(); ++I)
      Threads.emplace_back([&, I] {
        Streams[I].Next = 0;
        int Fd = connectTo(D.Sock);
        if (Fd < 0) {
          ++Fail[I];
          return;
        }
        Conn C(Fd);
        std::string Reply;
        while (nowNs() < Deadline) {
          auto [Line, Req] = Streams[I].next();
          uint64_t T0 = nowNs();
          bool Ok = C.roundTrip(Line, Reply);
          uint64_t T1 = nowNs();
          Lat[I][Req->Kind].push_back((T1 - T0) / 1e6);
          End[I].push_back(Offset +
                           std::min(Slice - 1e-6, (T1 - Start) / 1e9));
          ++Att[I];
          if (!Ok || !responseOk(Reply, Req->Expect))
            ++Fail[I];
          if (!Ok)
            return;
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  long Rss = D.stop();
  double Elapsed = Seconds;
  // Round-trip times (ms) per request kind, over both connections.
  std::map<std::string, std::vector<double>> ByKind;
  std::vector<double> Ends;
  long Attempted = 0, Failed = 0;
  for (size_t I = 0; I < Streams.size(); ++I) {
    for (auto &[K, V] : Lat[I])
      ByKind[K].insert(ByKind[K].end(), V.begin(), V.end());
    Ends.insert(Ends.end(), End[I].begin(), End[I].end());
    Attempted += Att[I];
    Failed += Fail[I];
  }
  std::string Kinds = "{";
  for (auto &[K, V] : ByKind) {
    Report R;
    R.list(K, V);
    Kinds += (Kinds.size() > 1 ? ", " : "") + R.body();
  }
  Kinds += "}";
  Report O;
  O.list("setup_s", SetupS);
  O.raw("kinds", Kinds);
  O.list("end_s", Ends);
  O.num("elapsed_s", Elapsed);
  O.num("attempted", Attempted);
  O.num("failed", Failed);
  O.num("peak_rss_mb", Rss / 1024.0);
  O.print();
  return 0;
}

/// The fixed traced request sequence: the streams' first requests,
/// interleaved one by one across connections.
std::vector<std::pair<size_t, std::pair<std::string, const Stream::Req *>>>
daemonSequence(std::vector<Stream> &Streams, long PerConn) {
  std::vector<std::pair<size_t, std::pair<std::string, const Stream::Req *>>> Seq;
  for (long K = 0; K < PerConn; ++K)
    for (size_t I = 0; I < Streams.size(); ++I)
      Seq.push_back({I, Streams[I].next()});
  return Seq;
}

void traceDaemon(const Json &M, Tracer &T, Report &O, long &Attempted,
                 long &Failed, std::function<void()> &Post) {
  auto Streams = std::make_shared<std::vector<Stream>>(loadStreams(M));
  auto Seq = std::make_shared<
      std::vector<std::pair<size_t, std::pair<std::string, const Stream::Req *>>>>(
      daemonSequence(*Streams, member(M, "trace_requests").asInt()));
  auto Cache = std::make_shared<server::ArtifactCache>();
  server::Session::Options SO;
  SO.SearchPaths = searchPaths(M);
  std::vector<std::unique_ptr<server::Session>> Sessions;
  std::vector<std::unique_ptr<server::Protocol>> Protocols;
  for (size_t I = 0; I < Streams->size(); ++I) {
    Sessions.push_back(std::make_unique<server::Session>(Cache, SO));
    Protocols.push_back(std::make_unique<server::Protocol>(*Sessions[I]));
  }
  double InProcessNs = 0;
  for (auto &[I, Req] : *Seq) {
    int Op = T.beginOp("request");
    server::Protocol::Reply R;
    uint64_t T0 = nowNs();
    T.leaf(Op, "Protocol::handleLine", "server.json",
           [&] { R = Protocols[I]->handleLine(Req.first); });
    InProcessNs += double(nowNs() - T0);
    T.endOp(Op);
    ++Attempted;
    if (!responseOk(R.Line, Req.second->Expect))
      ++Failed;
  }
  if (!T.enabled())
    return;
  // Transport: the same sequence over sockets to a fresh daemon, one
  // request at a time, minus the in-process time of the same requests.
  Post = [&M, &O, &T, &Failed, Streams, Seq, InProcessNs] {
    pinToTwoCpus();
    O.num("server.json_us",
          T.SelfNs.at("server.json") / 1e3 / Seq->size());
    Daemon D(str(M, "fgcd"), searchPaths(M));
    std::vector<std::unique_ptr<Conn>> Conns;
    for (size_t I = 0; I < Streams->size(); ++I)
      Conns.push_back(std::make_unique<Conn>(connectTo(D.Sock)));
    double SocketNs = 0;
    std::string Reply;
    for (auto &[I, Req] : *Seq) {
      uint64_t T0 = nowNs();
      if (!Conns[I]->roundTrip(Req.first, Reply))
        ++Failed;
      SocketNs += double(nowNs() - T0);
    }
    Conns.clear();
    D.stop();
    O.num("server.transport_ms",
          (SocketNs - InProcessNs) / 1e6 / Seq->size());
  };
}

//===----------------------------------------------------------------------===//
// trace
//===----------------------------------------------------------------------===//

/// Runs one workload's fixed pass with tracer \p T; returns wall ns.
/// \p Post receives work to run after the pass's wall time is taken.
double tracePass(const Json &M, Tracer &T, Report &O, long &Attempted,
                 long &Failed, Snap &A, Snap &B, int &Rounds,
                 std::function<void()> &Post) {
  std::string W = str(M, "workload");
  if (W == "corpus")
    prepareCorpus(M);
  uint64_t T0 = nowNs();
  if (W == "cli-programs")
    traceCli(M, T, Attempted, Failed);
  else if (W == "engines")
    traceEngines(M, T, O, Attempted, Failed, Post);
  else if (W == "corpus")
    traceCorpus(M, T, O, Attempted, Failed, A, B, Rounds, Post);
  else if (W == "daemon")
    traceDaemon(M, T, O, Attempted, Failed, Post);
  else
    die("unknown workload " + W);
  return double(nowNs() - T0);
}

int modeTrace(const Json &M) {
  Report O;
  O.num("systemf.first_run_ms", firstRunMs());
  O.num("driver.startup_ms", startupMs(str(M, "fgc")));

  // Untraced replay first, for the overhead figure; then the traced pass.
  long Attempted = 0, Failed = 0, IgnoredA = 0, IgnoredF = 0;
  int Rounds = 0, IgnoredR = 0;
  Snap RA, RB, IA, IB;
  Tracer Off(false), On(true);
  Report Ignored;
  std::function<void()> NoPost, Post;
  // Cheap passes get an untimed warm-up, so neither timed pass pays
  // the process's first-touch costs.
  if (member(M, "trace_warmup").asBool())
    tracePass(M, Off, Ignored, IgnoredA, IgnoredF, IA, IB, IgnoredR, NoPost);
  double Untraced = tracePass(M, Off, Ignored, IgnoredA, IgnoredF, IA, IB,
                              IgnoredR, NoPost);
  stats::Statistics::global().enable(true);
  Snap C0 = snap();
  double Traced =
      tracePass(M, On, O, Attempted, Failed, RA, RB, Rounds, Post);
  Snap C1 = snap();
  stats::Statistics::global().enable(false);
  On.finish();
  if (Post)
    Post();

  reportTrace(O, On, Traced, Untraced);
  reportCounts(O, C0, C1);
  if (Rounds > 0) {
    double H = dC(RA, RB, "modules.cache.hits");
    double Ms = dC(RA, RB, "modules.cache.misses");
    O.num("modules.rechecked_per_edit",
          double(dC(RA, RB, "modules.compiled")) / Rounds);
    O.num("modules.cache_hit_pct", H + Ms == 0 ? 0 : 100 * H / (H + Ms));
  }
  On.writeTrace(str(M, "trace_out"));
  O.num("attempted", Attempted);
  O.num("failed", Failed);
  O.print();
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 3)
    die("usage: perfbench_harness <refs|engines|daemon|trace> <manifest>");
  Json M;
  std::string Err;
  if (!Json::parse(readFile(Argv[2]), M, Err))
    die("bad manifest: " + Err);
  // A daemon that dies mid-request must count as failed requests, not
  // kill the client.
  signal(SIGPIPE, SIG_IGN);
  // Relative paths (the daemon's socket) live in the work directory.
  if (chdir(str(M, "work").c_str()) != 0)
    die("cannot enter " + str(M, "work"));
  std::string Mode = Argv[1];
  if (Mode == "refs")
    return modeRefs(M);
  if (Mode == "engines")
    return modeEngines(M);
  if (Mode == "daemon")
    return modeDaemon(M);
  if (Mode == "trace")
    return modeTrace(M);
  die("unknown mode " + Mode);
}
