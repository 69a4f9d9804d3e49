//===- bench/BenchEngines.cpp - The execution engines on loop workloads ---===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One harness for every measurement that runs a program in a loop on
/// an execution engine: experiment P2's run-time mechanism
/// (EXPERIMENTS.md), the backend speedups CI gates, and what -O2
/// specialization buys over -O1.  A measurement is a cell (workload,
/// Backend, level), prepared once as an embedder would — the optimized
/// term, a VM chunk, an AOT binary in the build cache — and then run
/// repeatedly.  Each workload folds an N-element int list:
///
///   dict   : Figure 5's accumulate via concepts -> dictionaries
///   hof    : Figure 3's sum with explicitly passed add/zero
///   lambda : dict with a lambda witness, so the -O1 residual is a
///            closure call per element that -O2's let-beta removes
///   lookup : a refinement hierarchy (Ord refines Eq) whose members are
///            consulted twice per element
///
/// Besides the google-benchmark timings (`BM_<workload>/<backend>/<level>`
/// plus P2's direct-interpreter, native-fold and instantiation-only
/// baselines), the custom main records into the stats JSON
/// (BENCH_engines.json), from N = 512, 3 warm-up runs and the best of 3
/// rounds of 30 runs per cell:
///
///   vm.speedup_vs_tree_pct[.dict/.hof]  tree ns/run over vm ns/run at
///                                       -O0 (percent: 250 means 2.5x)
///   vm.ic.hit_rate_pct                  dict's inline-cache hit rate
///   aot.speedup_vs_vm_pct[.dict/.hof]   vm at -O0 (emit + run) over aot
///                                       at -O2; the child binary times
///                                       its own loop, so no side pays
///                                       spawn
///   aot.compile_ms[.dict/.hof]          cold host compile of the -O2
///                                       translation unit
///   specialize.speedup_vs_O1_pct.{tree,vm}
///   specialize.o1_over_o2_x100.{tree,vm}
///                                       -O1 over -O2 on lambda and
///                                       lookup (percent improvement,
///                                       clamped at 0; raw ratio x100)
///
//===----------------------------------------------------------------------===//

#include "BenchMain.h"
#include "aot/CppEmitter.h"
#include "syntax/Frontend.h"
#include "vm/Emit.h"
#include "vm/VM.h"
#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>
#include <optional>
#include <string>
#include <unistd.h>

using namespace fg;

namespace {

using Level = std::optional<sf::SpecializeLevel>;
const Level O0 = std::nullopt, O1 = sf::SpecializeLevel::Off,
            O2 = sf::SpecializeLevel::Full;

std::string levelName(const Level &L) {
  return !L ? "O0" : *L == sf::SpecializeLevel::Off ? "O1" : "O2";
}

std::string consList(unsigned N) {
  std::string L = "nil[int]";
  for (unsigned I = 0; I < N; ++I)
    L = "cons[int](" + std::to_string(I % 7) + ", " + L + ")";
  return L;
}

/// Figure 5's accumulate whose Semigroup<int> witness is \p Witness.
std::string accumulateProgram(unsigned N, const std::string &Witness) {
  return R"(
    concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = (forall t where Monoid<t>.
      fix (fun(accum : fn(list t) -> t).
        fun(ls : list t).
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))))
    in
    model Semigroup<int> { binary_op = )" +
         Witness + R"(; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int]()" +
         consList(N) + ")";
}

std::string dictProgram(unsigned N) { return accumulateProgram(N, "iadd"); }

std::string lambdaProgram(unsigned N) {
  return accumulateProgram(N, "fun(a : int, b : int). iadd(a, b)");
}

std::string hofProgram(unsigned N) {
  return R"(
    let sum = (forall t.
      fix (fun(sum : fn(list t, fn(t,t) -> t, t) -> t).
        fun(ls : list t, add : fn(t,t) -> t, zero : t).
          if null[t](ls) then zero
          else add(car[t](ls), sum(cdr[t](ls), add, zero))))
    in
    sum[int]()" +
         consList(N) + ", iadd, 0)";
}

/// A max-fold over Ord<t> (refining Eq<t>), both members lambda
/// witnesses.
std::string lookupProgram(unsigned N) {
  return R"(
    concept Eq<t> { eq : fn(t,t) -> bool; } in
    concept Ord<t> { refines Eq<t>; lt : fn(t,t) -> bool; } in
    let maxfold = (forall t where Ord<t>.
      fix (fun(go : fn(list t, t) -> t).
        fun(ls : list t, best : t).
          if null[t](ls) then best
          else if Eq<t>.eq(car[t](ls), best)
               then go(cdr[t](ls), best)
               else if Ord<t>.lt(best, car[t](ls))
                    then go(cdr[t](ls), car[t](ls))
                    else go(cdr[t](ls), best)))
    in
    model Eq<int> { eq = fun(a : int, b : int). ieq(a, b); } in
    model Ord<int> { lt = fun(a : int, b : int). ilt(a, b); } in
    maxfold[int]()" +
         consList(N) + ", 0)";
}

struct Workload {
  const char *Name;
  std::string (*Source)(unsigned N);
};
const Workload Dict{"dict", dictProgram}, Hof{"hof", hofProgram},
    Lambda{"lambda", lambdaProgram}, Lookup{"lookup", lookupProgram};

/// ns per call of \p Run: the best of \p Rounds rounds of \p Iters
/// calls, after \p Warmup unmeasured calls.  The minimum is the
/// least-noise estimator for a deterministic workload.
template <class F>
uint64_t timeRuns(F &&Run, unsigned Warmup, unsigned Iters, unsigned Rounds) {
  for (unsigned I = 0; I < Warmup; ++I)
    (void)Run();
  uint64_t Best = ~uint64_t(0);
  for (unsigned R = 0; R < Rounds; ++R) {
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I < Iters; ++I) {
      sf::EvalResult Res = Run();
      benchmark::DoNotOptimize(Res.Val);
    }
    uint64_t Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    Best = std::min(Best, Ns / Iters);
  }
  return Best;
}

/// One (workload, engine, level) cell, prepared once for repeated runs.
class Cell {
public:
  Cell(const Workload &W, unsigned N, Backend Engine, const Level &L)
      : Engine(Engine) {
    Out = FE.compile("bench.fg", W.Source(N));
    if (!Out.Success) {
      Error = Out.ErrorMessage;
      return;
    }
    Term = Out.SfTerm;
    if (L) {
      sf::OptimizeOptions Opts;
      Opts.Specialize = *L;
      Term = FE.optimize(Out, nullptr, Opts);
    }
    if (Engine == Backend::Vm)
      Chunk = vm::compile(Term, FE.getPrelude(), &Error);
    if (Engine == Backend::Aot) {
      // Compile into the build cache now, so runs are cache hits.
      sf::EvalResult R = run();
      if (!R.ok())
        Error = R.Error;
    }
  }

  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }
  const sf::Term *term() const { return Term; }
  const sf::Prelude &prelude() const { return FE.getPrelude(); }

  /// One run; for aot, \p Repeat > 1 makes the child time its own loop
  /// into \p Info.
  sf::EvalResult run(aot::RunInfo *Info = nullptr, long long Repeat = 1) {
    switch (Engine) {
    case Backend::Tree:
      return sf::Evaluator().eval(Term, FE.getPrelude().Values);
    case Backend::Vm:
      return vm::VM().run(Chunk);
    case Backend::Aot:
      return aot::runAot(Term, FE.getPrelude(), sf::EvalOptions(),
                         aot::ToolchainOptions(), Info, Repeat);
    }
    return sf::EvalResult::failure("unknown backend");
  }

  /// ns per run, as timeRuns() measures it; aot reports its child's
  /// own timing loop instead (no warm-up: the cell's construction
  /// already ran it once).  0 on failure.
  uint64_t bestNsPerRun(unsigned Warmup, unsigned Iters, unsigned Rounds) {
    if (Engine != Backend::Aot)
      return timeRuns([this] { return run(); }, Warmup, Iters, Rounds);
    uint64_t Best = ~uint64_t(0);
    for (unsigned R = 0; R < Rounds; ++R) {
      aot::RunInfo Info;
      if (!run(&Info, Iters).ok() || Info.BenchNsPerRun <= 0)
        return 0;
      Best = std::min(Best, uint64_t(Info.BenchNsPerRun));
    }
    return Best;
  }

  /// Dictionary-projection inline-cache hit rate of one VM run, as an
  /// integer percent; 0 if the workload never projects.
  uint64_t icHitRatePct() {
    vm::VM M;
    (void)M.run(Chunk);
    uint64_t Total = M.getIcHits() + M.getIcMisses();
    return Total ? 100 * M.getIcHits() / Total : 0;
  }

private:
  Backend Engine;
  Frontend FE;
  CompileOutput Out;
  const sf::Term *Term = nullptr;
  std::shared_ptr<const vm::Chunk> Chunk;
  std::string Error;
};

//===----------------------------------------------------------------------===//
// google-benchmark timings
//===----------------------------------------------------------------------===//

void runCell(benchmark::State &State, const Workload &W, Backend Engine,
             const Level &L) {
  if (Engine == Backend::Aot && !aot::toolchainAvailable()) {
    State.SkipWithError("no host C++ compiler available");
    return;
  }
  Cell C(W, State.range(0), Engine, L);
  if (!C.ok()) {
    State.SkipWithError(C.error().c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = C.run();
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}

/// The timed cells: P2's dict vs hof on every engine (dict at -O1 is
/// P2's "specialized" row), and the -O1/-O2 pairs of the specialization
/// workloads.
void registerCells() {
  struct Spec {
    const Workload &W;
    Backend Engine;
    Level L;
  } Cells[] = {
      {Dict, Backend::Tree, O0},   {Dict, Backend::Vm, O0},
      {Dict, Backend::Tree, O1},   {Dict, Backend::Aot, O2},
      {Hof, Backend::Tree, O0},    {Hof, Backend::Vm, O0},
      {Hof, Backend::Aot, O2},     {Lambda, Backend::Tree, O1},
      {Lambda, Backend::Tree, O2}, {Lambda, Backend::Vm, O1},
      {Lambda, Backend::Vm, O2},   {Lookup, Backend::Vm, O1},
      {Lookup, Backend::Vm, O2},
  };
  for (const Spec &S : Cells) {
    std::string Name = std::string("BM_") + S.W.Name + "/" +
                       backendName(S.Engine) + "/" + levelName(S.L);
    auto *B = benchmark::RegisterBenchmark(
        Name.c_str(), [S](benchmark::State &State) {
          runCell(State, S.W, S.Engine, S.L);
        });
    if (S.Engine == Backend::Aot)
      B->Arg(512);
    else
      B->Arg(128)->Arg(512)->Arg(1024);
  }
}

} // namespace

static void BM_DirectInterpreter(benchmark::State &State) {
  // Ablation: the same concept-based accumulate run by the *direct*
  // F_G interpreter (runtime model lookup + type normalization) instead
  // of the dictionary-passing translation.  Shows what the translation
  // buys: dictionaries are resolved once per instantiation, whereas the
  // direct semantics re-resolves at member access.
  Frontend FE;
  CompileOutput Out = FE.compile("bench.fg", dictProgram(State.range(0)));
  if (!Out.Success) {
    State.SkipWithError(Out.ErrorMessage.c_str());
    return;
  }
  for (auto _ : State) {
    interp::EvalResult R = FE.runDirect(Out);
    if (!R.ok())
      State.SkipWithError(R.Error.c_str());
    benchmark::DoNotOptimize(R.Val);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_DirectInterpreter)->Arg(16)->Arg(128)->Arg(512)->Arg(1024);

static void BM_NativeFold(benchmark::State &State) {
  // The same fold over the same runtime list representation, in C++.
  std::vector<int64_t> Elems;
  for (unsigned I = 0; I < State.range(0); ++I)
    Elems.push_back((State.range(0) - 1 - I) % 7);
  sf::ValuePtr L = sf::makeIntListValue(Elems);
  for (auto _ : State) {
    int64_t Sum = 0;
    for (const auto *N = cast<sf::ListValue>(L.get()); N && !N->isNil();
         N = N->getTail().get())
      Sum += cast<sf::IntValue>(N->getHead().get())->getValue();
    benchmark::DoNotOptimize(Sum);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_NativeFold)->Arg(16)->Arg(128)->Arg(1024)->Arg(4096);

/// Instantiation cost alone: evaluate `accumulate[int]` (dictionary
/// application) without folding anything.
static void BM_InstantiationOnly(benchmark::State &State) {
  Frontend FE;
  std::string Source = dictProgram(0);
  Source = Source.substr(0, Source.rfind('('));
  CompileOutput Out = FE.compile("bench.fg", Source);
  if (!Out.Success) {
    State.SkipWithError(Out.ErrorMessage.c_str());
    return;
  }
  for (auto _ : State) {
    sf::EvalResult R = FE.run(Out);
    benchmark::DoNotOptimize(R.Val);
  }
}
BENCHMARK(BM_InstantiationOnly);

namespace {

//===----------------------------------------------------------------------===//
// The summary keys
//===----------------------------------------------------------------------===//

constexpr unsigned N = 512, Warmup = 3, Iters = 30, Rounds = 3;

void recordBackendSpeedups() {
  auto &Stats = stats::Statistics::global();
  bool HaveAot = aot::toolchainAvailable();
  double TreeOverVm = 0, VmOverAot = 0;
  int VmMeasured = 0, AotMeasured = 0;
  for (const Workload *W : {&Dict, &Hof}) {
    std::string Key = W->Name;
    Cell Tree(*W, N, Backend::Tree, O0), Vm(*W, N, Backend::Vm, O0);
    if (!Tree.ok() || !Vm.ok())
      continue;
    uint64_t TreeNs = Tree.bestNsPerRun(Warmup, Iters, Rounds);
    uint64_t VmNs = Vm.bestNsPerRun(Warmup, Iters, Rounds);
    if (VmNs == 0)
      continue;
    double Ratio = double(TreeNs) / double(VmNs);
    Stats.counter("vm.speedup_vs_tree_pct." + Key) = uint64_t(100.0 * Ratio);
    if (W == &Dict)
      Stats.counter("vm.ic.hit_rate_pct") = Vm.icHitRatePct();
    TreeOverVm += Ratio;
    ++VmMeasured;

    if (!HaveAot)
      continue;
    Cell Aot(*W, N, Backend::Aot, O2);
    if (!Aot.ok())
      continue;
    // Cold compile cost, measured against a private cache dir so a warm
    // bench working dir cannot turn it into a lookup.
    aot::ToolchainOptions Cold;
    Cold.CacheDir = ".fgc.aot-cache/bench-cold-" + std::to_string(::getpid());
    aot::EmittedProgram E = aot::emitCpp(Aot.term(), Aot.prelude());
    if (E.ok()) {
      auto Start = std::chrono::steady_clock::now();
      aot::CompiledProgram C = aot::compileProgram(E.Cpp, Cold);
      uint64_t Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
      if (C.ok())
        Stats.counter("aot.compile_ms." + Key) = Ms;
    }
    uint64_t AotNs = Aot.bestNsPerRun(0, Iters, Rounds);
    // The VM side emits its chunk on every run, without warm-up, as when
    // the committed baseline in bench/BASELINE.json was recorded; timed
    // against the prebuilt chunk the ratio reads about 15% lower.
    uint64_t VmEmitNs = timeRuns(
        [&] { return vm::runTerm(Vm.term(), Vm.prelude()); }, 0, Iters,
        Rounds);
    if (AotNs == 0)
      continue;
    double Speedup = double(VmEmitNs) / double(AotNs);
    Stats.counter("aot.speedup_vs_vm_pct." + Key) = uint64_t(100.0 * Speedup);
    VmOverAot += Speedup;
    ++AotMeasured;
  }
  if (VmMeasured)
    Stats.counter("vm.speedup_vs_tree_pct") =
        uint64_t(100.0 * TreeOverVm / VmMeasured);
  if (!AotMeasured)
    return;
  Stats.counter("aot.speedup_vs_vm_pct") =
      uint64_t(100.0 * VmOverAot / AotMeasured);
  uint64_t MsSum = 0, MsN = 0;
  for (const char *Key : {"aot.compile_ms.dict", "aot.compile_ms.hof"})
    if (uint64_t V = Stats.counter(Key).load()) {
      MsSum += V;
      ++MsN;
    }
  if (MsN)
    Stats.counter("aot.compile_ms") = MsSum / MsN;
}

/// Times -O1 vs -O2 per in-process engine on the lambda and lookup
/// workloads, after checking both levels agree on the value.
void recordSpecializeSpeedups() {
  auto &Stats = stats::Statistics::global();
  for (Backend Engine : {Backend::Tree, Backend::Vm}) {
    double RatioSum = 0;
    int Measured = 0;
    for (const Workload *W : {&Lambda, &Lookup}) {
      Cell C1(*W, N, Engine, O1), C2(*W, N, Engine, O2);
      if (!C1.ok() || !C2.ok())
        continue;
      sf::EvalResult V1 = C1.run(), V2 = C2.run();
      if (!V1.ok() || !V2.ok() ||
          sf::valueToString(V1.Val) != sf::valueToString(V2.Val))
        continue;
      uint64_t T1 = C1.bestNsPerRun(Warmup, Iters, Rounds);
      uint64_t T2 = C2.bestNsPerRun(Warmup, Iters, Rounds);
      if (T2 == 0)
        continue;
      RatioSum += double(T1) / double(T2);
      ++Measured;
    }
    if (!Measured)
      continue;
    double Ratio = RatioSum / Measured;
    double ImprovementPct = 100.0 * (Ratio - 1.0);
    std::string Name = backendName(Engine);
    Stats.counter("specialize.speedup_vs_O1_pct." + Name) =
        ImprovementPct > 0 ? uint64_t(ImprovementPct + 0.5) : 0;
    Stats.counter("specialize.o1_over_o2_x100." + Name) =
        uint64_t(100.0 * Ratio + 0.5);
  }
}

} // namespace

int main(int argc, char **argv) {
  fg::stats::Statistics::global().enable(true);
  recordBackendSpeedups();
  recordSpecializeSpeedups();
  registerCells();
  return fg::bench::runAndEmitStats(argc, argv);
}
