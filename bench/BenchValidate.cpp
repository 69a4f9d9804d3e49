//===- bench/BenchValidate.cpp - Validation overhead ----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost of the translation-validation layer (src/validate): the same
/// compile+optimize workloads with validation off, with the post-
/// translation re-typecheck (`--validate=translate`, the Theorem 1/2
/// check), and with every optimizer pass's output re-typechecked
/// (`--validate=passes`).
///
/// Besides the google-benchmark timings, the custom main measures the
/// ratios directly and records them in the stats JSON as
/// `validate.overhead_vs_off_pct` (passes-mode, percent over the
/// unvalidated pipeline; 15 means 15% slower) and
/// `validate.translate_overhead_vs_off_pct`, keeping the headline
/// numbers comparable across PRs via the `bench-stats` trajectory.
///
//===----------------------------------------------------------------------===//

#include "BenchMain.h"
#include "syntax/Frontend.h"
#include "validate/Validate.h"
#include <algorithm>
#include <benchmark/benchmark.h>
#include <chrono>
#include <sstream>
#include <string>
#include <vector>

using namespace fg;

namespace {

/// A dictionary-heavy workload: N concepts with models and a generic
/// function chained through all of them, so both the translation and
/// every optimizer pass have real dictionary structure to re-check.
std::string conceptChainProgram(unsigned N) {
  std::ostringstream OS;
  for (unsigned I = 0; I < N; ++I)
    OS << "concept C" << I << "<t> { op" << I << " : fn(t) -> t; } in\n";
  for (unsigned I = 0; I < N; ++I)
    OS << "model C" << I << "<int> { op" << I
       << " = fun(x : int). iadd(x, " << I << "); } in\n";
  OS << "let f = (forall t where ";
  for (unsigned I = 0; I < N; ++I)
    OS << "C" << I << "<t>" << (I + 1 < N ? ", " : "");
  OS << ". fun(x : t). ";
  std::string Expr = "x";
  for (unsigned I = 0; I < N; ++I)
    Expr = "C" + std::to_string(I) + "<t>.op" + std::to_string(I) + "(" +
           Expr + ")";
  OS << Expr << ") in\nf[int](1)";
  return OS.str();
}

/// The paper's accumulate workload: refinement, fix, and a list spine,
/// giving the per-pass validator a recursive term to descend.
std::string accumulateProgram(unsigned N) {
  std::string L = "nil[int]";
  for (unsigned I = 0; I < N; ++I)
    L = "cons[int](" + std::to_string(I % 7) + ", " + L + ")";
  return R"(
    concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
    concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
    let accumulate = (forall t where Monoid<t>.
      fix (fun(accum : fn(list t) -> t).
        fun(ls : list t).
          if null[t](ls) then Monoid<t>.identity_elt
          else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))))
    in
    model Semigroup<int> { binary_op = iadd; } in
    model Monoid<int> { identity_elt = 0; } in
    accumulate[int]()" +
         L + ")";
}

std::vector<std::string> workloads() {
  return {conceptChainProgram(12), accumulateProgram(32)};
}

/// One full compile+optimize under the given validation mode.  A fresh
/// Frontend per iteration, as the driver pays for it: validation cost
/// only means something relative to the whole pipeline it guards.
bool compileOnce(const std::string &Source, validate::Mode Mode) {
  Frontend FE;
  CompileOptions CO;
  CO.VerifyTranslation = Mode != validate::Mode::Off;
  CompileOutput Out = FE.compile("bench.fg", Source, CO);
  if (!Out.Success)
    return false;
  sf::OptimizeOptions OO;
  validate::Validator V(FE.getSfContext(), FE.getPrelude().Types);
  if (Mode == validate::Mode::Passes)
    OO.PassHook = V.passHook(Out.SfType);
  sf::OptimizeStats Stats;
  return FE.optimize(Out, &Stats, OO) != nullptr && !V.failed();
}

void runMode(benchmark::State &State, validate::Mode Mode) {
  std::vector<std::string> Sources = workloads();
  for (auto _ : State)
    for (const std::string &Source : Sources)
      if (!compileOnce(Source, Mode)) {
        State.SkipWithError("workload failed to compile");
        return;
      }
  State.SetItemsProcessed(State.iterations() * Sources.size());
}

} // namespace

static void BM_ValidateOff(benchmark::State &State) {
  runMode(State, validate::Mode::Off);
}
BENCHMARK(BM_ValidateOff);

static void BM_ValidateTranslate(benchmark::State &State) {
  runMode(State, validate::Mode::Translate);
}
BENCHMARK(BM_ValidateTranslate);

static void BM_ValidatePasses(benchmark::State &State) {
  runMode(State, validate::Mode::Passes);
}
BENCHMARK(BM_ValidatePasses);

namespace {

/// Wall-clock for \p Iters compiles of every workload under \p Mode,
/// in nanoseconds.
uint64_t timeMode(const std::vector<std::string> &Sources,
                  validate::Mode Mode, unsigned Iters) {
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Iters; ++I)
    for (const std::string &Source : Sources)
      benchmark::DoNotOptimize(compileOnce(Source, Mode));
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Best-of-\p Rounds (the least-noise estimator for a deterministic
/// workload; see BenchEngines).
uint64_t bestOf(const std::vector<std::string> &Sources, validate::Mode Mode,
                unsigned Iters, unsigned Rounds) {
  uint64_t Best = ~uint64_t(0);
  for (unsigned R = 0; R < Rounds; ++R)
    Best = std::min(Best, timeMode(Sources, Mode, Iters));
  return Best;
}

/// Measures validation overhead directly and records it (integer
/// percent over the unvalidated pipeline) in the statistics registry,
/// so the bench-stats JSON carries the headline numbers.
void recordOverheadSummary() {
  constexpr unsigned Iters = 10, Warmup = 2, Rounds = 3;
  std::vector<std::string> Sources = workloads();
  for (unsigned W = 0; W < Warmup; ++W)
    for (const std::string &Source : Sources)
      (void)compileOnce(Source, validate::Mode::Passes);
  uint64_t Off = bestOf(Sources, validate::Mode::Off, Iters, Rounds);
  uint64_t Translate =
      bestOf(Sources, validate::Mode::Translate, Iters, Rounds);
  uint64_t Passes = bestOf(Sources, validate::Mode::Passes, Iters, Rounds);
  if (Off == 0)
    return;
  auto &Stats = stats::Statistics::global();
  auto Pct = [&](uint64_t T) {
    return T > Off ? uint64_t(100.0 * double(T - Off) / double(Off)) : 0;
  };
  Stats.counter("validate.overhead_vs_off_pct") = Pct(Passes);
  Stats.counter("validate.translate_overhead_vs_off_pct") = Pct(Translate);
}

} // namespace

int main(int argc, char **argv) {
  fg::stats::Statistics::global().enable(true);
  recordOverheadSummary();
  return fg::bench::runAndEmitStats(argc, argv);
}
