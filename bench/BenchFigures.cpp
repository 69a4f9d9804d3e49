//===- bench/BenchFigures.cpp - Experiments F1..F13 -----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates every figure-level artifact of the paper end to end and
/// measures the full pipeline (parse -> check -> translate -> verify ->
/// evaluate) for each.  On startup it prints the reproduction table that
/// EXPERIMENTS.md records: figure id, program, expected vs measured
/// result.
///
//===----------------------------------------------------------------------===//

#include "syntax/Frontend.h"
#include "BenchMain.h"
#include <benchmark/benchmark.h>
#include <cstdio>
#include <string>
#include <vector>

using namespace fg;

namespace {

struct Figure {
  const char *Id;
  const char *What;
  const char *Expected; ///< Expected printed value.
  std::string Source;
};

std::vector<Figure> &figures() {
  static std::vector<Figure> Figs = {
      {"Fig 1", "square via Number concept (all four 1(a-d) variants)",
       "16",
       R"(concept Number<u> { mult : fn(u, u) -> u; } in
          let square = (forall t where Number<t>.
            fun(x : t). Number<t>.mult(x, x)) in
          model Number<int> { mult = imult; } in
          square[int](4))"},

      {"Fig 3", "higher-order sum in raw System F", "3",
       R"(let sum = (forall t.
            fix (fun(sum : fn(list t, fn(t,t) -> t, t) -> t).
              fun(ls : list t, add : fn(t,t) -> t, zero : t).
                if null[t](ls) then zero
                else add(car[t](ls), sum(cdr[t](ls), add, zero)))) in
          let ls = cons[int](1, cons[int](2, nil[int])) in
          sum[int](ls, iadd, 0))"},

      {"Fig 5", "generic accumulate over Semigroup/Monoid", "3",
       R"(concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
          concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
          let accumulate = (forall t where Monoid<t>.
            fix (fun(accum : fn(list t) -> t).
              fun(ls : list t).
                let binary_op = Monoid<t>.binary_op in
                let identity_elt = Monoid<t>.identity_elt in
                if null[t](ls) then identity_elt
                else binary_op(car[t](ls), accum(cdr[t](ls))))) in
          model Semigroup<int> { binary_op = iadd; } in
          model Monoid<int> { identity_elt = 0; } in
          let ls = cons[int](1, cons[int](2, nil[int])) in
          accumulate[int](ls))"},

      {"Fig 6", "intentionally overlapping models (sum, product)",
       "(3, 2)",
       R"(concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
          concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
          let accumulate = (forall t where Monoid<t>.
            fix (fun(accum : fn(list t) -> t).
              fun(ls : list t).
                if null[t](ls) then Monoid<t>.identity_elt
                else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls))))) in
          let sum =
            model Semigroup<int> { binary_op = iadd; } in
            model Monoid<int> { identity_elt = 0; } in
            accumulate[int] in
          let product =
            model Semigroup<int> { binary_op = imult; } in
            model Monoid<int> { identity_elt = 1; } in
            accumulate[int] in
          let ls = cons[int](1, cons[int](2, nil[int])) in
          (sum(ls), product(ls)))"},

      {"Fig 7", "dictionary representation observable behaviour",
       "(42, 42, 0)",
       R"(concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
          concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
          model Semigroup<int> { binary_op = iadd; } in
          model Monoid<int> { identity_elt = 0; } in
          (Semigroup<int>.binary_op(20, 22),
           Monoid<int>.binary_op(20, 22),
           Monoid<int>.identity_elt))"},

      {"Sec 5", "accumulate over Iterator with associated elt", "42",
       R"(concept Semigroup<t> { binary_op : fn(t,t) -> t; } in
          concept Monoid<t> { refines Semigroup<t>; identity_elt : t; } in
          concept Iterator<Iter> {
            types elt;
            next : fn(Iter) -> Iter;
            curr : fn(Iter) -> elt;
            at_end : fn(Iter) -> bool;
          } in
          let accumulate =
            (forall Iter where Iterator<Iter>, Monoid<Iterator<Iter>.elt>.
              fix (fun(accum : fn(Iter) -> Iterator<Iter>.elt).
                fun(iter : Iter).
                  if Iterator<Iter>.at_end(iter)
                  then Monoid<Iterator<Iter>.elt>.identity_elt
                  else Monoid<Iterator<Iter>.elt>.binary_op(
                         Iterator<Iter>.curr(iter),
                         accum(Iterator<Iter>.next(iter))))) in
          model Iterator<list int> {
            types elt = int;
            next = fun(ls : list int). cdr[int](ls);
            curr = fun(ls : list int). car[int](ls);
            at_end = fun(ls : list int). null[int](ls);
          } in
          model Semigroup<int> { binary_op = iadd; } in
          model Monoid<int> { identity_elt = 0; } in
          accumulate[list int](cons[int](7, cons[int](35, nil[int]))))"},

      {"Sec 5", "merge with same-type constraint", "[6, 5, 4, 3, 2, 1]",
       R"(concept LessThanComparable<t> { less : fn(t,t) -> bool; } in
          concept Iterator<Iter> {
            types elt;
            next : fn(Iter) -> Iter;
            curr : fn(Iter) -> elt;
            at_end : fn(Iter) -> bool;
          } in
          concept OutputIterator<Out, t> { put : fn(Out, t) -> Out; } in
          let merge =
            (forall In1, In2, Out
               where Iterator<In1>, Iterator<In2>,
                     OutputIterator<Out, Iterator<In1>.elt>,
                     LessThanComparable<Iterator<In1>.elt>,
                     Iterator<In1>.elt == Iterator<In2>.elt.
              let put = OutputIterator<Out, Iterator<In1>.elt>.put in
              let drain1 = fix (fun(d : fn(In1, Out) -> Out).
                fun(i : In1, out : Out).
                  if Iterator<In1>.at_end(i) then out
                  else d(Iterator<In1>.next(i),
                         put(out, Iterator<In1>.curr(i)))) in
              let drain2 = fix (fun(d : fn(In2, Out) -> Out).
                fun(i : In2, out : Out).
                  if Iterator<In2>.at_end(i) then out
                  else d(Iterator<In2>.next(i),
                         put(out, Iterator<In2>.curr(i)))) in
              fix (fun(m : fn(In1, In2, Out) -> Out).
                fun(i1 : In1, i2 : In2, out : Out).
                  if Iterator<In1>.at_end(i1) then drain2(i2, out)
                  else if Iterator<In2>.at_end(i2) then drain1(i1, out)
                  else if LessThanComparable<Iterator<In1>.elt>.less(
                            Iterator<In1>.curr(i1), Iterator<In2>.curr(i2))
                       then m(Iterator<In1>.next(i1), i2,
                              put(out, Iterator<In1>.curr(i1)))
                       else m(i1, Iterator<In2>.next(i2),
                              put(out, Iterator<In2>.curr(i2))))) in
          model Iterator<list int> {
            types elt = int;
            next = fun(ls : list int). cdr[int](ls);
            curr = fun(ls : list int). car[int](ls);
            at_end = fun(ls : list int). null[int](ls);
          } in
          model OutputIterator<list int, int> {
            put = fun(out : list int, x : int). cons[int](x, out);
          } in
          model LessThanComparable<int> { less = ilt; } in
          let a = cons[int](1, cons[int](3, cons[int](5, nil[int]))) in
          let b = cons[int](2, cons[int](4, cons[int](6, nil[int]))) in
          merge[list int, list int, list int](a, b, nil[int]))"},

      {"Sec 5.2", "A/B refinement through an associated type", "false",
       R"(concept A<u> { foo : fn(u) -> u; } in
          concept B<t> { types z; refines A<z>; bar : fn(t) -> z; } in
          let f = (forall r where B<r>.
            fun(x : r). A<B<r>.z>.foo(B<r>.bar(x))) in
          model A<bool> { foo = bnot; } in
          model B<int> { types z = bool; bar = fun(n : int). igt(n, 0); } in
          f[int](5))"},
  };
  return Figs;
}

void printReproductionTable() {
  std::printf("\n=== paper figure reproduction (paper vs measured) ===\n");
  std::printf("%-8s %-55s %-22s %-22s %s\n", "figure", "artifact",
              "paper", "measured", "status");
  Frontend FE;
  for (const Figure &F : figures()) {
    CompileOutput Out = FE.compile(F.Id, F.Source);
    ExecResult R = execute(FE, Out, ExecRequest());
    std::string Measured = !Out.Success ? "ERROR: " + Out.ErrorMessage
                           : R.ok()     ? sf::valueToString(R.Val)
                                        : "ERROR: " + R.Error;
    std::printf("%-8s %-55s %-22s %-22s %s\n", F.Id, F.What, F.Expected,
                Measured.c_str(),
                Measured == F.Expected ? "MATCH" : "MISMATCH");
  }
  std::printf("\n");
}

void benchFigure(benchmark::State &State, const Figure &F) {
  for (auto _ : State) {
    Frontend FE;
    CompileOutput Out = FE.compile(F.Id, F.Source);
    if (!Out.Success) {
      State.SkipWithError(Out.ErrorMessage.c_str());
      return;
    }
    sf::EvalResult R = FE.run(Out);
    if (!R.ok()) {
      State.SkipWithError(R.Error.c_str());
      return;
    }
    benchmark::DoNotOptimize(R.Val);
  }
}

} // namespace

static void BM_Figure1_Square(benchmark::State &S) {
  benchFigure(S, figures()[0]);
}
static void BM_Figure3_HigherOrderSum(benchmark::State &S) {
  benchFigure(S, figures()[1]);
}
static void BM_Figure5_Accumulate(benchmark::State &S) {
  benchFigure(S, figures()[2]);
}
static void BM_Figure6_OverlappingModels(benchmark::State &S) {
  benchFigure(S, figures()[3]);
}
static void BM_Figure7_Dictionaries(benchmark::State &S) {
  benchFigure(S, figures()[4]);
}
static void BM_Section5_IteratorAccumulate(benchmark::State &S) {
  benchFigure(S, figures()[5]);
}
static void BM_Section5_Merge(benchmark::State &S) {
  benchFigure(S, figures()[6]);
}
static void BM_Section52_ABExample(benchmark::State &S) {
  benchFigure(S, figures()[7]);
}

BENCHMARK(BM_Figure1_Square);
BENCHMARK(BM_Figure3_HigherOrderSum);
BENCHMARK(BM_Figure5_Accumulate);
BENCHMARK(BM_Figure6_OverlappingModels);
BENCHMARK(BM_Figure7_Dictionaries);
BENCHMARK(BM_Section5_IteratorAccumulate);
BENCHMARK(BM_Section5_Merge);
BENCHMARK(BM_Section52_ABExample);

int main(int argc, char **argv) {
  printReproductionTable();
  return fg::bench::runAndEmitStats(argc, argv);
}
