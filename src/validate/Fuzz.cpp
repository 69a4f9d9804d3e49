//===- validate/Fuzz.cpp - Well-typed F_G program fuzzer ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "validate/Fuzz.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "validate/Validate.h"
#include <atomic>
#include <ostream>
#include <random>
#include <sstream>

using namespace fg;
using namespace fg::validate;

namespace {

/// Builds one well-typed-by-construction program.  Each program picks
/// one or two "scenarios" — a coherent bundle of concept/model
/// declarations plus generic functions exercising them (folds,
/// refinement, associated types, same-type constraints, fixpoints) —
/// then wires their calls together with a small typed expression
/// grammar over int/bool/list-int.  Name suffixes keep scenarios from
/// colliding, so any combination composes.
struct Gen {
  std::mt19937_64 Rng;
  std::string Decls;
  /// Generators of int-typed call expressions into the scenarios'
  /// generic functions; invoked only at the final-expression position
  /// where all locals are in scope.
  std::vector<std::string (Gen::*)(const std::string &)> CallKinds;
  std::vector<std::string> CallSuffixes;
  std::vector<std::string> IntLocals;

  explicit Gen(uint64_t Seed) : Rng(Seed) {}

  unsigned pick(unsigned N) {
    return std::uniform_int_distribution<unsigned>(0, N - 1)(Rng);
  }
  std::string lit() { return std::to_string(pick(10)); }

  std::string genInt(unsigned Depth) {
    unsigned Choice = Depth == 0 ? pick(2) : pick(6);
    switch (Choice) {
    case 0:
      return lit();
    case 1:
      if (!IntLocals.empty())
        return IntLocals[pick(IntLocals.size())];
      return lit();
    case 2:
      return "iadd(" + genInt(Depth - 1) + ", " + genInt(Depth - 1) + ")";
    case 3:
      return "isub(" + genInt(Depth - 1) + ", " + genInt(Depth - 1) + ")";
    case 4:
      return "imult(" + genInt(Depth - 1) + ", " + genInt(Depth - 1) + ")";
    default:
      return "(if " + genBool(Depth - 1) + " then " + genInt(Depth - 1) +
             " else " + genInt(Depth - 1) + ")";
    }
  }

  std::string genBool(unsigned Depth) {
    unsigned Choice = Depth == 0 ? pick(2) : pick(6);
    switch (Choice) {
    case 0:
      return "true";
    case 1:
      return "false";
    case 2:
      return "ieq(" + genInt(Depth - 1) + ", " + genInt(Depth - 1) + ")";
    case 3:
      return "ilt(" + genInt(Depth - 1) + ", " + genInt(Depth - 1) + ")";
    case 4:
      return "band(" + genBool(Depth - 1) + ", " + genBool(Depth - 1) + ")";
    default:
      return "bnot(" + genBool(Depth - 1) + ")";
    }
  }

  std::string genListInt() {
    std::string E = "nil[int]";
    for (unsigned I = 0, N = pick(4); I != N; ++I)
      E = "cons[int](" + genInt(1) + ", " + E + ")";
    return E;
  }

  // -- Scenarios.  Each emit* appends declarations (suffixed with S)
  // -- and registers the call generators that use them.

  void addCall(std::string (Gen::*Kind)(const std::string &),
               const std::string &S) {
    CallKinds.push_back(Kind);
    CallSuffixes.push_back(S);
  }

  /// Monoid-ish concept with a binary op and a unit; a generic
  /// two-argument fold over it (paper Figure 5 in miniature).
  void emitMonoidFold(const std::string &S) {
    bool Mult = pick(2) != 0;
    Decls += "concept Mono" + S + "<t> { binop : fn(t,t) -> t; unit : t; } "
             "in\n";
    Decls += "model Mono" + S + "<int> { binop = " +
             (Mult ? "imult" : "iadd") + "; unit = " + (Mult ? "1" : "0") +
             "; } in\n";
    Decls += "let fold2" + S + " = (forall t where Mono" + S + "<t>. "
             "fun(x : t, y : t). Mono" + S + "<t>.binop(Mono" + S +
             "<t>.binop(x, y), Mono" + S + "<t>.unit)) in\n";
    addCall(&Gen::callMonoidFold, S);
  }
  std::string callMonoidFold(const std::string &S) {
    return "fold2" + S + "[int](" + genInt(2) + ", " + genInt(2) + ")";
  }

  /// A `show`-style concept modeled at two types; calls pick the
  /// instantiation type at random.
  void emitShowSum(const std::string &S) {
    Decls += "concept Show" + S + "<t> { show : fn(t) -> int; } in\n";
    Decls += "model Show" + S + "<int> { show = fun(x : int). imult(x, " +
             lit() + "); } in\n";
    Decls += "model Show" + S + "<bool> { show = fun(b : bool). if b then " +
             lit() + " else " + lit() + "; } in\n";
    Decls += "let sum2" + S + " = (forall t where Show" + S + "<t>. "
             "fun(x : t, y : t). iadd(Show" + S + "<t>.show(x), Show" + S +
             "<t>.show(y))) in\n";
    addCall(&Gen::callShowSum, S);
  }
  std::string callShowSum(const std::string &S) {
    if (pick(2))
      return "sum2" + S + "[bool](" + genBool(2) + ", " + genBool(2) + ")";
    return "sum2" + S + "[int](" + genInt(2) + ", " + genInt(2) + ")";
  }

  /// Associated type `s` with conversions through it, plus a generic
  /// gated on the same-type constraint `Conv<t>.s == bool` (paper
  /// Section 5's same-type constraints).
  void emitAssocConv(const std::string &S) {
    Decls += "concept Conv" + S + "<t> { types s; conv : fn(t) -> s; "
             "comb : fn(s, t) -> t; } in\n";
    Decls += "model Conv" + S + "<int> { types s = bool; "
             "conv = fun(x : int). ilt(x, " + lit() + "); "
             "comb = fun(b : bool, x : int). if b then x else " + lit() +
             "; } in\n";
    Decls += "let pipe" + S + " = (forall t where Conv" + S + "<t>. "
             "fun(x : t). Conv" + S + "<t>.comb(Conv" + S +
             "<t>.conv(x), x)) in\n";
    Decls += "let gate" + S + " = (forall t where Conv" + S + "<t>, Conv" +
             S + "<t>.s == bool. fun(x : t, y : t). if Conv" + S +
             "<t>.conv(x) then y else x) in\n";
    addCall(&Gen::callAssocPipe, S);
    addCall(&Gen::callAssocGate, S);
  }
  std::string callAssocPipe(const std::string &S) {
    return "pipe" + S + "[int](" + genInt(2) + ")";
  }
  std::string callAssocGate(const std::string &S) {
    return "gate" + S + "[int](" + genInt(2) + ", " + genInt(2) + ")";
  }

  /// Refinement: Dbl refines Show; the generic reaches the refined
  /// concept's member through the Dbl constraint alone.
  void emitRefinement(const std::string &S) {
    Decls += "concept ShowR" + S + "<t> { show : fn(t) -> int; } in\n";
    Decls += "concept Dbl" + S + "<t> { refines ShowR" + S + "<t>; "
             "dbl : fn(t) -> t; } in\n";
    Decls += "model ShowR" + S + "<int> { show = fun(x : int). iadd(x, " +
             lit() + "); } in\n";
    Decls += "model Dbl" + S + "<int> { dbl = fun(x : int). imult(x, 2); } "
             "in\n";
    Decls += "let shdb" + S + " = (forall t where Dbl" + S + "<t>. "
             "fun(x : t). ShowR" + S + "<t>.show(Dbl" + S +
             "<t>.dbl(x))) in\n";
    addCall(&Gen::callRefinement, S);
  }
  std::string callRefinement(const std::string &S) {
    return "shdb" + S + "[int](" + genInt(2) + ")";
  }

  /// Same-type constraint between two type parameters, no concepts
  /// (conformance fixture 013's shape).
  void emitSameTypePick(const std::string &S) {
    std::string Cond =
        pick(2) ? "ilt(" + lit() + ", " + lit() + ")" : genBool(0);
    Decls += "let pick" + S + " = (forall a, b where a == b. "
             "fun(x : a, y : b). if " + Cond + " then x else y) in\n";
    addCall(&Gen::callSameTypePick, S);
  }
  std::string callSameTypePick(const std::string &S) {
    return "pick" + S + "[int, int](" + genInt(2) + ", " + genInt(2) + ")";
  }

  /// Generic fix-based list fold over the monoid concept (paper
  /// Figure 5's accumulate).
  void emitListFold(const std::string &S) {
    bool Mult = pick(2) != 0;
    Decls += "concept MonoL" + S + "<t> { binop : fn(t,t) -> t; unit : t; } "
             "in\n";
    Decls += "model MonoL" + S + "<int> { binop = " +
             (Mult ? "imult" : "iadd") + "; unit = " + (Mult ? "1" : "0") +
             "; } in\n";
    Decls += "let fold" + S + " = (forall t where MonoL" + S + "<t>. "
             "fix (fun(go : fn(list t) -> t). fun(ls : list t). "
             "if null[t](ls) then MonoL" + S + "<t>.unit "
             "else MonoL" + S + "<t>.binop(car[t](ls), go(cdr[t](ls)))))"
             " in\n";
    addCall(&Gen::callListFold, S);
  }
  std::string callListFold(const std::string &S) {
    return "fold" + S + "[int](" + genListInt() + ")";
  }

  /// Deeply nested values: a tuple-of-tuple pyramid peeled back with
  /// `nth`, or a cons spine walked down with cdr/car.  Biased deep on
  /// purpose — rendering, equality, and destruction of nested values
  /// must stay iterative in every engine (the recursive-destruction
  /// bug family), and the per-node accounting must agree across
  /// backends on value-heavy programs with almost no calls.
  void emitDeepNest(const std::string &S) {
    Decls += "let id" + S + " = (forall t. fun(x : t). x) in\n";
    addCall(&Gen::callDeepNest, S);
  }
  std::string callDeepNest(const std::string &S) {
    unsigned Depth = 8 + pick(25);
    if (pick(2)) {
      // ((((x, k), k), ...), peeled back to x with `nth _ 0`.
      std::string E = genInt(1);
      for (unsigned I = 0; I != Depth; ++I)
        E = "(" + E + ", " + lit() + ")";
      for (unsigned I = 0; I != Depth; ++I)
        E = "nth (" + E + ") 0";
      return "id" + S + "[int](" + E + ")";
    }
    // A cons spine walked part-way down with cdr, then car.
    std::string E = "nil[int]";
    for (unsigned I = 0; I != Depth; ++I)
      E = "cons[int](" + genInt(1) + ", " + E + ")";
    for (unsigned I = 0, N = pick(Depth); I != N; ++I)
      E = "cdr[int](" + E + ")";
    return "car[int](" + E + ")";
  }

  std::string makeCall(unsigned I) {
    return (this->*CallKinds[I])(CallSuffixes[I]);
  }

  std::string program() {
    void (Gen::*Scenarios[])(const std::string &) = {
        &Gen::emitMonoidFold, &Gen::emitShowSum,      &Gen::emitAssocConv,
        &Gen::emitRefinement, &Gen::emitSameTypePick, &Gen::emitListFold,
        &Gen::emitDeepNest,
    };
    unsigned NumScenarios = 1 + pick(2);
    for (unsigned I = 0; I != NumScenarios; ++I)
      (this->*Scenarios[pick(7)])(std::string(1, char('A' + I)));

    std::ostringstream OS;
    OS << Decls;
    for (unsigned I = 0, N = pick(3); I != N; ++I) {
      std::string Name = "x" + std::to_string(I);
      OS << "let " << Name << " = " << genInt(2) << " in\n";
      IntLocals.push_back(Name);
    }

    std::string E = makeCall(pick(CallKinds.size()));
    if (pick(2))
      E = "iadd(" + E + ", " + makeCall(pick(CallKinds.size())) + ")";
    if (pick(2)) {
      IntLocals.push_back("r");
      OS << "let r = " << E << " in\n";
      E = "iadd(r, " + genInt(1) + ")";
    }
    OS << E << "\n";
    return OS.str();
  }
};

/// Runs one generated program through the full validation surface.
/// Returns an empty string on success, a failure description
/// otherwise.
std::string checkOne(const std::string &Source, unsigned Index,
                     const FuzzOptions &Opts) {
  Frontend FE;
  CompileOutput Out =
      FE.compile("fuzz-" + std::to_string(Index) + ".fg", Source);
  if (!Out.Success)
    return "compilation failed: " + Out.ErrorMessage;

  {
    // Optimize up front (at the sweep's specialization level) so the
    // optimized runs below execute exactly the pipeline under test, with
    // per-pass re-typechecking when requested; execute() reuses the
    // term this builds.
    Validator V(FE.getSfContext(), FE.getPrelude().Types);
    sf::OptimizeOptions OptOpts;
    OptOpts.Specialize = Opts.Specialize;
    if (Opts.ValidatePasses)
      OptOpts.PassHook = V.passHook(Out.SfType);
    FE.optimize(Out, nullptr, OptOpts);
    if (V.failed())
      return V.error();
  }

  struct Outcome {
    std::string Name;
    bool Ok;
    std::string Rendered;
  };
  std::vector<Outcome> Results;
  auto addRun = [&](Backend B, std::optional<sf::SpecializeLevel> Level) {
    ExecRequest Req;
    Req.Engine = B;
    Req.Level = Level;
    Req.Toolchain = Opts.AotToolchain;
    ExecResult R = execute(FE, Out, Req);
    std::string Name = backendName(B);
    if (Level)
      Name += *Level == sf::SpecializeLevel::Full ? " at -O2" : " at -O1";
    Results.push_back(
        {Name, R.ok(), R.ok() ? sf::valueToString(R.Val) : R.Error});
  };
  // Every backend on the translation as is (the tree walker first, as
  // the reference), then the in-process engines at the sweep's level.
  for (const BackendInfo &B : backendRegistry())
    if (B.Kind != Backend::Aot || Opts.IncludeAot)
      addRun(B.Kind, std::nullopt);
  addRun(Backend::Tree, Opts.Specialize);
  addRun(Backend::Vm, Opts.Specialize);
  interp::EvalResult Direct = FE.runDirect(Out);
  Results.push_back({"direct", Direct.ok(),
                     Direct.ok() ? interp::valueToString(Direct.Val)
                                 : Direct.Error});

  const Outcome &Ref = Results.front();
  if (!Ref.Ok)
    return "generated program failed at runtime: " + Ref.Rendered;
  for (size_t I = 1; I != Results.size(); ++I)
    if (Results[I].Ok != Ref.Ok || Results[I].Rendered != Ref.Rendered)
      return "backend `" + Results[I].Name + "` disagrees with `" +
             Ref.Name + "`: `" + Results[I].Rendered + "` vs `" +
             Ref.Rendered + "`";
  return {};
}

} // namespace

std::string validate::generateProgram(uint64_t Seed, unsigned Index) {
  // Golden-ratio odd multiplier decorrelates per-index streams.
  Gen G(Seed ^ (0x9E3779B97F4A7C15ull * (uint64_t(Index) + 1)));
  return G.program();
}

FuzzResult validate::runFuzz(const FuzzOptions &Opts) {
  static std::atomic<uint64_t> &Programs =
      stats::Statistics::global().counter("validate.fuzz.programs");
  static std::atomic<uint64_t> &Failed =
      stats::Statistics::global().counter("validate.fuzz.failures");
  stats::ScopedTimer Timer("validate.fuzz");

  FuzzResult R;
  for (unsigned I = 0; I != Opts.Count; ++I) {
    std::string Source = generateProgram(Opts.Seed, I);
    ++R.Generated;
    ++Programs;
    std::string Message = checkOne(Source, I, Opts);
    if (!Message.empty()) {
      ++Failed;
      R.Failures.push_back({I, Source, Message});
      if (Opts.Log)
        *Opts.Log << "fuzz[" << I << "]: " << Message << "\nprogram:\n"
                  << Source << '\n';
    }
  }
  return R;
}
