//===- systemf/Eval.cpp - CBV evaluator for System F ----------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Eval.h"
#include "support/Stats.h"
#include <cassert>

using namespace fg;
using namespace fg::sf;

namespace {

/// RAII depth guard for the evaluator's recursion counter.
struct DepthGuard {
  unsigned &Depth;
  explicit DepthGuard(unsigned &D) : Depth(D) { ++Depth; }
  ~DepthGuard() { --Depth; }
};

} // namespace

EvalResult Evaluator::eval(const Term *T, EnvPtr Env) {
  stats::ScopedTimer Timer("eval.run");
  Steps = 0;
  Depth = 0;
  EvalResult R = evalTerm(T, Env);
  static std::atomic<uint64_t> &StepCount =
      stats::Statistics::global().counter("eval.steps");
  StepCount += Steps;
  return R;
}

EvalResult Evaluator::apply(const ValuePtr &Fn,
                            const std::vector<ValuePtr> &Args) {
  return applyImpl(Fn, Args);
}

EvalResult Evaluator::evalTerm(const Term *T, const EnvPtr &Env) {
  if (++Steps > Opts.MaxSteps)
    return EvalResult::failure("evaluation exceeded the step limit");
  if (Depth >= Opts.MaxDepth)
    return EvalResult::failure("evaluation exceeded the recursion depth "
                               "limit");
  DepthGuard Guard(Depth);

  switch (T->getKind()) {
  case TermKind::IntLit:
    return EvalResult::success(
        boxInt(cast<IntLit>(T)->getValue()));
  case TermKind::BoolLit:
    return EvalResult::success(
        boxBool(cast<BoolLit>(T)->getValue()));

  case TermKind::Var: {
    const auto *V = cast<VarTerm>(T);
    if (ValuePtr Val = envLookup(Env, V->getName()))
      return EvalResult::success(std::move(Val));
    return EvalResult::failure("unbound variable `" + V->getName() +
                               "` at runtime");
  }

  case TermKind::Abs:
    return EvalResult::success(
        std::make_shared<ClosureValue>(cast<AbsTerm>(T), Env));

  case TermKind::TyAbs:
    return EvalResult::success(
        std::make_shared<TyClosureValue>(cast<TyAbsTerm>(T), Env));

  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    EvalResult Fn = evalTerm(A->getFn(), Env);
    if (!Fn.ok())
      return Fn;
    std::vector<ValuePtr> Args;
    Args.reserve(A->getArgs().size());
    for (const Term *ArgTerm : A->getArgs()) {
      EvalResult Arg = evalTerm(ArgTerm, Env);
      if (!Arg.ok())
        return Arg;
      Args.push_back(std::move(Arg.Val));
    }
    return applyImpl(Fn.Val, Args);
  }

  case TermKind::TyApp: {
    const auto *A = cast<TyAppTerm>(T);
    EvalResult Fn = evalTerm(A->getFn(), Env);
    if (!Fn.ok())
      return Fn;
    // Types are erased: instantiating a type abstraction evaluates its
    // body; all other values (builtins like `nil`) pass through.
    if (const auto *TC = dyn_cast<TyClosureValue>(Fn.Val.get()))
      return evalTerm(TC->getFn()->getBody(), TC->getEnv());
    return Fn;
  }

  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    EvalResult Init = evalTerm(L->getInit(), Env);
    if (!Init.ok())
      return Init;
    return evalTerm(L->getBody(), envBind(Env, L->getName(), Init.Val));
  }

  case TermKind::Tuple: {
    const auto *Tu = cast<TupleTerm>(T);
    std::vector<ValuePtr> Elems;
    Elems.reserve(Tu->getElements().size());
    for (const Term *E : Tu->getElements()) {
      EvalResult R = evalTerm(E, Env);
      if (!R.ok())
        return R;
      Elems.push_back(std::move(R.Val));
    }
    return EvalResult::success(std::make_shared<TupleValue>(std::move(Elems)));
  }

  case TermKind::Nth: {
    const auto *N = cast<NthTerm>(T);
    EvalResult R = evalTerm(N->getTuple(), Env);
    if (!R.ok())
      return R;
    const auto *Tu = dyn_cast<TupleValue>(R.Val.get());
    if (!Tu)
      return EvalResult::failure("`nth` applied to a non-tuple value");
    if (N->getIndex() >= Tu->getElements().size())
      return EvalResult::failure("tuple index out of range at runtime");
    return EvalResult::success(Tu->getElements()[N->getIndex()]);
  }

  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    EvalResult Cond = evalTerm(I->getCond(), Env);
    if (!Cond.ok())
      return Cond;
    const auto *B = dyn_cast<BoolValue>(Cond.Val.get());
    if (!B)
      return EvalResult::failure("`if` condition evaluated to a non-boolean");
    return evalTerm(B->getValue() ? I->getThen() : I->getElse(), Env);
  }

  case TermKind::Fix: {
    const auto *F = cast<FixTerm>(T);
    EvalResult Fn = evalTerm(F->getOperand(), Env);
    if (!Fn.ok())
      return Fn;
    return EvalResult::success(std::make_shared<FixValue>(Fn.Val));
  }
  }
  assert(false && "unknown term kind");
  return EvalResult::failure("internal error: unknown term kind");
}

EvalResult Evaluator::applyImpl(const ValuePtr &Fn,
                                const std::vector<ValuePtr> &Args) {
  if (++Steps > Opts.MaxSteps)
    return EvalResult::failure("evaluation exceeded the step limit");
  if (Depth >= Opts.MaxDepth)
    return EvalResult::failure("evaluation exceeded the recursion depth "
                               "limit");
  DepthGuard Guard(Depth);

  switch (Fn->getKind()) {
  case ValueKind::Closure: {
    const auto *C = cast<ClosureValue>(Fn.get());
    const auto &Params = C->getFn()->getParams();
    if (Params.size() != Args.size())
      return EvalResult::failure("function called with wrong arity");
    EnvPtr Env = C->getEnv();
    for (size_t I = 0; I != Args.size(); ++I)
      Env = envBind(Env, Params[I].Name, Args[I]);
    return evalTerm(C->getFn()->getBody(), Env);
  }

  case ValueKind::Fix: {
    // (fix f)(v...) unrolls to (f (fix f))(v...).
    const auto *FV = cast<FixValue>(Fn.get());
    EvalResult Unrolled = applyImpl(FV->getFn(), {Fn});
    if (!Unrolled.ok())
      return Unrolled;
    return applyImpl(Unrolled.Val, Args);
  }

  case ValueKind::Builtin: {
    const auto *B = cast<BuiltinValue>(Fn.get());
    if (B->getArity() != Args.size())
      return EvalResult::failure("builtin `" + B->getName() +
                                 "` called with wrong arity");
    return B->invoke(Args);
  }

  case ValueKind::Int:
  case ValueKind::Bool:
  case ValueKind::Tuple:
  case ValueKind::List:
  case ValueKind::TyClosure:
    return EvalResult::failure("attempt to call a non-function value `" +
                               valueToString(Fn.get()) + "`");
  case ValueKind::VmClosure:
  case ValueKind::VmTyClosure:
    return EvalResult::failure("VM closure passed to the tree-walking "
                               "evaluator");
  }
  assert(false && "unknown value kind");
  return EvalResult::failure("internal error: unknown value kind");
}
