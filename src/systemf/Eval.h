//===- systemf/Eval.h - CBV evaluator for System F --------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A call-by-value environment/closure evaluator for System F.  The
/// paper's runtime mechanism — implicitly passed model dictionaries —
/// bottoms out here as ordinary tuple arguments.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_EVAL_H
#define FG_SYSTEMF_EVAL_H

#include "systemf/Term.h"
#include "systemf/Value.h"

namespace fg {
namespace sf {

/// Resource limits for an evaluation.  Property tests use small limits
/// so that generated divergent programs fail fast instead of hanging.
struct EvalOptions {
  uint64_t MaxSteps = 200'000'000; ///< Eval node visits before aborting.
  unsigned MaxDepth = 100'000;     ///< Recursion depth before aborting.
};

/// Evaluates System F terms.  Stateless between calls except for the
/// step counter, which is reset by eval().
class Evaluator {
public:
  explicit Evaluator(EvalOptions Opts = EvalOptions()) : Opts(Opts) {}

  /// Evaluates \p T under environment \p Env.
  EvalResult eval(const Term *T, EnvPtr Env);

  /// Applies a function value to arguments (exposed for builtins/tests).
  EvalResult apply(const ValuePtr &Fn, const std::vector<ValuePtr> &Args);

private:
  EvalResult evalTerm(const Term *T, const EnvPtr &Env);
  EvalResult applyImpl(const ValuePtr &Fn, const std::vector<ValuePtr> &Args);

  EvalOptions Opts;
  uint64_t Steps = 0;
  unsigned Depth = 0;
};

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_EVAL_H
