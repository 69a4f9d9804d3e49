//===- systemf/Optimize.h - Dictionary specialization -----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A whole-program specializer for translated F_G programs.  The paper
/// contrasts two implementation strategies for generics: C++'s
/// instantiation model (every use specialized, zero abstraction cost)
/// and the dictionary-passing model of the F_G-to-F translation.  This
/// pass recovers the former from the latter:
///
///   * type applications of known type abstractions are inlined
///     (instantiation);
///   * lets binding *values* (dictionaries are tuples of values) are
///     inlined, capture-avoidingly;
///   * projections from known tuples — the compiled form of model
///     member access, `nth (nth d 0) 0` — are constant-folded;
///   * dead pure lets are removed.
///
/// On Figure 5's accumulate this turns every `Monoid<int>.binary_op`
/// into a direct reference to `iadd`, eliminating the dictionary
/// entirely — the "abstraction penalty" ablation measured in
/// BenchEngines.
///
/// The result is still plain System F: tests re-check it with the
/// independent typechecker and compare evaluation results.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_OPTIMIZE_H
#define FG_SYSTEMF_OPTIMIZE_H

#include "systemf/Specialize.h"
#include "systemf/Term.h"
#include "systemf/Type.h"
#include <cstddef>
#include <functional>
#include <unordered_set>
#include <vector>

namespace fg {
namespace sf {

/// Knobs for the specializer.
struct OptimizeOptions {
  /// Whether the -O2 specialization passes (Specialize.h) run on top of
  /// the baseline passes.  Off is the -O1 pipeline.
  SpecializeLevel Specialize = SpecializeLevel::Off;
  /// Per-application cap on the summed structural size of type
  /// arguments accepted by specialize-tyapps.  Nested instantiation
  /// chains (the polymorphic-recursion pattern) double their argument
  /// size at each level, so this bounds the clone cascade; refusals are
  /// counted in OptimizeStats::BudgetHits.
  size_t MaxSpecializeTypeSize = 48;
  /// Names whose type applications specialize-tyapps may hoist into
  /// top-level anchor lets (one per instantiation).  The frontend binds
  /// this to the prelude builtins; null disables hoisting.  Only names
  /// that are *globally* bound to pure values belong here — hoisting
  /// moves the instantiation to program start.
  const std::unordered_set<std::string> *HoistableTyApps = nullptr;

  /// Translation-validation hook: called after every named pass whose
  /// output differs from its input, with the pass name and both terms.
  /// Returning false aborts the pipeline — the optimizer then returns
  /// the rejected pass's *input* (the last accepted term) and records
  /// the pass name in OptimizeStats::AbortedOnPass.  src/validate binds
  /// this to a System F re-typecheck of each pass's output.
  std::function<bool(const char *PassName, const Term *Before,
                     const Term *After)>
      PassHook;

  /// Test-only: an extra rewrite appended to every pipeline iteration
  /// under TestPassName.  ValidateTest injects a deliberately
  /// type-breaking pass here to prove the validator detects the break
  /// and attributes it to the right pass.
  std::function<const Term *(TermArena &Arena, const Term *T)> TestPass;
  const char *TestPassName = "test-pass";
};

/// Counters for reporting and tests.
struct OptimizeStats {
  unsigned TypeAppsInlined = 0;
  unsigned LetsInlined = 0;
  unsigned ProjectionsFolded = 0;
  unsigned DeadLetsRemoved = 0;
  size_t NodesBefore = 0;
  size_t NodesAfter = 0;
  /// Pass rejected by OptimizeOptions::PassHook, or null if none.
  const char *AbortedOnPass = nullptr;

  /// Specialization counters (all zero when Specialize is Off).
  unsigned ClonesCreated = 0;        ///< Specialized function copies made.
  unsigned SpecCacheHits = 0;        ///< Clone-cache hits.
  unsigned MembersDevirtualized = 0; ///< Member projections devirtualized.
  unsigned DictParamsEliminated = 0; ///< Dead dictionary params dropped.
  unsigned DictFieldsEliminated = 0; ///< Dead record fields dropped.
  /// Specializations declined by the size budgets plus pipeline
  /// iterations cut short by the growth budget.
  unsigned BudgetHits = 0;
  /// Pass runs that returned their input unchanged, and pass runs
  /// skipped outright because the input was already known to be a
  /// fixpoint for that pass.
  unsigned NoopPassRuns = 0;
  unsigned NoopPassSkips = 0;
};

/// The named passes of the specialization pipeline, in the order each
/// iteration runs them (exposed so tools and tests can enumerate them).
const std::vector<const char *> &optimizePassNames();

/// Returns the number of AST nodes in \p T.
size_t countTermNodes(const Term *T);

/// Specializes \p T.  New nodes are allocated from \p Arena; types are
/// interned in \p Ctx.  Semantics- and type-preserving (checked by the
/// test suite).
const Term *specialize(TermArena &Arena, TypeContext &Ctx, const Term *T,
                       const OptimizeOptions &Opts = OptimizeOptions(),
                       OptimizeStats *Stats = nullptr);

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_OPTIMIZE_H
