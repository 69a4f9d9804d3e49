//===- systemf/Specialize.h - Whole-program specialization ------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The aggressive (-O2) specialization passes layered on top of the
/// baseline optimizer pipeline in Optimize.cpp.  Where the baseline
/// passes only reduce redexes that are already syntactically adjacent
/// (TyApp of TyAbs, App of Abs, projection of a literal tuple), these
/// passes recover C++-template-style monomorphization from the
/// dictionary-passing translation even when the redex is hidden behind
/// a binding:
///
///   * specialize-tyapps clones a let-bound type abstraction at each
///     concrete type-argument vector it is applied to, sharing clones
///     through a per-run cache keyed on (function, type-args);
///   * devirtualize-dicts propagates the element-wise shape of known
///     dictionary records through let/app chains and rewrites member
///     projections into direct references to the model's witness;
///   * eliminate-dead-dicts drops dictionary parameters and record
///     fields left unused once the members are devirtualized.
///
/// Each pass is one sharing-preserving traversal and is run as a named
/// pass of the Optimize.cpp pipeline, so the PR-4 translation validator
/// re-typechecks every one of its outputs.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_SPECIALIZE_H
#define FG_SYSTEMF_SPECIALIZE_H

#include "systemf/Term.h"
#include "systemf/Type.h"
#include <cstddef>
#include <string>
#include <unordered_set>

namespace fg {
namespace sf {

/// Whether the specialization passes run.
enum class SpecializeLevel {
  Off,  ///< Baseline pipeline only (-O1).
  Full, ///< + specialize-tyapps, devirtualize-dicts and
        ///< eliminate-dead-dicts (-O2).
};

/// Counters the specialization passes maintain; the pipeline copies
/// them into OptimizeStats after a run.
struct SpecializeCounters {
  unsigned ClonesCreated = 0;        ///< Specialized function copies made.
  unsigned CacheHits = 0;            ///< Re-used an existing clone.
  unsigned MembersDevirtualized = 0; ///< MEM projections rewritten.
  unsigned LetBetaExpansions = 0;    ///< App-of-Abs turned into lets.
  unsigned DictParamsEliminated = 0; ///< Dead dictionary params dropped.
  unsigned DictFieldsEliminated = 0; ///< Dead record fields dropped.
  unsigned BudgetHits = 0;           ///< Specializations declined by budget.
};

/// The stateful pass object.  One instance lives for a whole pipeline
/// run so fresh-name counters never collide across iterations, while
/// the specialization cache is rebuilt per pass invocation (clone lets
/// from a previous iteration may since have been inlined or removed, so
/// cached names must not outlive the term they were minted for).
class SpecializePasses {
public:
  /// \p HoistableTyApps names the variables (in practice: the prelude
  /// builtins) whose type applications may be hoisted to one top-level
  /// anchor per instantiation.  Null disables hoisting.
  SpecializePasses(TermArena &Arena, TypeContext &Ctx,
                   const std::unordered_set<std::string> *HoistableTyApps);
  ~SpecializePasses();

  SpecializePasses(const SpecializePasses &) = delete;
  SpecializePasses &operator=(const SpecializePasses &) = delete;

  /// Clones let-bound type abstractions at concrete argument vectors.
  /// \p NodeBudget bounds the total size of new clone bodies this run;
  /// \p MaxTypeArgSize bounds the summed size of one application's type
  /// arguments (the blow-up guard for nested instantiation chains).
  const Term *runTypeAppSpecialize(const Term *T, size_t NodeBudget,
                                   size_t MaxTypeArgSize);

  /// Propagates dictionary shapes and rewrites member projections.
  const Term *runDevirtualizeDicts(const Term *T);

  /// Drops dictionary parameters and record fields proven dead.
  const Term *runEliminateDeadDicts(const Term *T);

  SpecializeCounters &counters() { return Counters; }

private:
  TermArena &Arena;
  TypeContext &Ctx;
  const std::unordered_set<std::string> *Hoistable;
  SpecializeCounters Counters;
  /// Fresh-name counters, monotonic across the whole pipeline run.
  unsigned NextCloneId = 0;  ///< "$s" — specialized clones and anchors.
  unsigned NextAnchorId = 0; ///< "$a" — dictionary element anchors.
  unsigned NextBetaId = 0;   ///< "$b" — let-beta parameter bindings.
  unsigned NextRename = 0;   ///< "$v" — capture-avoidance renames.
};

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_SPECIALIZE_H
