//===- validate/Fuzz.h - Well-typed F_G program fuzzer ----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of well-typed-by-construction F_G programs —
/// concepts, models, refinement, associated types, same-type
/// constraints, generic functions, fixpoints — and a runner that
/// drives the whole validation surface with them: Theorems 1 and 2
/// after Translate, per-pass re-typechecking through Optimize, and
/// the cross-backend differential contract (every backend, unoptimized
/// and at the sweep's level, must agree with the tree walker and with
/// the direct F_G interpreter).
///
/// Exposed by the driver as `fgc --fuzz N --seed S`.  Determinism is
/// part of the contract: (Seed, Index) fully determines a program, so
/// a failure report names a reproducible input.
///
//===----------------------------------------------------------------------===//

#ifndef FG_VALIDATE_FUZZ_H
#define FG_VALIDATE_FUZZ_H

#include "aot/Toolchain.h"
#include "systemf/Specialize.h"
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace fg {
namespace validate {

/// Controls one fuzzing run.
struct FuzzOptions {
  unsigned Count = 100;        ///< Number of programs to generate.
  uint64_t Seed = 42;          ///< Base seed; program i uses (Seed, i).
  bool ValidatePasses = true;  ///< Re-typecheck every optimizer pass.
  /// Specialization level the optimizer runs at while fuzzing; the tree
  /// and vm engines then run the optimized term, cross-checked against
  /// every unoptimized run.
  sf::SpecializeLevel Specialize = sf::SpecializeLevel::Off;
  /// Also run every program through the AOT backend (aot/Aot.h) and
  /// hold it to the same identical-outcome contract.  Opt-in (driver
  /// `--fuzz N --backend=aot`): each program costs a host-compiler
  /// invocation, amortized by the AOT build cache.
  bool IncludeAot = false;
  aot::ToolchainOptions AotToolchain; ///< Toolchain for IncludeAot.
  std::ostream *Log = nullptr; ///< Failure/progress log (may be null).
};

/// One failing program, for reporting and fixture promotion.
struct FuzzFailure {
  unsigned Index = 0;
  std::string Source;
  std::string Message;
};

/// Outcome of a fuzzing run.
struct FuzzResult {
  unsigned Generated = 0;
  std::vector<FuzzFailure> Failures;
  bool ok() const { return Failures.empty(); }
};

/// Deterministically generates the \p Index-th program for \p Seed.
/// Every generated program is well typed by construction and total
/// (no runtime errors), so compilation, validation and all backends
/// must succeed and agree.
std::string generateProgram(uint64_t Seed, unsigned Index);

/// Generates and checks \p Opts.Count programs: compile with
/// translation verification, optimize with per-pass validation (when
/// ValidatePasses), then run every backend at -O0, tree and vm at the
/// sweep's level, and the direct F_G interpreter, and require identical
/// outcomes.
FuzzResult runFuzz(const FuzzOptions &Opts);

} // namespace validate
} // namespace fg

#endif // FG_VALIDATE_FUZZ_H
