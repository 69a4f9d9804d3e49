//===- modules/Batch.h - Parallel separate compilation ----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batch checker: typechecks every module of a loaded dependency
/// graph separately, scheduling across a thread pool as a topological
/// wavefront — a module starts as soon as all its imports have
/// finished, so independent modules check concurrently.
///
/// Each worker checks one module in its own Frontend against the
/// *serialized interfaces* of its dependencies (modules/Interface.h):
/// no dependency body is re-parsed or re-checked.  A successfully
/// checked module writes its interface next to its source (or into
/// `--module-cache`); a later batch whose recorded hash still matches
/// skips the module entirely (an interface cache hit).  Each interface
/// is parsed once per batch, when its cached file is read or its fresh
/// text is written, and every dependent instantiates that parsed form.
/// The schedule comes from one walk of the loader's indexed graph over
/// all roots; a worker walks a module's own closure only on a miss,
/// when it instantiates the closure's interfaces.
///
/// Observability (support/Stats.h): counters `modules.loaded`,
/// `modules.compiled`, `modules.cache.hits` / `.misses` (with
/// `modules.cache.invalidations.source` / `.transitive` attributing
/// each stale interface to an edited source or a cascading dependency)
/// (hit_rate derived at emission), `batch.wavefront.max_width`; timers
/// `modules.instantiate`, `modules.serialize` plus the regular phase
/// timers (`parser.parse` times each module's parse).
///
//===----------------------------------------------------------------------===//

#ifndef FG_MODULES_BATCH_H
#define FG_MODULES_BATCH_H

#include "modules/Loader.h"
#include <string>
#include <vector>

namespace fg {
namespace modules {

struct BatchOptions {
  /// Worker threads; 0 means one per hardware thread.
  unsigned Jobs = 1;
  /// Directory for `.fgi` files; empty writes next to each source.
  std::string CacheDir;
  /// Verify each module's translation with the System F checker.
  bool Verify = true;
};

struct ModuleBuildResult {
  std::string Module;
  bool Success = false;
  /// True when the on-disk interface was reused without re-checking.
  bool CacheHit = false;
  /// True when the module was not attempted because an import failed.
  bool Skipped = false;
  std::string Error;
};

struct BatchResult {
  bool Success = false;
  /// Per-module outcomes in dependency order.
  std::vector<ModuleBuildResult> Results;
  /// Most modules ever checking concurrently.
  unsigned MaxWavefront = 0;

  const ModuleBuildResult *find(const std::string &Module) const {
    for (const ModuleBuildResult &R : Results)
      if (R.Module == Module)
        return &R;
    return nullptr;
  }
};

/// Checks \p Roots (module names loaded into \p Loader) and their
/// transitive imports.
BatchResult runBatch(const ModuleLoader &Loader,
                     const std::vector<std::string> &Roots,
                     const BatchOptions &Opts = BatchOptions());

} // namespace modules
} // namespace fg

#endif // FG_MODULES_BATCH_H
