//===- aot/Toolchain.h - Host C++ toolchain driver --------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Locates the host C++ compiler, compiles emitted translation units
/// into per-program executables under a content-hash build cache, and
/// runs them capturing the printed value / abort diagnostic.
///
/// Compiler discovery ladder (first hit wins):
///   1. ToolchainOptions::Cxx       (the `--aot-cxx=` flag)
///   2. $FGC_AOT_CXX
///   3. FGC_HOST_CXX                (CMAKE_CXX_COMPILER, baked at build)
///   4. $CXX
///   5. c++ / g++ / clang++ on $PATH
///
/// The cache key is FNV-1a 64 over the emitter version, the compiler
/// path, the flags, and the full generated C++ — so a new emitter, a
/// different compiler, different sanitizer flags, or any change to the
/// program each get their own artifact; stale artifacts are simply
/// never looked up (mirroring the server ArtifactCache's discipline of
/// keying on every input).  Artifacts land in `--aot-cache=` /
/// $FGC_AOT_CACHE / `./.fgc.aot-cache` and are written atomically:
/// each compile writes its source and binary under temporary names of
/// its own (pid plus a per-process counter) and renames them into
/// place, so concurrent processes, and threads of one process, can
/// share a dir.
///
/// Observability: aot.cache.{hits,misses} counters; aot.compile /
/// aot.run timers (gated like every other phase timer).
///
//===----------------------------------------------------------------------===//

#ifndef FG_AOT_TOOLCHAIN_H
#define FG_AOT_TOOLCHAIN_H

#include "systemf/Eval.h"
#include <cstdint>
#include <string>

namespace fg {
namespace aot {

/// Where and how to compile.  Default-constructed options use the
/// environment-driven discovery ladder and the default cache dir.
struct ToolchainOptions {
  std::string Cxx;           ///< Explicit compiler (--aot-cxx=); "" = auto.
  std::string CacheDir;      ///< Build cache dir (--aot-cache=); "" = auto.
  std::string ExtraCxxFlags; ///< Appended flags; "" = $FGC_AOT_CXXFLAGS.
  bool KeepCpp = false;      ///< Keep the generated .cpp next to the binary.
};

/// The compiler the ladder resolves to, or "" with a one-line
/// diagnostic in \p WhyNot (actionable: names the ladder).
std::string findCompiler(const ToolchainOptions &Opts,
                         std::string *WhyNot = nullptr);

/// True when `--backend=aot` can work here at all.
bool toolchainAvailable(const ToolchainOptions &Opts = ToolchainOptions(),
                        std::string *WhyNot = nullptr);

/// The 16-hex-digit artifact key for \p Cpp compiled by \p Cxx with
/// \p Flags under emitter \p Version.  Exposed (with the version
/// parameter) so tests can assert that a different emitter version
/// invalidates the artifact.
std::string artifactKey(const std::string &Cpp, const std::string &Cxx,
                        const std::string &Flags, unsigned Version);

/// A compiled (or cache-hit) program.
struct CompiledProgram {
  std::string ExePath;
  std::string CppPath; ///< Non-empty when the .cpp was kept.
  bool CacheHit = false;
  std::string Error; ///< Empty on success.
  bool ok() const { return Error.empty(); }
};

/// Compiles \p Cpp under the build cache; a cache hit skips the host
/// compiler entirely.
CompiledProgram compileProgram(const std::string &Cpp,
                               const ToolchainOptions &Opts);

/// Outcome of running a compiled program.
struct RunOutput {
  int ExitCode = -1;
  std::string Payload;      ///< Rendered value (exit 0) or error (exit 3).
  long long BenchNsPerRun = 0; ///< From --repeat bench mode; 0 otherwise.
  std::string Error;        ///< Spawn/protocol failure; empty otherwise.
  bool ok() const { return Error.empty(); }
};

/// Runs \p ExePath with the evaluation limits of \p Opts; \p Repeat > 1
/// re-runs the program in-process (bench mode) and fills BenchNsPerRun.
RunOutput runProgram(const std::string &ExePath, const sf::EvalOptions &Opts,
                     long long Repeat = 1);

} // namespace aot
} // namespace fg

#endif // FG_AOT_TOOLCHAIN_H
