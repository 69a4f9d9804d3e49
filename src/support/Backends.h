//===- support/Backends.h - Execution backend registry ----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single registry of System F execution backends.  Everything that
/// names backends — `fgc --backend=`, the `fgcd` help text, the wire
/// protocol's `backend` parameter, and the error messages all three
/// print — derives from this table, so adding an engine means adding
/// one enumerator and one row here (plus the engine and its case in
/// fg::execute); DriverCliTest fails if a registered backend is missing
/// from either binary's `--help`.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_BACKENDS_H
#define FG_SUPPORT_BACKENDS_H

#include <string>
#include <vector>

namespace fg {

/// A System F execution engine.
enum class Backend {
  Tree, ///< The reference tree-walking evaluator (systemf/Eval.h).
  Vm,   ///< The register bytecode VM (vm/VM.h).
  Aot,  ///< The ahead-of-time C++ transpiler (aot/Aot.h).
};

/// One execution backend, as the user-facing surfaces see it.
struct BackendInfo {
  Backend Kind;
  const char *Name;        ///< The `--backend=` / protocol value.
  const char *Description; ///< One line for the generated help table.
};

/// Every registered backend, in presentation order (the default first).
const std::vector<BackendInfo> &backendRegistry();

/// Parses a `--backend=` / protocol value.  Returns false on an unknown
/// name, leaving \p B untouched.
bool parseBackend(const std::string &Name, Backend &B);

/// The registered name of \p B (`tree`, `vm`, `aot`).
const char *backendName(Backend B);

/// `tree, vm, aot` — for error messages.
std::string backendNameList();

/// The generated `--backend=` help table: one aligned
/// `<indent><name>  <description>` line per backend.
std::string backendHelpTable(const std::string &Indent);

} // namespace fg

#endif // FG_SUPPORT_BACKENDS_H
