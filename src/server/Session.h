//===- server/Session.h - One compiler-service session ----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session object at the heart of `fgcd`: everything one client —
/// a protocol connection (server/Protocol.h) or an interactive REPL
/// (server/Repl.h) — accumulates across requests.  Both surfaces are
/// thin wrappers over the same methods, cling/MetaProcessor-style.
/// A request opens its program with fg::open (modules/Loader.h) and
/// runs it with fg::execute (syntax/Frontend.h), as fgc does.
///
/// Isolation and sharing, the two invariants the whole server design
/// hangs on:
///
///  * **Per-session isolation.**  A session owns its incremental
///    declaration scope and nothing else long-lived.  Every request
///    compiles in a *fresh* Frontend (arenas, interned types,
///    diagnostics all request-local), so no compiler state is ever
///    shared between sessions, and a wedged compilation cannot poison
///    the next request.  Constructing a Frontend is cheap (prelude
///    setup); the expensive, shareable part is what the cache holds.
///
///  * **Shared immutable artifacts.**  Sessions share one
///    ArtifactCache of plain-string compilation results keyed by
///    content hash.  Byte-identical inputs (the editor fleet re-checking
///    an unchanged file, N CI jobs checking the same module) hit
///    without recompiling, across sessions and threads.
///
/// The incremental REPL scope is *textual*: declarations accumulate as
/// the source prefix `d1 in d2 in ... in`, and each expression
/// re-elaborates `prefix + expr` from scratch.  Re-elaboration keeps
/// the semantics exactly the batch language semantics — shadowing,
/// model redefinition, `use` activation all behave as nested
/// declarations because they *are* nested declarations — and the
/// artifact cache absorbs the repeated prefix cost for type queries.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SERVER_SESSION_H
#define FG_SERVER_SESSION_H

#include "server/ArtifactCache.h"
#include "support/Backends.h"
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fg {

class Frontend;
struct CompileOutput;

namespace server {

/// What one session request produced.  `Success` is about the
/// *compilation*: a program that fails to typecheck yields Success =
/// false with Diagnostics, which at the protocol layer is still a
/// well-formed response, not a protocol error.  `Error` carries
/// runtime/internal failures (evaluation errors, unreadable files).
struct Outcome {
  bool Success = false;
  bool Cached = false;      ///< Served from the shared artifact cache.
  std::string Type;         ///< Rendered F_G type.
  std::string Value;        ///< Rendered value (run/eval).
  std::string Bytecode;     ///< VM disassembly (dump-bytecode).
  std::string Diagnostics;  ///< Rendered compile diagnostics.
  std::string Error;        ///< Runtime / I-O error, empty otherwise.
  /// The requested backend cannot run in this environment (the AOT
  /// backend without a host C++ compiler).  Error carries the one-line
  /// reason; the protocol layer turns this into a structured
  /// `backend_unavailable` error, and the outcome is never cached —
  /// installing a compiler must take effect without a server restart.
  bool BackendUnavailable = false;
  bool IsDecl = false;      ///< REPL eval consumed a declaration.
  std::string DeclKind;     ///< let/concept/model/type/use for IsDecl.
  std::string DeclName;     ///< Declared name when recoverable.
};

/// One client's session.  Not thread-safe (each session belongs to one
/// connection); distinct sessions are safe to run concurrently.
class Session {
public:
  struct Options {
    /// `-I` search paths for path-based requests and `:load`.
    std::vector<std::string> SearchPaths;
  };

  explicit Session(std::shared_ptr<ArtifactCache> Cache,
                   Options Opts = Options());

  /// Typechecks a self-contained program (no module header) named
  /// \p Name.  With \p Path nonempty the file at \p Path is checked
  /// instead, its imports resolved (whole-program link).  Cached on
  /// the program's key (fg::open): the name and the text, or every
  /// path and text of the file's import cone.
  Outcome check(const std::string &Source,
                const std::string &Name = "<check>",
                const std::string &Path = "");

  /// Compiles and evaluates on \p Engine at \p OptLevel 0 (-O0), 1
  /// (-O1) or 2 (-O2): the engine runs the term the level selects, as
  /// in `fgc` (fg::execute).  Cached (evaluation is deterministic — F_G
  /// is pure).  With \p Path nonempty the program is loaded from disk
  /// with imports resolved and \p Source is ignored.
  Outcome run(const std::string &Source, const std::string &Name,
              Backend Engine = Backend::Tree, int OptLevel = 0,
              const std::string &Path = "");

  /// Type of \p Expr inside this session's incremental scope.  Cached.
  Outcome typeOf(const std::string &Expr);

  /// Compiles a program to VM bytecode and disassembles it.  Cached.
  Outcome dumpBytecode(const std::string &Source,
                       const std::string &Name = "<bytecode>");

  /// One REPL input: a top-level declaration (`let x = 5`,
  /// `model Eq<int> { ... }`, `use name`, ...) extends the session
  /// scope; anything else is evaluated as an expression in that scope
  /// on \p Engine at -O0, like run() at optimize 0.  See docs/REPL.md
  /// for the classification rule.
  Outcome eval(const std::string &Input, Backend Engine = Backend::Tree);

  /// `:load`: evaluates the file (imports resolved) and splices its —
  /// and its imports' — declaration spines into the session scope.
  Outcome load(const std::string &Path);

  /// The accumulated declaration prefix (`:decls`, tests).
  const std::string &decls() const { return Decls; }

  /// Drops the incremental scope (`:reset`).  The shared artifact
  /// cache is unaffected.
  void reset() { Decls.clear(); }

  ArtifactCache &cache() { return *Cache; }

private:
  /// What a cached request kind does with a program that compiled,
  /// beyond reporting its type.
  using AfterCompile =
      std::function<void(Frontend &, CompileOutput &, Outcome &)>;

  /// The one path of the cached request kinds: opens the program
  /// (\p Source named \p Name, or the file at \p Path with its import
  /// cone), answers from the shared cache on a hit, and otherwise
  /// compiles it under the timer \p TimerName, runs \p Then (when set)
  /// if it compiled, and caches the outcome under \p Kind and the
  /// program's key.
  Outcome cached(const std::string &Kind, const char *TimerName,
                 const std::string &Source, const std::string &Name,
                 const std::string &Path, const AfterCompile &Then);

  std::shared_ptr<ArtifactCache> Cache;
  Options Opts;
  std::string Decls; ///< Textual incremental scope; see file comment.
};

} // namespace server
} // namespace fg

#endif // FG_SERVER_SESSION_H
