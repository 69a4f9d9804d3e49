//===- support/Diagnostics.h - Diagnostic reporting -------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error reporting for the front end.  Library code never throws; it
/// reports into a DiagnosticEngine and returns a null/failed value.
/// Message style follows the LLVM guideline: lowercase first word, no
/// trailing period.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_DIAGNOSTICS_H
#define FG_SUPPORT_DIAGNOSTICS_H

#include "support/SourceLocation.h"
#include <string>
#include <vector>

namespace fg {

class SourceManager;

/// Severity of a diagnostic.
enum class DiagSeverity { Note, Warning, Error };

/// One reported diagnostic: severity, location, and rendered message.
/// EndLoc, when valid, makes [Loc, EndLoc) a source range; render()
/// underlines the whole span (across lines when needed) instead of
/// printing a single caret.
struct Diagnostic {
  DiagSeverity Severity = DiagSeverity::Error;
  SourceLocation Loc;
  SourceLocation EndLoc;
  std::string Message;
};

/// Collects diagnostics produced by the lexer, parser and typechecker.
///
/// The engine owns no source text; it optionally holds a SourceManager
/// pointer so that render() can include file/line/column prefixes and
/// source snippets.
class DiagnosticEngine {
public:
  DiagnosticEngine() = default;
  explicit DiagnosticEngine(const SourceManager *SM) : SM(SM) {}

  /// Reports an error at \p Loc.
  void error(SourceLocation Loc, std::string Message);

  /// Reports an error spanning \p Range.
  void error(SourceRange Range, std::string Message);

  /// Reports a warning at \p Loc.
  void warning(SourceLocation Loc, std::string Message);

  /// Reports a warning spanning \p Range.
  void warning(SourceRange Range, std::string Message);

  /// Attaches an explanatory note to the previous diagnostic.
  void note(SourceLocation Loc, std::string Message);

  bool hasErrors() const { return NumErrors != 0; }
  unsigned getNumErrors() const { return NumErrors; }
  const std::vector<Diagnostic> &getDiagnostics() const { return Diags; }

  /// Number of diagnostics recorded so far; pair with truncate() to
  /// drop the output of a speculative check that turned out not to
  /// matter.
  size_t size() const { return Diags.size(); }

  /// Drops every diagnostic recorded after a size() snapshot.
  void truncate(size_t N);

  /// Forgets all recorded diagnostics (used by tests and the REPL).
  void clear();

  /// Renders all diagnostics into a human-readable string, one per line,
  /// in "file:line:col: severity: message" form when locations resolve.
  std::string render() const;

  /// Renders just the first error message, or an empty string.
  std::string firstError() const;

private:
  const SourceManager *SM = nullptr;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace fg

#endif // FG_SUPPORT_DIAGNOSTICS_H
