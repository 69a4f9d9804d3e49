//===- server/Repl.h - Interactive fgcd REPL --------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interactive read-eval-print loop behind `fgcd --repl`: a thin
/// human-facing veneer over server/Session.h, in the style of cling's
/// MetaProcessor.  Plain input lines are fed to Session::eval — an
/// expression evaluates and prints `value : type`, a top-level
/// declaration (let / concept / model / type / use) is checked and
/// accumulated into the session scope for every later line.  Lines
/// starting with `:` are meta-commands (`:type`, `:dump-bytecode`,
/// `:load`, ...); docs/REPL.md documents all of them with a worked
/// generic-programming transcript.
///
/// Output is deliberately plain and stable — ReplTest pins golden
/// transcripts against it.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SERVER_REPL_H
#define FG_SERVER_REPL_H

#include "server/Session.h"
#include <iosfwd>

namespace fg {
namespace server {

/// Runs the REPL until `:quit` or EOF, printing a banner and an `fg> `
/// prompt before each line.  Returns the process exit code.
int runRepl(Session &S, std::istream &In, std::ostream &Out);

} // namespace server
} // namespace fg

#endif // FG_SERVER_REPL_H
