//===- server/Repl.cpp - Interactive fgcd REPL ----------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/Repl.h"
#include "support/Stats.h"
#include <cctype>
#include <istream>
#include <ostream>
#include <sstream>

using namespace fg;
using namespace fg::server;

namespace {

const char *Banner =
    "fgcd REPL — F_G interactive session (:help for commands)\n";

const char *Help =
    "Commands:\n"
    "  :help, :h             show this help\n"
    "  :quit, :q             leave the REPL\n"
    "  :type EXPR, :t EXPR   show the type of EXPR in the current scope\n"
    "  :dump-bytecode EXPR, :bc EXPR\n"
    "                        compile EXPR to VM bytecode and disassemble\n"
    "  :load PATH            run a .fg file and splice its declarations\n"
    "                        (and its imports') into the current scope\n"
    "  :decls                print the accumulated declaration scope\n"
    "  :reset                drop the accumulated scope\n"
    "  :stats                print compiler statistics counters\n"
    "Anything else: a top-level declaration (let / concept / model /\n"
    "type / use) extends the scope; an expression evaluates in it.\n";

/// First `:word` and the rest of the line, trimmed.
void splitCommand(const std::string &Line, std::string &Cmd,
                  std::string &Arg) {
  size_t I = 0;
  while (I < Line.size() && !std::isspace(static_cast<unsigned char>(Line[I])))
    ++I;
  Cmd = Line.substr(0, I);
  while (I < Line.size() && std::isspace(static_cast<unsigned char>(Line[I])))
    ++I;
  size_t End = Line.size();
  while (End > I && std::isspace(static_cast<unsigned char>(Line[End - 1])))
    --End;
  Arg = Line.substr(I, End - I);
}

/// Prints an Outcome the human way: diagnostics / errors verbatim,
/// otherwise whatever payload the request produced, then the runtime
/// error of a program that compiled.
void printOutcome(std::ostream &Out, const Outcome &O) {
  if (!O.Success) {
    if (!O.Diagnostics.empty()) {
      Out << O.Diagnostics;
      if (O.Diagnostics.back() != '\n')
        Out << "\n";
    }
    if (!O.Error.empty())
      Out << "error: " << O.Error << "\n";
    if (O.Diagnostics.empty() && O.Error.empty())
      Out << "error: compilation failed\n";
    return;
  }
  if (O.IsDecl) {
    Out << "defined " << O.DeclKind;
    if (!O.DeclName.empty())
      Out << " " << O.DeclName;
    if (!O.Type.empty())
      Out << " : " << O.Type;
    Out << "\n";
    return;
  }
  if (!O.Bytecode.empty()) {
    Out << O.Bytecode;
    if (O.Bytecode.back() != '\n')
      Out << "\n";
    return;
  }
  if (!O.Value.empty() && !O.Type.empty())
    Out << O.Value << " : " << O.Type << "\n";
  else if (!O.Type.empty())
    Out << O.Type << "\n";
  else if (!O.Value.empty())
    Out << O.Value << "\n";
  // The input compiled but failed at run time, as `:load` reports it.
  if (!O.Error.empty())
    Out << "error: " << O.Error << "\n";
}

} // namespace

int fg::server::runRepl(Session &S, std::istream &In, std::ostream &Out) {
  Out << Banner;
  std::string Line;
  while (true) {
    Out << "fg> " << std::flush;
    if (!std::getline(In, Line))
      break;
    // Trim surrounding whitespace; blank lines are prompts only.
    size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);

    if (Line[0] != ':') {
      printOutcome(Out, S.eval(Line));
      continue;
    }

    std::string Cmd, Arg;
    splitCommand(Line, Cmd, Arg);
    if (Cmd == ":quit" || Cmd == ":q")
      break;
    if (Cmd == ":help" || Cmd == ":h") {
      Out << Help;
    } else if (Cmd == ":type" || Cmd == ":t") {
      if (Arg.empty()) {
        Out << "usage: :type EXPR\n";
        continue;
      }
      printOutcome(Out, S.typeOf(Arg));
    } else if (Cmd == ":dump-bytecode" || Cmd == ":bc") {
      if (Arg.empty()) {
        Out << "usage: :dump-bytecode EXPR\n";
        continue;
      }
      // Compile the expression inside the accumulated scope, exactly
      // like evaluation would.
      printOutcome(Out, S.dumpBytecode(S.decls() + Arg, "<repl>"));
    } else if (Cmd == ":load") {
      if (Arg.empty()) {
        Out << "usage: :load PATH\n";
        continue;
      }
      Outcome O = S.load(Arg);
      if (!O.Success) {
        printOutcome(Out, O);
      } else {
        Out << "loaded " << Arg;
        if (!O.Value.empty())
          Out << " — value " << O.Value
              << (O.Type.empty() ? "" : " : " + O.Type);
        Out << "\n";
        // The declarations loaded, but evaluating the file hit a
        // runtime error — surface it instead of swallowing it.
        if (!O.Error.empty())
          Out << "error: " << O.Error << "\n";
      }
    } else if (Cmd == ":decls") {
      if (S.decls().empty())
        Out << "(no declarations)\n";
      else
        Out << S.decls();
    } else if (Cmd == ":reset") {
      S.reset();
      Out << "scope reset\n";
    } else if (Cmd == ":stats") {
      std::ostringstream OS;
      stats::Statistics::global().printJson(OS);
      Out << OS.str();
      if (!OS.str().empty() && OS.str().back() != '\n')
        Out << "\n";
    } else {
      Out << "unknown command " << Cmd << " (:help for commands)\n";
    }
  }
  Out << "\n";
  return 0;
}
