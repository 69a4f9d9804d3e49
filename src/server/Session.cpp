//===- server/Session.cpp - One compiler-service session ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/Session.h"
#include "modules/Loader.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "syntax/Lexer.h"
#include "vm/Disasm.h"
#include "vm/Emit.h"

using namespace fg;
using namespace fg::server;

namespace {

/// How a REPL input starts (docs/REPL.md §2), read with the resumable
/// lexer as ModuleLoader::scanHeader reads a header, so comments and
/// layout never matter: the first token, and for a declaration, its
/// keyword and the name it declares, the next identifier (for
/// `model [name] ...`, the bracketed name).
struct InputStart {
  TokenKind First = TokenKind::Eof;
  std::string Keyword;
  std::string Name;
};

InputStart scanStart(const std::string &Input) {
  SourceManager SM;
  DiagnosticEngine Diags(&SM);
  Lexer Lex(SM, SM.addBuffer("<repl>", Input), Diags);
  InputStart S;
  Token Tok = Lex.next();
  S.First = Tok.Kind;
  switch (Tok.Kind) {
  case TokenKind::KwLet:
  case TokenKind::KwConcept:
  case TokenKind::KwModel:
  case TokenKind::KwType:
  case TokenKind::KwUse:
    break;
  default:
    return S;
  }
  S.Keyword = std::move(Tok.Text);
  Tok = Lex.next();
  if (Tok.is(TokenKind::LBracket))
    Tok = Lex.next();
  if (Tok.is(TokenKind::Ident))
    S.Name = std::move(Tok.Text);
  return S;
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r\n");
  return S.substr(B, E - B + 1);
}

Outcome fromArtifact(const ArtifactPtr &A) {
  Outcome O;
  O.Success = A->Success;
  O.Cached = true;
  O.Type = A->Type;
  O.Value = A->Value;
  O.Bytecode = A->Bytecode;
  O.Diagnostics = A->Diagnostics;
  O.Error = A->Error;
  return O;
}

ArtifactPtr toArtifact(const Outcome &O) {
  auto A = std::make_shared<Artifact>();
  A->Success = O.Success;
  A->Type = O.Type;
  A->Value = O.Value;
  A->Bytecode = O.Bytecode;
  A->Diagnostics = O.Diagnostics;
  A->Error = O.Error;
  return A;
}

/// Opens the program of a request: \p Source under the buffer name
/// \p Name, or, with \p Path nonempty, that file and its import cone.
OpenedProgram openRequest(const Session::Options &Opts,
                          const std::string &Source, const std::string &Name,
                          const std::string &Path) {
  OpenRequest Req;
  Req.Path = Path;
  Req.SearchPaths = Opts.SearchPaths;
  Req.Source = Source;
  Req.Name = Name;
  return fg::open(std::move(Req));
}

/// Compiles \p P into \p FE and fills in the type, or the diagnostics
/// when it does not compile.
bool compile(Frontend &FE, const OpenedProgram &P, CompileOutput &Out,
             Outcome &O) {
  Out = P.compile(FE, CompileOptions(), O.Diagnostics);
  O.Success = Out.Success;
  if (Out.Success)
    O.Type = typeToString(Out.FgType);
  return Out.Success;
}

/// Records what running the program produced: its value, or the runtime
/// error of a program that compiled.
void report(const ExecResult &R, Outcome &O) {
  O.BackendUnavailable = R.Unavailable;
  if (!R.ok())
    O.Error = R.Error;
  else
    O.Value = sf::valueToString(R.Val);
}

} // namespace

Session::Session(std::shared_ptr<ArtifactCache> Cache, Options Opts)
    : Cache(std::move(Cache)), Opts(std::move(Opts)) {
  stats::Statistics::global().add("server.sessions.opened");
}

Outcome Session::cached(const std::string &Kind, const char *TimerName,
                        const std::string &Source, const std::string &Name,
                        const std::string &Path,
                        const AfterCompile &Then) {
  Outcome O;
  OpenedProgram P = openRequest(Opts, Source, Name, Path);
  if (!P.ok()) {
    O.Error = P.error();
    return O;
  }
  // A hit compares the source text byte for byte (ArtifactCache::acquire);
  // the program's key covers the buffer name, or the whole import cone.
  // A miss while another request compiles the same key waits for it.
  CacheKey Key = ArtifactCache::key(Kind, Source, P.key());
  ArtifactCache::Lookup L = Cache->acquire(Key);
  if (L.A)
    return fromArtifact(L.A);

  stats::ScopedTimer Timer(TimerName);
  Frontend FE;
  CompileOutput Out;
  if (compile(FE, P, Out, O) && Then)
    Then(FE, Out, O);
  if (!O.BackendUnavailable) // See Outcome::BackendUnavailable.
    Cache->put(Key, toArtifact(O));
  else if (L.Claimed)
    Cache->release(Key);
  return O;
}

Outcome Session::check(const std::string &Source, const std::string &Name,
                       const std::string &Path) {
  return cached("check:v1", "server.check", Source, Name, Path, nullptr);
}

Outcome Session::run(const std::string &Source, const std::string &Name,
                     Backend Engine, int OptLevel, const std::string &Path) {
  std::string Kind = std::string("run:v2:") + backendName(Engine) + ":" +
                     std::to_string(OptLevel);
  return cached(Kind, "server.run", Source, Name, Path,
                [&](Frontend &FE, CompileOutput &Out, Outcome &O) {
                  ExecRequest Req;
                  Req.Engine = Engine;
                  if (OptLevel > 0)
                    Req.Level = OptLevel >= 2 ? sf::SpecializeLevel::Full
                                              : sf::SpecializeLevel::Off;
                  report(execute(FE, Out, Req), O);
                });
}

Outcome Session::typeOf(const std::string &Expr) {
  return cached("type:v1", "server.check", Decls + Expr, "<repl>", "",
                nullptr);
}

Outcome Session::dumpBytecode(const std::string &Source,
                              const std::string &Name) {
  return cached("bytecode:v1", "server.dump_bytecode", Source, Name, "",
                [](Frontend &FE, CompileOutput &Out, Outcome &O) {
                  std::string Error;
                  std::shared_ptr<const vm::Chunk> Chunk =
                      vm::compile(Out.SfTerm, FE.getPrelude(), &Error);
                  if (!Chunk) {
                    O.Success = false;
                    O.Type.clear();
                    O.Error = "cannot compile to bytecode: " + Error;
                    return;
                  }
                  O.Bytecode = vm::disassemble(*Chunk);
                });
}

Outcome Session::eval(const std::string &RawInput, Backend Engine) {
  stats::ScopedTimer Timer("server.eval");
  std::string Input = trim(RawInput);
  InputStart Start = scanStart(Input);
  Outcome O;
  // A blank or comment-only input declares and evaluates nothing.
  if (Start.First == TokenKind::Eof) {
    O.Success = true;
    return O;
  }
  bool DeclCandidate = !Start.Keyword.empty();

  // Expression attempt first: a complete expression (even one starting
  // with `let ... in ...`) evaluates, and one that parses but does not
  // check reports its own errors; otherwise a leading declaration
  // keyword means the input extends the scope (docs/REPL.md §2).
  {
    Frontend FE;
    CompileOutput Out = FE.compile("<repl>", Decls + Input);
    if (Out.Success) {
      O.Success = true;
      O.Type = typeToString(Out.FgType);
      ExecRequest Req;
      Req.Engine = Engine;
      report(execute(FE, Out, Req), O);
      return O;
    }
    if (!DeclCandidate || Out.Ast) {
      O.Success = false;
      O.Diagnostics = FE.getDiags().render();
      return O;
    }
  }

  // Declaration probe: the input must form a valid spine item, i.e.
  // `<scope> <input> in 0` must compile.  The `in 0` goes on a line of
  // its own, so that a diagnostic quotes the input as typed.
  Frontend FE;
  CompileOutput Probe = FE.compile("<repl>", Decls + Input + "\nin 0");
  if (!Probe.Success) {
    O.Success = false;
    O.Diagnostics = FE.getDiags().render();
    return O;
  }
  O.Success = true;
  O.IsDecl = true;
  O.DeclKind = Start.Keyword;
  O.DeclName = Start.Name;
  // `in` goes on a line of its own when a `//` comment on the input's
  // last line would swallow it (rfind's npos + 1 is 0).
  bool Comment = Input.find("//", Input.rfind('\n') + 1) != std::string::npos;
  Decls += Input + (Comment ? "\nin\n" : " in\n");
  // For a value binding, report the bound name's type.
  if (O.DeclKind == "let" && !O.DeclName.empty()) {
    Frontend FE2;
    CompileOutput Typed = FE2.compile("<repl>", Decls + O.DeclName);
    if (Typed.Success)
      O.Type = typeToString(Typed.FgType);
  }
  return O;
}

Outcome Session::load(const std::string &Path) {
  stats::ScopedTimer Timer("server.load");
  Outcome O;
  OpenedProgram P = openRequest(Opts, "", Path, Path);
  if (!P.ok()) {
    O.Error = P.error();
    return O;
  }
  // Evaluate the file itself (its imports resolved) ...
  Frontend FE;
  CompileOutput Out;
  if (!compile(FE, P, Out, O))
    return O;
  report(execute(FE, Out, ExecRequest()), O);

  // ... then splice the whole closure's declaration spines into the
  // session scope, deps outermost — textual linking.
  Frontend SpineFE;
  std::string Spine, Error;
  if (!P.loader().spineText(SpineFE, P.root(), Spine, Error)) {
    // The file ran but its declarations could not be spliced into the
    // session scope — report failure, not a half-loaded success.
    O.Success = false;
    O.Error = "declarations not loaded: " + Error;
    return O;
  }
  Decls += Spine;
  stats::Statistics::global().add("server.loads");
  return O;
}
