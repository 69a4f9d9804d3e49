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
#include "vm/Disasm.h"
#include "vm/Emit.h"
#include <cctype>
#include <fstream>
#include <sstream>

using namespace fg;
using namespace fg::server;

namespace {

/// First word of \p S after leading whitespace (REPL input
/// classification; see docs/REPL.md).
std::string firstWord(const std::string &S) {
  size_t I = S.find_first_not_of(" \t\r\n");
  if (I == std::string::npos)
    return "";
  size_t E = I;
  while (E < S.size() &&
         (std::isalnum(static_cast<unsigned char>(S[E])) || S[E] == '_'))
    ++E;
  return S.substr(I, E - I);
}

bool isDeclKeyword(const std::string &W) {
  return W == "let" || W == "concept" || W == "model" || W == "type" ||
         W == "use";
}

/// Best-effort declared-name extraction for REPL feedback: the next
/// identifier after the keyword (for `model [name] ...`, the bracketed
/// name).
std::string declaredName(const std::string &Input, const std::string &Kind) {
  size_t I = Input.find(Kind) + Kind.size();
  while (I < Input.size() &&
         (std::isspace(static_cast<unsigned char>(Input[I])) ||
          Input[I] == '['))
    ++I;
  size_t E = I;
  while (E < Input.size() &&
         (std::isalnum(static_cast<unsigned char>(Input[E])) ||
          Input[E] == '_'))
    ++E;
  return Input.substr(I, E - I);
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r\n");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r\n");
  return S.substr(B, E - B + 1);
}

/// Rejects sources with a module header on source-text requests
/// (imports need a filesystem anchor; the `path` request form has
/// one).  Returns false with \p Out filled in when rejected.
bool rejectModuleHeader(const std::string &Source, const std::string &Name,
                        Outcome &Out) {
  ModuleHeader Header;
  std::string Error;
  if (!modules::ModuleLoader::scanHeader(Name, Source, Header, Error)) {
    Out.Success = false;
    Out.Diagnostics = Error + "\n";
    return false;
  }
  if (Header.HasModuleDecl || !Header.Imports.empty()) {
    Out.Success = false;
    Out.Error = "source has a module header; submit it as a file via the "
                "`path` parameter so imports can be resolved";
    return false;
  }
  return true;
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

} // namespace

Session::Session(std::shared_ptr<ArtifactCache> Cache, Options Opts)
    : Cache(std::move(Cache)), Opts(std::move(Opts)) {
  stats::Statistics::global().add("server.sessions.opened");
}

Outcome Session::checkImpl(const std::string &Source, const std::string &Name,
                           const std::string &KeyKind, uint64_t Salt) {
  CacheKey Key = ArtifactCache::key(KeyKind, Source, Salt);
  if (ArtifactPtr A = Cache->get(Key))
    return fromArtifact(A);

  stats::ScopedTimer Timer("server.check");
  Outcome O;
  Frontend FE;
  CompileOutput Out = FE.compile(Name, Source);
  O.Success = Out.Success;
  if (Out.Success)
    O.Type = typeToString(Out.FgType);
  else
    O.Diagnostics = FE.getDiags().render();
  Cache->put(Key, toArtifact(O));
  return O;
}

Outcome Session::check(const std::string &Source, const std::string &Name) {
  Outcome Rejected;
  if (!rejectModuleHeader(Source, Name, Rejected))
    return Rejected;
  return checkImpl(Source, Name, "check:v1", 0);
}

Outcome Session::checkPath(const std::string &Path) {
  modules::ModuleLoader::Options LO;
  LO.SearchPaths = Opts.SearchPaths;
  modules::ModuleLoader Loader(LO);
  std::string Root;
  Outcome O;
  if (!Loader.loadFile(Path, Root, O.Error))
    return O;

  // The key covers the entire import cone, so an edit in any imported
  // file invalidates — the same discipline as `.fgi` interface hashes.
  CacheKey Key =
      ArtifactCache::key("check-path:v1", "", Loader.contentHash(Root));
  if (ArtifactPtr A = Cache->get(Key))
    return fromArtifact(A);

  stats::ScopedTimer Timer("server.check");
  Frontend FE;
  std::string Error;
  const Term *Program = Loader.link(FE, Root, Error);
  if (!Program) {
    O.Success = false;
    O.Diagnostics = Error + "\n" + FE.getDiags().render();
    Cache->put(Key, toArtifact(O));
    return O;
  }
  CompileOutput Out = FE.compileTerm(Program);
  O.Success = Out.Success;
  if (Out.Success)
    O.Type = typeToString(Out.FgType);
  else
    O.Diagnostics = FE.getDiags().render();
  Cache->put(Key, toArtifact(O));
  return O;
}

Outcome Session::run(const std::string &Source, const std::string &Name,
                     Backend Engine, int OptLevel, const std::string &Path) {
  Outcome O;
  std::string KeyKind = std::string("run:v2:") + backendName(Engine) + ":" +
                        std::to_string(OptLevel);
  CacheKey Key;
  modules::ModuleLoader::Options LO;
  LO.SearchPaths = Opts.SearchPaths;
  modules::ModuleLoader Loader(LO);
  std::string Root;
  if (!Path.empty()) {
    if (!Loader.loadFile(Path, Root, O.Error))
      return O;
    Key = ArtifactCache::key(KeyKind + ":path", "", Loader.contentHash(Root));
  } else {
    if (!rejectModuleHeader(Source, Name, O))
      return O;
    Key = ArtifactCache::key(KeyKind, Source, 0);
  }
  if (ArtifactPtr A = Cache->get(Key))
    return fromArtifact(A);

  stats::ScopedTimer Timer("server.run");
  Frontend FE;
  CompileOutput Out;
  if (!Path.empty()) {
    std::string Error;
    const Term *Program = Loader.link(FE, Root, Error);
    if (!Program) {
      O.Success = false;
      O.Diagnostics = Error + "\n" + FE.getDiags().render();
      Cache->put(Key, toArtifact(O));
      return O;
    }
    Out = FE.compileTerm(Program);
  } else {
    Out = FE.compile(Name, Source);
  }
  if (!Out.Success) {
    O.Success = false;
    O.Diagnostics = FE.getDiags().render();
    Cache->put(Key, toArtifact(O));
    return O;
  }
  O.Success = true;
  O.Type = typeToString(Out.FgType);

  ExecRequest Req;
  Req.Engine = Engine;
  if (OptLevel > 0)
    Req.Level = OptLevel >= 2 ? sf::SpecializeLevel::Full
                              : sf::SpecializeLevel::Off;
  ExecResult R = execute(FE, Out, Req);
  if (R.Unavailable) {
    O.BackendUnavailable = true;
    O.Error = R.Error;
    return O; // Deliberately uncached; see Outcome::BackendUnavailable.
  }
  if (!R.ok())
    O.Error = R.Error;
  else
    O.Value = sf::valueToString(R.Val);
  Cache->put(Key, toArtifact(O));
  return O;
}

Outcome Session::typeOf(const std::string &Expr) {
  return checkImpl(Decls + Expr, "<repl>", "type:v1", 0);
}

Outcome Session::dumpBytecode(const std::string &Source,
                              const std::string &Name) {
  Outcome Rejected;
  if (!rejectModuleHeader(Source, Name, Rejected))
    return Rejected;
  CacheKey Key = ArtifactCache::key("bytecode:v1", Source, 0);
  if (ArtifactPtr A = Cache->get(Key))
    return fromArtifact(A);

  stats::ScopedTimer Timer("server.dump_bytecode");
  Outcome O;
  Frontend FE;
  CompileOutput Out = FE.compile(Name, Source);
  if (!Out.Success) {
    O.Success = false;
    O.Diagnostics = FE.getDiags().render();
    Cache->put(Key, toArtifact(O));
    return O;
  }
  std::string Error;
  std::shared_ptr<const vm::Chunk> Chunk =
      vm::compile(Out.SfTerm, FE.getPrelude(), &Error);
  if (!Chunk) {
    O.Success = false;
    O.Error = "cannot compile to bytecode: " + Error;
    Cache->put(Key, toArtifact(O));
    return O;
  }
  O.Success = true;
  O.Type = typeToString(Out.FgType);
  O.Bytecode = vm::disassemble(*Chunk);
  Cache->put(Key, toArtifact(O));
  return O;
}

Outcome Session::eval(const std::string &RawInput, Backend Engine) {
  stats::ScopedTimer Timer("server.eval");
  std::string Input = trim(RawInput);
  Outcome O;
  if (Input.empty()) {
    O.Success = true;
    return O;
  }
  bool DeclCandidate = isDeclKeyword(firstWord(Input));

  // Expression attempt first: a complete expression (even one starting
  // with `let ... in ...`) evaluates; otherwise a leading declaration
  // keyword means the input extends the scope (docs/REPL.md §2).
  {
    Frontend FE;
    CompileOutput Out = FE.compile("<repl>", Decls + Input);
    if (Out.Success) {
      O.Success = true;
      O.Type = typeToString(Out.FgType);
      ExecRequest Req;
      Req.Engine = Engine;
      ExecResult R = execute(FE, Out, Req);
      if (R.Unavailable) {
        O.BackendUnavailable = true;
        O.Error = R.Error;
        return O;
      }
      if (!R.ok())
        O.Error = R.Error;
      else
        O.Value = sf::valueToString(R.Val);
      return O;
    }
    if (!DeclCandidate) {
      O.Success = false;
      O.Diagnostics = FE.getDiags().render();
      return O;
    }
  }

  // Declaration probe: the input must form a valid spine item, i.e.
  // `<scope> <input> in 0` must compile.
  Frontend FE;
  CompileOutput Probe = FE.compile("<repl>", Decls + Input + " in 0");
  if (!Probe.Success) {
    O.Success = false;
    O.Diagnostics = FE.getDiags().render();
    return O;
  }
  O.Success = true;
  O.IsDecl = true;
  O.DeclKind = firstWord(Input);
  O.DeclName = declaredName(Input, O.DeclKind);
  Decls += Input + " in\n";
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
  modules::ModuleLoader::Options LO;
  LO.SearchPaths = Opts.SearchPaths;
  modules::ModuleLoader Loader(LO);
  std::string Root;
  if (!Loader.loadFile(Path, Root, O.Error))
    return O;

  // Evaluate the file itself (its imports resolved) ...
  Frontend FE;
  std::string Error;
  const Term *Program = Loader.link(FE, Root, Error);
  if (!Program) {
    O.Success = false;
    O.Diagnostics = Error + "\n" + FE.getDiags().render();
    return O;
  }
  CompileOutput Out = FE.compileTerm(Program);
  if (!Out.Success) {
    O.Success = false;
    O.Diagnostics = FE.getDiags().render();
    return O;
  }
  O.Success = true;
  O.Type = typeToString(Out.FgType);
  sf::EvalResult R = FE.run(Out);
  if (!R.ok())
    O.Error = R.Error;
  else
    O.Value = sf::valueToString(R.Val);

  // ... then splice the whole closure's declaration spines into the
  // session scope, deps outermost — textual linking.
  Frontend SpineFE;
  std::string Spine;
  if (!Loader.spineText(SpineFE, Root, Spine, Error)) {
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
