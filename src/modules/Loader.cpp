//===- modules/Loader.cpp - Module graph loading and linking --------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "modules/Loader.h"
#include "modules/Interface.h"
#include "support/Hash.h"
#include "support/Stats.h"
#include "syntax/Frontend.h"
#include "syntax/Lexer.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace fg;
using namespace fg::modules;

namespace fs = std::filesystem;

bool ModuleLoader::scanHeader(const std::string &BufferName,
                              const std::string &Source, ModuleHeader &Header,
                              std::string &Error) {
  // A throwaway lexing context.  Tokens are pulled only until the first
  // one that cannot continue `[module X;] (import Y;)*`, so the body is
  // never lexed here: its errors are reported by the real parse later.
  SourceManager SM;
  DiagnosticEngine Diags(&SM);
  uint32_t BufferId = SM.addBuffer(BufferName, Source);
  stats::ScopedTimer Timer("lexer.lex");
  Lexer Lex(SM, BufferId, Diags);
  Token Tok = Lex.next();
  auto advance = [&] { Tok = Lex.next(); };

  Header = ModuleHeader();
  Header.Loc = Tok.Loc;
  if (Tok.is(TokenKind::KwModule)) {
    advance();
    if (!Tok.is(TokenKind::Ident)) {
      Error = BufferName + ": expected module name after `module`";
      return false;
    }
    Header.HasModuleDecl = true;
    Header.Name = std::move(Tok.Text);
    advance();
    if (!Tok.is(TokenKind::Semi)) {
      Error = BufferName + ": expected `;` after module name";
      return false;
    }
    advance();
  }
  while (Tok.is(TokenKind::KwImport)) {
    SourceLocation Loc = Tok.Loc;
    advance();
    if (!Tok.is(TokenKind::Ident)) {
      Error = BufferName + ": expected module name after `import`";
      return false;
    }
    Header.Imports.push_back({std::move(Tok.Text), Loc});
    advance();
    if (!Tok.is(TokenKind::Semi)) {
      Error = BufferName + ": expected `;` after import name";
      return false;
    }
    advance();
  }
  return true;
}

std::string ModuleLoader::resolveImport(const std::string &Name,
                                        const std::string &ImporterDir,
                                        std::string &Error) const {
  std::vector<std::string> Searched;
  auto tryDir = [&](const fs::path &Dir) -> std::string {
    fs::path Candidate = Dir / (Name + ".fg");
    std::error_code EC;
    // Only a regular file (through symlinks) is a module, so a
    // directory named `<Name>.fg` does not hide one on a later path.
    if (fs::is_regular_file(Candidate, EC))
      return Candidate.string();
    Searched.push_back(Dir.empty() ? std::string(".") : Dir.string());
    return "";
  };
  if (std::string P = tryDir(ImporterDir); !P.empty())
    return P;
  for (const std::string &Dir : Opts.SearchPaths)
    if (std::string P = tryDir(Dir); !P.empty())
      return P;
  std::string Dirs;
  for (const std::string &D : Searched)
    Dirs += (Dirs.empty() ? "" : ", ") + D;
  Error = "module `" + Name + "` not found (searched: " + Dirs + ")";
  return "";
}

const ModuleUnit *ModuleLoader::find(const std::string &Name) const {
  auto It = Units.find(Name);
  return It == Units.end() ? nullptr : &It->second;
}

bool ModuleLoader::loadFile(const std::string &Path, std::string &RootName,
                            std::string &Error) {
  // Iterative DFS with explicit frames: a corpus-scale chain can be
  // tens of thousands of modules deep, which must not translate into
  // call-stack depth.  A frame holds one file mid-visit; its unit is
  // registered post-order, once every import below it has loaded.
  struct Frame {
    std::string Path;
    std::string Name;
    std::string Dir;
    std::string Source;
    ModuleHeader Header;
    size_t NextImport = 0;
  };
  std::vector<Frame> Stack;
  std::set<std::string> InStack; // O(log d) cycle probe, not O(d).

  // Reads and validates one file and pushes its frame.  Sets \p Skip
  // (without pushing) when the module is already registered.
  auto enter = [&](const std::string &FilePath, bool &Skip) -> bool {
    Skip = false;
    std::string Stem = fs::path(FilePath).stem().string();

    std::ifstream In(FilePath, std::ios::binary);
    if (!In) {
      Error = "cannot read `" + FilePath + "`";
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();

    Frame F;
    F.Path = FilePath;
    F.Source = Buf.str();
    // A directory opens like a file and reads as nothing.
    std::error_code EC;
    if (F.Source.empty() && fs::is_directory(FilePath, EC)) {
      Error = "cannot read `" + FilePath + "`: is a directory";
      return false;
    }
    if (!scanHeader(FilePath, F.Source, F.Header, Error))
      return false;
    if (F.Header.HasModuleDecl && F.Header.Name != Stem) {
      Error = FilePath + ": module `" + F.Header.Name +
              "` must live in a file named `" + F.Header.Name + ".fg`";
      return false;
    }
    F.Name = Stem;

    if (const ModuleUnit *Existing = find(Stem)) {
      if (fs::equivalent(Existing->Path, FilePath, EC)) {
        Skip = true;
        return true;
      }
      Error = "two files define module `" + Stem + "`: " + Existing->Path +
              " and " + FilePath;
      return false;
    }

    F.Dir = fs::path(FilePath).parent_path().string();
    InStack.insert(Stem);
    Stack.push_back(std::move(F));
    return true;
  };

  bool RootSkip;
  if (!enter(Path, RootSkip))
    return false;
  RootName = fs::path(Path).stem().string();
  if (RootSkip)
    return true;

  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (F.NextImport < F.Header.Imports.size()) {
      const ModuleHeader::Import &Imp = F.Header.Imports[F.NextImport++];
      if (InStack.count(Imp.Name)) {
        std::string Cycle;
        auto It = std::find_if(
            Stack.begin(), Stack.end(),
            [&](const Frame &G) { return G.Name == Imp.Name; });
        for (; It != Stack.end(); ++It)
          Cycle += It->Name + " -> ";
        Error = F.Path + ": import cycle: " + Cycle + Imp.Name;
        return false;
      }
      if (find(Imp.Name))
        continue;
      std::string ImpPath = resolveImport(Imp.Name, F.Dir, Error);
      if (ImpPath.empty()) {
        Error = F.Path + ": " + Error;
        return false;
      }
      // `enter` may reallocate the frame stack; F is dead after this.
      bool Skip;
      if (!enter(ImpPath, Skip))
        return false;
      continue;
    }

    // Post-order: every import is registered, so register this unit.
    std::string Name = F.Name;
    ModuleUnit U;
    U.Name = Name;
    U.Path = std::move(F.Path);
    U.Source = std::move(F.Source);
    U.Imports = std::move(F.Header.Imports);
    for (const ModuleHeader::Import &Imp : U.Imports)
      U.Deps.push_back(find(Imp.Name));
    U.Id = static_cast<unsigned>(Units.size());
    U.HasModuleDecl = F.Header.HasModuleDecl;
    InStack.erase(Name);
    Units.emplace(Name, std::move(U));
    stats::Statistics::global().add("modules.loaded");
    Stack.pop_back();
  }
  return true;
}

std::vector<const ModuleUnit *>
ModuleLoader::topoOrder(const std::vector<const ModuleUnit *> &Roots) const {
  std::vector<const ModuleUnit *> Order;
  std::vector<char> Visited(Units.size());
  // Iterative DFS, post-order: a module lands after all its imports.
  struct Frame {
    const ModuleUnit *U;
    size_t NextDep = 0;
  };
  std::vector<Frame> WorkStack;
  auto visit = [&](const ModuleUnit *U) {
    if (!Visited[U->Id]) {
      Visited[U->Id] = 1;
      WorkStack.push_back({U});
    }
  };
  for (const ModuleUnit *Root : Roots) {
    visit(Root);
    while (!WorkStack.empty()) {
      Frame &F = WorkStack.back();
      if (F.NextDep < F.U->Deps.size()) {
        visit(F.U->Deps[F.NextDep++]); // May reallocate; F is dead.
        continue;
      }
      Order.push_back(F.U);
      WorkStack.pop_back();
    }
  }
  return Order;
}

bool ModuleLoader::parseClosure(Frontend &FE,
                                const std::vector<const ModuleUnit *> &Order,
                                std::vector<const Term *> &Asts,
                                std::string &Error) const {
  // Parse every module in dependency order.  Concepts and type aliases
  // resolve lexically at parse time, so each module's parser scopes are
  // seeded with the names its (transitive) imports declare; installing
  // them in dependency order makes later modules shadow earlier ones,
  // exactly as the spliced spine nesting will.  Export lists are
  // indexed by ModuleUnit::Id.
  std::vector<std::vector<std::pair<std::string, unsigned>>> ConceptExports(
      Units.size()),
      AliasExports(Units.size());
  for (const ModuleUnit *U : Order) {
    ParserSeeds Seeds;
    std::vector<const ModuleUnit *> Closure = topoOrder({U});
    Closure.pop_back(); // The module itself.
    for (const ModuleUnit *Dep : Closure) {
      const auto &Concepts = ConceptExports[Dep->Id];
      Seeds.Concepts.insert(Seeds.Concepts.end(), Concepts.begin(),
                            Concepts.end());
      const auto &Aliases = AliasExports[Dep->Id];
      Seeds.TypeVars.insert(Seeds.TypeVars.end(), Aliases.begin(),
                            Aliases.end());
    }

    uint32_t BufferId = FE.getSourceManager().addBuffer(U->Path, U->Source);
    Parser P(FE.getSourceManager(), FE.getDiags(), FE.getFgContext(),
             FE.getFgArena());
    ModuleHeader Header;
    const Term *Ast = P.parseModule(BufferId, Header, Seeds);
    if (!Ast) {
      Error = FE.getDiags().firstError();
      return false;
    }
    Asts.push_back(Ast);

    SpineScan S = scanSpine(Ast);
    for (const Term *N : S.Nodes) {
      if (const auto *CD = dyn_cast<ConceptDeclTerm>(N))
        ConceptExports[U->Id].emplace_back(CD->getName(), CD->getConceptId());
      else if (const auto *TA = dyn_cast<TypeAliasTerm>(N))
        AliasExports[U->Id].emplace_back(TA->getName(), TA->getParamId());
    }
  }
  return true;
}

const Term *ModuleLoader::link(Frontend &FE, const std::string &Root,
                               std::string &Error) const {
  const ModuleUnit *RootU = find(Root);
  if (!RootU) {
    Error = "module `" + Root + "` is not loaded";
    return nullptr;
  }
  std::vector<const ModuleUnit *> Order = topoOrder({RootU});
  std::vector<const Term *> Asts;
  if (!parseClosure(FE, Order, Asts, Error))
    return nullptr;

  // Splice: root innermost (keeping its tail), dependencies' spines
  // wrapped around it in reverse dependency order, their tails dropped.
  const Term *Program = Asts.back();
  for (size_t I = Order.size() - 1; I-- > 0;)
    Program = rebuildSpine(FE.getFgArena(), Asts[I], Program);
  return Program;
}

/// FNV-1a 64 of \p Parts chained onto \p H, each closed by a NUL so
/// that ("ab", "c") and ("a", "bc") differ.
static uint64_t hashParts(uint64_t H,
                          std::initializer_list<const std::string *> Parts) {
  for (const std::string *Part : Parts) {
    H = fnv1a64(*Part, H);
    H = fnv1a64(std::string_view("\0", 1), H);
  }
  return H;
}

uint64_t ModuleLoader::contentHash(const std::string &Root) const {
  const ModuleUnit *RootU = find(Root);
  if (!RootU)
    return 0;
  uint64_t H = fnv1a64("fg-cone-2");
  for (const ModuleUnit *U : topoOrder({RootU}))
    H = hashParts(H, {&U->Path, &U->Name, &U->Source});
  return H;
}

/// The location of \p T's *leftmost* token.  Application and
/// type-application nodes carry the location of their argument list,
/// not of the callee (`iadd(a, b)` is located at the `(`), so cutting
/// module text at a tail expression's own location would slice the
/// callee into the declaration spine; follow the callee chain instead.
static SourceLocation leftmostLoc(const Term *T) {
  SourceLocation Best = T->getLoc();
  while (true) {
    if (const auto *A = dyn_cast<AppTerm>(T))
      T = A->getFn();
    else if (const auto *TA = dyn_cast<TyAppTerm>(T))
      T = TA->getFn();
    else
      break;
    SourceLocation L = T->getLoc();
    if (L.Line < Best.Line ||
        (L.Line == Best.Line && L.Column < Best.Column))
      Best = L;
  }
  return Best;
}

/// The location of the last `in` in \p Src before \p Tail: the one that
/// closes the spine's last declaration.  Cutting there, not at the tail,
/// leaves behind the parentheses that open a tail like `(a)`.
static SourceLocation lastInBefore(const std::string &Src,
                                   SourceLocation Tail) {
  SourceManager SM;
  DiagnosticEngine Diags(&SM);
  Lexer Lex(SM, SM.addBuffer("<spine>", Src), Diags);
  SourceLocation In;
  for (Token Tok = Lex.next();
       !Tok.is(TokenKind::Eof) &&
       (Tok.Loc.Line < Tail.Line ||
        (Tok.Loc.Line == Tail.Line && Tok.Loc.Column < Tail.Column));
       Tok = Lex.next())
    if (Tok.is(TokenKind::KwIn))
      In = Tok.Loc;
  return In;
}

/// Byte offset of 1-based (\p Line, \p Col) in \p Src.
static size_t offsetOf(const std::string &Src, uint32_t Line, uint32_t Col) {
  size_t Off = 0;
  for (uint32_t L = 1; L < Line; ++L) {
    size_t NL = Src.find('\n', Off);
    if (NL == std::string::npos)
      return Src.size();
    Off = NL + 1;
  }
  return std::min(Src.size(), Off + (Col ? Col - 1 : 0));
}

bool ModuleLoader::spineText(Frontend &FE, const std::string &Root,
                             std::string &Out, std::string &Error) const {
  const ModuleUnit *RootU = find(Root);
  if (!RootU) {
    Error = "module `" + Root + "` is not loaded";
    return false;
  }
  std::vector<const ModuleUnit *> Order = topoOrder({RootU});
  std::vector<const Term *> Asts;
  if (!parseClosure(FE, Order, Asts, Error))
    return false;

  Out.clear();
  for (size_t I = 0; I < Order.size(); ++I) {
    const std::string &Src = Order[I]->Source;
    SpineScan S = scanSpine(Asts[I]);
    if (S.Nodes.empty())
      continue; // Pure expression module: nothing to export.
    SourceLocation Begin = S.Nodes.front()->getLoc();
    SourceLocation End = lastInBefore(Src, leftmostLoc(S.Tail));
    size_t BeginOff = offsetOf(Src, Begin.Line, Begin.Column);
    size_t EndOff = offsetOf(Src, End.Line, End.Column) + 2;
    if (!End.isValid() || EndOff < BeginOff)
      continue; // Defensive: malformed locations.
    Out += Src.substr(BeginOff, EndOff - BeginOff);
    Out += "\n";
  }
  return true;
}

OpenedProgram fg::open(OpenRequest Req) {
  OpenedProgram P;
  if (Req.Path.empty()) {
    // Only the header is lexed.  A malformed one is a header too.
    ModuleHeader Header;
    std::string Malformed;
    if (!ModuleLoader::scanHeader(Req.Name, Req.Source, Header, Malformed) ||
        !Header.empty())
      P.Error = Req.Name + ":" + std::to_string(Header.Loc.Line) + ":" +
                std::to_string(Header.Loc.Column) + ": " +
                ModuleHeader::InSourceText;
  } else {
    P.Loader = ModuleLoader(ModuleLoader::Options{Req.SearchPaths});
    P.Loader.loadFile(Req.Path, P.Root, P.Error);
  }
  P.Req = std::move(Req);
  return P;
}

uint64_t OpenedProgram::key() const {
  if (!Req.Path.empty())
    return Loader.contentHash(Root);
  return hashParts(fnv1a64("fg-source-1"), {&Req.Name, &Req.Source});
}

CompileOutput OpenedProgram::compile(Frontend &FE, const CompileOptions &Opts,
                                     std::string &Diagnostics) const {
  CompileOutput Out;
  if (!ok()) {
    Diagnostics = Error + "\n";
    return Out;
  }
  if (Req.Path.empty()) {
    Out = FE.compile(Req.Name, Req.Source, Opts);
  } else if (const Term *Linked =
                 Loader.link(FE, Root, Out.ErrorMessage)) {
    Out = FE.compileTerm(Linked, Opts);
  }
  if (!Out.Success) {
    Diagnostics = FE.getDiags().render();
    if (Diagnostics.empty())
      Diagnostics = Out.ErrorMessage + "\n";
  }
  return Out;
}
