//===- modules/Loader.h - Module graph loading and linking ------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads F_G module files and their transitive imports into an
/// in-memory dependency graph:
///
///   * an import `import m;` in file F resolves to `m.fg`, searched in
///     F's own directory first, then in each `-I` search path in order;
///   * a file declaring `module m;` must be named `m.fg` (the module
///     name is the file stem), so imports are resolvable by name alone;
///   * import cycles are rejected at load time with the offending path
///     spelled out (`import cycle: a -> b -> a`).
///
/// Two consumers sit on top of the graph.  The batch driver
/// (modules/Batch.h) checks each module separately against its
/// dependencies' serialized interfaces.  The *link* path here splices
/// every module's declaration spine around the root module's body —
/// deps outermost, root innermost, dep tails dropped — producing one
/// whole program whose evaluation result is identical to the
/// equivalent single-file program.
///
/// fg::open() is the one way to open a program, beside fg::execute()
/// (syntax/Frontend.h), which runs it: fgc, fgcd and the embedding
/// example read source text or a file through it, get a content key
/// before compiling, and compile through it.
///
//===----------------------------------------------------------------------===//

#ifndef FG_MODULES_LOADER_H
#define FG_MODULES_LOADER_H

#include "syntax/Parser.h"
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fg {

class Frontend;
struct CompileOptions;
struct CompileOutput;

namespace modules {

/// One loaded module file.
struct ModuleUnit {
  std::string Name;   ///< Module name == file stem.
  std::string Path;   ///< Path the file was loaded from.
  std::string Source; ///< Full source text.
  /// Direct imports in declaration order.
  std::vector<ModuleHeader::Import> Imports;
  /// Imports resolved: Deps[I] is the unit Imports[I] names.
  std::vector<const ModuleUnit *> Deps;
  /// Dense index in registration order, below modules().size()
  /// (post-order, so every import's Id is smaller).
  unsigned Id = 0;
  /// True when the file had an explicit `module <name>;` declaration.
  bool HasModuleDecl = false;
};

/// Loads module files and their transitive imports; owns the graph.
class ModuleLoader {
public:
  struct Options {
    /// `-I` directories, searched in order after the importing file's
    /// own directory.
    std::vector<std::string> SearchPaths;
  };

  explicit ModuleLoader(Options Opts = Options()) : Opts(std::move(Opts)) {}
  // Units point at each other (ModuleUnit::Deps), so a copy would point
  // into the original.  A move keeps the map's nodes, and so the
  // pointers, where they are.
  ModuleLoader(const ModuleLoader &) = delete;
  ModuleLoader &operator=(const ModuleLoader &) = delete;
  ModuleLoader(ModuleLoader &&) = default;
  ModuleLoader &operator=(ModuleLoader &&) = default;

  /// Scans only the `module`/`import` header of \p Source: tokens are
  /// lexed up to the first one that cannot continue the header, so the
  /// body is never lexed and its errors are not reported here.  Returns
  /// false with \p Error set when the header itself is malformed.
  static bool scanHeader(const std::string &BufferName,
                         const std::string &Source, ModuleHeader &Header,
                         std::string &Error);

  /// Loads the file at \p Path plus everything it transitively imports;
  /// every file a program names is read here.  \p RootName receives
  /// the module name (the file stem).  Returns false with \p Error set
  /// on I/O errors (a directory is one), name/stem mismatches,
  /// unresolvable imports, duplicate module names, or import cycles.
  bool loadFile(const std::string &Path, std::string &RootName,
                std::string &Error);

  /// The loaded module named \p Name, or null.
  const ModuleUnit *find(const std::string &Name) const;

  /// Every loaded module, keyed by name.
  const std::map<std::string, ModuleUnit> &modules() const { return Units; }

  /// The transitive import closure of \p Roots in dependency order:
  /// every module appears after all its imports, and a module reachable
  /// from several roots appears once, where the first root's walk
  /// reaches it.  Deterministic: one depth-first walk, post-order, over
  /// imports in declaration order, roots in the given order.  This
  /// order is shared by the link path and the batch checker, so name
  /// shadowing behaves identically in both.
  std::vector<const ModuleUnit *>
  topoOrder(const std::vector<const ModuleUnit *> &Roots) const;

  /// Whole-program link: parses \p Root's closure into \p FE in
  /// dependency order (seeding each module's parser scopes with the
  /// concepts/aliases its imports declare) and splices the declaration
  /// spines around the root's body.  Returns the linked program term,
  /// or null with \p Error set.
  const Term *link(Frontend &FE, const std::string &Root,
                   std::string &Error) const;

  /// Content hash of \p Root's whole dependency cone: FNV-1a 64 chained
  /// over every module's (path, name, source text) in topoOrder.  The
  /// same discipline as the `.fgi` interface hash — any edit anywhere
  /// in the cone changes the value — but computed without checking
  /// anything.  The path is in it because diagnostics name it.  The
  /// compiler server keys its shared artifact cache on this
  /// (server/ArtifactCache.h), so daemon cache entries invalidate
  /// exactly when a batch rebuild would recheck.  Returns 0 when
  /// \p Root is not loaded.
  uint64_t contentHash(const std::string &Root) const;

  /// The *textual* equivalent of link(): the concatenated declaration
  /// spines of \p Root's closure in dependency order — each module's
  /// source from its first spine declaration up to (excluding) its tail
  /// expression, headers dropped.  Prepending the result to any
  /// expression gives a program observationally equivalent to
  /// evaluating that expression inside the linked module scope; the
  /// REPL's `:load` uses this to bring a file's (and its imports')
  /// declarations into the session scope as plain text.  Parses every
  /// module (into \p FE) to locate the tails.  Returns false with
  /// \p Error set on parse errors.
  bool spineText(Frontend &FE, const std::string &Root, std::string &Out,
                 std::string &Error) const;

private:
  /// Parses every module of \p Order into \p FE with seeded scopes
  /// (shared by link() and spineText()); Asts[I] is Order[I]'s AST.
  bool parseClosure(Frontend &FE, const std::vector<const ModuleUnit *> &Order,
                    std::vector<const Term *> &Asts,
                    std::string &Error) const;
  /// Resolves `import Name;` appearing in \p ImporterDir to the first
  /// regular file `Name.fg` there or along the search paths.  Empty on
  /// failure, with the searched directories listed in \p Error.
  std::string resolveImport(const std::string &Name,
                            const std::string &ImporterDir,
                            std::string &Error) const;

  Options Opts;
  std::map<std::string, ModuleUnit> Units;
};

} // namespace modules

/// What fg::open() reads: a file, or source text under a buffer name.
struct OpenRequest {
  /// The file to read, with every module it imports.  When empty,
  /// Source is the program.
  std::string Path;
  /// `-I` directories searched for Path's imports, after the importing
  /// file's own directory.
  std::vector<std::string> SearchPaths;
  /// Source text, which may not have a module header, and the buffer
  /// name its diagnostics carry (`<stdin>` for fgc's standard input).
  std::string Source;
  std::string Name = "<source>";
};

/// A program fg::open() has read and resolved; it compiles any number
/// of times, each into a Frontend of the caller's.
class OpenedProgram {
public:
  /// False when the program could not be opened; error() says why.
  bool ok() const { return Error.empty(); }

  /// One line: an unreadable file (a directory, say), a malformed
  /// header, an import that does not resolve, an import cycle, or a
  /// header in source text.
  const std::string &error() const { return Error; }

  /// The content key, known before anything compiles: FNV-1a 64 over
  /// the buffer name and the text, or ModuleLoader::contentHash of the
  /// file's import cone.  Both cover every name a diagnostic can carry,
  /// so programs with equal keys compile to equal results.
  uint64_t key() const;

  /// Compiles the program into \p FE: the source text, or the import
  /// cone linked into one program.  When it fails, or the program did
  /// not open, Success is false and \p Diagnostics holds the
  /// diagnostics rendered once (the one-line error when there are
  /// none).
  CompileOutput compile(Frontend &FE, const CompileOptions &Opts,
                        std::string &Diagnostics) const;

  /// The file's import cone and its root module; empty for source text.
  const modules::ModuleLoader &loader() const { return Loader; }
  const std::string &root() const { return Root; }

private:
  friend OpenedProgram open(OpenRequest Req);

  OpenRequest Req;
  modules::ModuleLoader Loader;
  std::string Root;
  std::string Error;
};

/// Opens the program \p Req names: reads the file and its import cone
/// through ModuleLoader::loadFile, or takes the source text, which must
/// have no module header.  Nothing is compiled yet.
OpenedProgram open(OpenRequest Req);

} // namespace fg

#endif // FG_MODULES_LOADER_H
