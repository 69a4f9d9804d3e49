//===- modules/Interface.h - Serialized module interfaces -------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module interfaces (`.fgi` files) for separate compilation.  A module
/// file is a declaration spine — `concept ... in`, `model ... in`,
/// `type ... in`, `use ... in`, `let ... in` — around one tail
/// expression.  Its *interface* is everything the spine exports:
///
///   * concepts it declares (full declarations, minus default bodies);
///   * type aliases it declares;
///   * models it declares or makes ambient, each with the System-F-level
///     name of its dictionary;
///   * top-level value bindings with their F_G types;
///   * the type of the tail expression.
///
/// The wire format is a versioned S-expression (`(fgi 4 ...)`).  Types
/// serialize with keys for the producing compiler's free parameter and
/// concept ids, numbered densely in order of first appearance, so the
/// bytes do not depend on how many ids the compiler minted before.  On
/// load every key is remapped — declarations mint fresh ids in the
/// consumer's TypeContext, references (`cref`/`aref`) resolve through
/// the consumer's ImportEnv to the ids minted when the *declaring*
/// module's interface was instantiated.  Cross-module identity is
/// therefore (declaring module, exported name), independent of any
/// compiler-local numbering.  The reference table lists only the
/// imported concepts and aliases the interface itself mentions, so an
/// interface's size follows its module, not its import cone.
///
/// A batch parses each interface once (parseInterface): the parsed form
/// answers cache validation and invalidation attribution, and every
/// dependent instantiates from it without re-reading the text.
///
/// Two FNV-1a 64 values tie an interface to what it was built from:
///
///   * its *hash* (the `hash` field), the cache key: the format version,
///     the module's source text, and its direct dependencies' digests;
///   * its *digest*, computed by parseInterface: everything a dependent
///     can observe, that is the whole text but the `hash` field.  The
///     text records the direct dependencies' digests, so a digest covers
///     every interface below it (a Merkle chain).
///
/// So a change to any interface in the closure invalidates every
/// interface above it, and an edit that leaves its module's interface
/// unchanged invalidates that module alone (early cutoff).
///
/// Known limitation: concept-member *default bodies* are terms and are
/// not serialized; a module whose model relies on a default declared in
/// another module must be compiled through the whole-program link path
/// (ModuleLoader::link), which re-parses all bodies.
///
//===----------------------------------------------------------------------===//

#ifndef FG_MODULES_INTERFACE_H
#define FG_MODULES_INTERFACE_H

#include "core/AST.h"
#include "core/Check.h"
#include "core/Type.h"
#include "systemf/TypeCheck.h"
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace fg {

class Frontend;

namespace modules {

/// One exported type alias: `type Name = Target in ...` at the spine.
struct AliasExport {
  unsigned ParamId = 0;
  std::string Name;
  const Type *Target = nullptr;
};

/// One exported model.  `Name` is empty for ambient models (including
/// named models re-exported through a spine-level `use`).  `DictVar` is
/// the globally unique System F variable importers reference for the
/// dictionary: `$<module>$model<n>`.
struct ModelExport {
  unsigned ConceptId = 0;
  std::vector<const Type *> Args;
  std::vector<TypeParamDecl> Params;
  std::vector<ConceptRef> Requirements;
  std::vector<TypeEquation> Equations;
  std::vector<std::pair<std::string, const Type *>> AssocBindings;
  std::optional<std::string> Name;
  std::string DictVar;
};

/// One exported value binding with its F_G type.
struct ValueExport {
  std::string Name;
  const Type *Ty = nullptr;
};

/// A module's interface, bound to one Frontend's type contexts (either
/// the Frontend that checked the module, or the consumer it was
/// instantiated into).  `Decls` preserves spine order, which is the
/// dependency order: every declaration references only earlier ones.
struct ModuleInterface {
  std::string ModuleName;
  uint64_t Hash = 0;
  /// Direct dependencies in import order, with their interface digests.
  std::vector<std::pair<std::string, uint64_t>> Deps;
  std::vector<std::variant<ConceptInfo, AliasExport>> Decls;
  std::vector<ModelExport> Models;
  std::vector<ValueExport> Values;
  const Type *ResultType = nullptr;
};

/// Per-Frontend registry of instantiated interface entities.  Keys are
/// (declaring module, exported name); values are ids local to the
/// Frontend the interfaces were instantiated into.  Also accumulates
/// the System F typings of every imported free variable (dictionary
/// variables and value names) for translation verification.
struct ImportEnv {
  std::map<std::pair<std::string, std::string>, unsigned> ConceptIds;
  std::map<std::pair<std::string, std::string>, unsigned> AliasParams;
  /// Imported named models, for re-export through a spine-level `use`.
  std::map<std::string, ModelExport> NamedModels;
  /// System F typings for imported free variables.
  sf::TypeEnv ImportTypes;
};

//===----------------------------------------------------------------------===//
// Declaration-spine helpers
//===----------------------------------------------------------------------===//

/// The declaration spine of a module body, in source order, plus the
/// tail expression it wraps.
struct SpineScan {
  /// Every spine node in order (Let, ConceptDecl, ModelDecl, TypeAlias,
  /// UseModel terms).
  std::vector<const Term *> Nodes;
  const Term *Tail = nullptr;
};

SpineScan scanSpine(const Term *ModuleBody);

/// Rebuilds the declaration spine of \p ModuleBody around \p NewTail,
/// dropping the original tail.  Used by the export probe and by
/// whole-program linking.
const Term *rebuildSpine(TermArena &Arena, const Term *ModuleBody,
                         const Term *NewTail);

/// Replaces the module tail with the tuple `(x1, ..., xn, tail)` over
/// the exported value names (spine `let`s, deduplicated innermost-wins)
/// so one check yields every export's type.  With no exported values
/// the body is returned unchanged.  \p ExportNames receives the names
/// in tuple order.
const Term *buildExportProbe(TermArena &Arena, const Term *ModuleBody,
                             std::vector<std::string> &ExportNames);

//===----------------------------------------------------------------------===//
// Building, serializing, instantiating
//===----------------------------------------------------------------------===//

/// The interface hash of a module: format version + source text +
/// direct dependencies' (name, interface digest) in import order.
uint64_t interfaceHash(const std::string &Source,
                       const std::vector<std::pair<std::string, uint64_t>>
                           &Deps);

/// Assembles \p Out from a successfully checked module.  \p FE is the
/// Frontend that checked the export probe, \p Env its import registry,
/// \p ModuleBody the parsed body, \p ExportNames / \p ProbeType the
/// outputs of buildExportProbe and the probe's F_G type.  Hash and Deps
/// are the caller's responsibility.  Returns false with \p Error set on
/// malformed exports.
bool buildInterface(Frontend &FE, const ImportEnv &Env,
                    const std::string &ModuleName, const Term *ModuleBody,
                    const std::vector<std::string> &ExportNames,
                    const Type *ProbeType, ModuleInterface &Out,
                    std::string &Error);

/// The `.fgi` wire-format version.  It heads every interface and salts
/// every interface hash, so an interface of any other version is a
/// cache miss and is rebuilt.  Version 3 numbers keys densely and
/// records digests, not hashes, in `deps`; version 4 writes a forall's
/// where clause and body with de Bruijn indices, `#N`, for its
/// parameters, which it lists by name only.
inline constexpr unsigned InterfaceFormatVersion = 4;

/// Renders \p I in the `.fgi` wire format.  \p Env classifies referenced
/// concepts/aliases as own declarations or imports; only the imports
/// the interface mentions get a `cref`/`aref` entry.
std::string serializeInterface(const ModuleInterface &I,
                               const ImportEnv &Env);

/// A `.fgi` file parsed once.  The header fields a batch needs for cache
/// validation and invalidation attribution are decoded; the rest stays
/// a flat S-expression over the retained text, which
/// instantiateInterface reads into any number of Frontends.
struct ParsedInterface {
  std::string ModuleName;
  uint64_t Hash = 0;
  /// Everything a dependent can observe of this interface and, through
  /// the digests in Deps, of every interface below it.
  uint64_t Digest = 0;
  /// Direct dependencies in import order, with their interface digests.
  std::vector<std::pair<std::string, uint64_t>> Deps;

  /// One S-expression node: an atom (offset and length in Text) or a
  /// list (index of its first item in Nodes and its item count, with
  /// ListBit set).  A list's items are contiguous; the root is last.
  struct Node {
    uint32_t Begin = 0;
    uint32_t Size = 0;
  };
  static constexpr uint32_t ListBit = 0x80000000u;
  std::string Text;
  std::vector<Node> Nodes;
};

/// Parses `.fgi` text of the current format version.  Returns false with
/// \p Error set on malformed input or another version.
bool parseInterface(std::string Text, ParsedInterface &Out,
                    std::string &Error);

/// Installs \p P's type-level contents into \p FE: concepts are
/// declared, aliases bound, models registered (with their dictionary
/// typings added to \p Env.ImportTypes).  \p Out receives the interface
/// re-bound to \p FE's contexts.  Interfaces of all modules \p P
/// references must have been instantiated into \p Env first
/// (instantiate in dependency order).
bool instantiateInterface(const ParsedInterface &P, Frontend &FE,
                          ImportEnv &Env, ModuleInterface &Out,
                          std::string &Error);

/// Makes an instantiated interface's value bindings visible: binds each
/// export as a checker global and records its System F typing in
/// \p Env.ImportTypes.  Type-level entities were installed by
/// instantiateInterface.  The batch binds the values of a module's whole
/// import closure, so visibility is transitive (LANGUAGE.md section 9).
bool bindImportedValues(Frontend &FE, ImportEnv &Env,
                        const ModuleInterface &I, std::string &Error);

} // namespace modules
} // namespace fg

#endif // FG_MODULES_INTERFACE_H
