//===- corpus/Corpus.h - Seeded synthetic module-graph generator ----------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic generator for well-typed multi-module F_G programs,
/// used to exercise the separate-compilation pipeline at scales the
/// hand-written corpora (examples/fglib, tests/conformance) cannot
/// reach: hundreds to tens of thousands of modules with controllable
/// graph shape.
///
/// The generated programs are modeled on the fglib idioms: foundation
/// modules declare a concept, an ambient `int` model, and a generic
/// function; downstream modules refine imported concepts, add named
/// models activated with `use`, declare associated-type concepts over
/// `list int`, or simply combine imported values and generics.  Every
/// module is well-typed by construction, so `fgc --batch` over a
/// generated corpus must always succeed — any failure is a compiler
/// bug, not a corpus bug.
///
/// Determinism contract: `generate` depends only on `CorpusOptions`.
/// The same options produce byte-identical sources on every platform
/// and build configuration.  The generator therefore uses its own
/// splitmix64 PRNG (never `std::uniform_int_distribution`, whose
/// output is implementation-defined) and never iterates unordered
/// containers.
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORPUS_CORPUS_H
#define FG_CORPUS_CORPUS_H

#include <cstdint>
#include <string>
#include <vector>

namespace fg {
namespace corpus {

/// Overall dependency-graph silhouette.
enum class Shape {
  /// Modules are arranged in layers; each module imports from earlier
  /// layers, producing the diamond-rich DAGs typical of real
  /// libraries.  This is the default.
  Layered,
  /// One maximal-depth chain: module k imports only module k-1.
  /// Stresses recursion depth and cascading invalidation.
  Chain,
  /// Independent foundations plus one root importing all of them.
  /// Stresses wide fan-in and the batch scheduler's wavefront.
  FanIn,
};

/// Parses a shape name (`layered`, `chain`, `fanin`); returns false on
/// an unknown name.
bool parseShape(const std::string &Name, Shape &Out);
const char *shapeName(Shape S);

struct CorpusOptions {
  /// Number of modules to generate (>= 1).
  unsigned Modules = 100;
  /// PRNG seed; the sole source of variation besides the module count
  /// and the shape.
  uint64_t Seed = 42;
  Shape GraphShape = Shape::Layered;
};

/// One generated module: the file `Name + ".fg"` with contents
/// `Source`; `Imports` lists the direct dependencies (also generated
/// module names) for callers that want the graph without re-parsing.
struct GeneratedModule {
  std::string Name;
  std::vector<std::string> Imports;
  std::string Source;
};

/// Generates the corpus described by `Opts`.  Deterministic: equal
/// options yield byte-identical results.  The final module of the
/// vector is a root that (transitively) reaches every other module.
std::vector<GeneratedModule> generate(const CorpusOptions &Opts);

/// Writes each module to `Dir/<Name>.fg`, creating `Dir` if needed.
/// Returns false and sets `Error` on I/O failure.
bool writeCorpus(const std::vector<GeneratedModule> &Mods,
                 const std::string &Dir, std::string &Error);

} // namespace corpus
} // namespace fg

#endif // FG_CORPUS_CORPUS_H
