//===- corpus/Corpus.cpp - Seeded synthetic module-graph generator --------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace fg;
using namespace fg::corpus;

namespace {

/// The layered shape's fixed knobs.  Both also salt the PRNG, so
/// changing either changes every corpus.
constexpr unsigned MaxImports = 4; ///< Direct imports per module, at most.
/// Percentage of import edges that reach past the previous layer,
/// joining otherwise-parallel chains into diamonds.
constexpr unsigned DiamondPct = 35;

/// splitmix64: tiny, fast, and — unlike <random>'s distributions —
/// specified exactly, so the corpus is byte-identical everywhere.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform-ish draw in [0, N); modulo bias is irrelevant for shaping.
  unsigned below(unsigned N) { return N == 0 ? 0 : unsigned(next() % N); }
};

/// What downstream modules may rely on from a generated module.  All
/// facts are derivable from the index (names are index-suffixed), so
/// no string tables are needed.
struct ModFacts {
  /// Declares `concept C<idx><t> { op<idx> : fn(t,t) -> t; }`, an
  /// ambient `model C<idx><int>`, and a generic `g<idx>` usable at
  /// `int`.  (Associated-type concepts are deliberately excluded:
  /// importers treat those modules as value-only.)
  bool HasConcept = false;
  /// For a refining concept, the module indices of every concept it
  /// (transitively) refines.  A refiner must import its whole
  /// ancestry so the parent concepts are in scope.
  std::vector<unsigned> Ancestry;
};

enum class Kind { Foundation, Refine, Instance, Assoc, Client };

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Foundation:
    return "foundation";
  case Kind::Refine:
    return "refine";
  case Kind::Instance:
    return "instance";
  case Kind::Assoc:
    return "assoc";
  case Kind::Client:
    return "client";
  }
  return "?";
}

/// Zero-padded index tag shared by the module name and every exported
/// identifier (m0042, C0042, g0042, v0042, ...).
std::string tag(unsigned Index, unsigned Width) {
  std::string S = std::to_string(Index);
  if (S.size() < Width)
    S.insert(0, Width - S.size(), '0');
  return S;
}

/// Builds one module's source.  `Imports` holds direct-dependency
/// indices sorted ascending; `ConceptImport` is the refined/
/// instantiated concept's module for Refine/Instance kinds.
std::string emitModule(unsigned Index, unsigned Width, Kind K,
                       const std::vector<unsigned> &Imports,
                       unsigned ConceptImport,
                       const std::vector<ModFacts> &Facts, Rng &R) {
  const std::string T = tag(Index, Width);
  std::ostringstream OS;
  OS << "// corpus: generated by fgc --gen-corpus; do not edit.\n"
     << "// kind: " << kindName(K) << "\n"
     << "module m" << T << ";\n";
  for (unsigned J : Imports)
    OS << "import m" << tag(J, Width) << ";\n";
  OS << "\n";

  // Small literals keep every exported value bounded: aux<idx> below
  // is referenced only in a self-canceling difference, so values never
  // compound across the graph (a 10k-deep chain must not overflow
  // when a corpus root is actually evaluated).
  unsigned LitA = 1 + R.below(9), LitB = 1 + R.below(9);
  const char *AmbientOp = R.below(2) == 0 ? "iadd" : "isub";

  // Kind-specific declarations, plus the seed expression that aux<idx>
  // folds the imports into.
  std::string Seed;
  switch (K) {
  case Kind::Foundation: {
    OS << "concept C" << T << "<t> {\n"
       << "  op" << T << " : fn(t, t) -> t;\n"
       << "} in\n\n"
       << "model C" << T << "<int> { op" << T << " = " << AmbientOp
       << "; } in\n\n"
       << "let g" << T << " = (forall t where C" << T << "<t>. "
       << "fun(a : t, b : t).\n"
       << "  C" << T << "<t>.op" << T << "(C" << T << "<t>.op" << T
       << "(a, b), a)) in\n\n"
       << "let v" << T << " = g" << T << "[int](" << LitA << ", " << LitB
       << ") in\n"
       << "v" << T << "\n";
    return OS.str();
  }
  case Kind::Refine: {
    const std::string P = tag(ConceptImport, Width);
    OS << "concept C" << T << "<t> {\n"
       << "  refines C" << P << "<t>;\n"
       << "  op" << T << " : fn(t, t) -> t;\n"
       << "} in\n\n"
       << "model C" << T << "<int> { op" << T << " = " << AmbientOp
       << "; } in\n\n"
       // The body reaches the refined member through the child concept
       // (the paper's refinement lookup), so checking this module
       // exercises the refinement chain across the module boundary.
       << "let g" << T << " = (forall t where C" << T << "<t>. "
       << "fun(a : t, b : t).\n"
       << "  C" << T << "<t>.op" << T << "(C" << T << "<t>.op" << P
       << "(a, b), b)) in\n\n";
    Seed = "g" + T + "[int](" + std::to_string(LitA) + ", " +
           std::to_string(LitB) + ")";
    break;
  }
  case Kind::Instance: {
    const std::string P = tag(ConceptImport, Width);
    OS << "// A named (multiplicative) model for the imported concept,\n"
       << "// activated locally with `use` (paper section 8.2).\n"
       << "model [alt" << T << "] C" << P << "<int> { op" << P
       << " = imult; } in\n\n";
    Seed = "(use alt" + T + " in g" + P + "[int](" + std::to_string(LitA) +
           ", " + std::to_string(LitB) + "))";
    break;
  }
  case Kind::Assoc: {
    OS << "concept A" << T << "<c> {\n"
       << "  types item;\n"
       << "  first" << T << " : fn(c) -> item;\n"
       << "  size" << T << "  : fn(c) -> int;\n"
       << "} in\n\n"
       << "model A" << T << "<list int> {\n"
       << "  types item = int;\n"
       << "  first" << T << " = fun(xs : list int). "
       << "if null[int](xs) then 0 else car[int](xs);\n"
       << "  size" << T << " = fix (fun(len : fn(list int) -> int). "
       << "fun(xs : list int).\n"
       << "    if null[int](xs) then 0 else iadd(1, len(cdr[int](xs))));\n"
       << "} in\n\n";
    Seed = "iadd(A" + T + "<list int>.first" + T + "(cons[int](" +
           std::to_string(LitA) + ", nil[int])), A" + T +
           "<list int>.size" + T + "(cons[int](1, cons[int](2, "
           "nil[int]))))";
    break;
  }
  case Kind::Client:
    Seed = std::to_string(LitA);
    break;
  }

  // aux<idx> folds the direct imports into one expression: imported
  // generics applied at int when available, plain value references
  // otherwise.  Capped so a wide fan-in root stays readable; imports
  // beyond the cap still count as dependencies via the header.
  std::string Aux = Seed;
  unsigned Used = 0;
  for (unsigned J : Imports) {
    if (Used == 8)
      break;
    const std::string JT = tag(J, Width);
    if (Facts[J].HasConcept)
      Aux = "g" + JT + "[int](" + Aux + ", v" + JT + ")";
    else
      Aux = "iadd(" + Aux + ", v" + JT + ")";
    ++Used;
  }
  OS << "let aux" << T << " = " << Aux << " in\n"
     << "let v" << T << " = iadd(" << LitB << ", isub(aux" << T << ", aux"
     << T << ")) in\n"
     << "v" << T << "\n";
  return OS.str();
}

void sortUnique(std::vector<unsigned> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

} // namespace

bool corpus::parseShape(const std::string &Name, Shape &Out) {
  if (Name == "layered")
    Out = Shape::Layered;
  else if (Name == "chain")
    Out = Shape::Chain;
  else if (Name == "fanin")
    Out = Shape::FanIn;
  else
    return false;
  return true;
}

const char *corpus::shapeName(Shape S) {
  switch (S) {
  case Shape::Layered:
    return "layered";
  case Shape::Chain:
    return "chain";
  case Shape::FanIn:
    return "fanin";
  }
  return "?";
}

std::vector<GeneratedModule> corpus::generate(const CorpusOptions &Opts) {
  const unsigned N = std::max(1u, Opts.Modules);
  unsigned Width = std::max<size_t>(4, std::to_string(N - 1).size());

  // Fold every shaping knob into the stream so distinct options
  // diverge immediately even when they first affect a late module.
  Rng R(Opts.Seed ^ (uint64_t(N) << 32) ^ (uint64_t(MaxImports) << 24) ^
        (uint64_t(DiamondPct) << 16) ^ uint64_t(Opts.GraphShape));

  // Layer assignment: LayerOf[i] for Shape::Layered; chains and fan-in
  // graphs are positional.
  std::vector<unsigned> LayerStart; // first module index of each layer
  if (Opts.GraphShape == Shape::Layered && N > 1) {
    unsigned Body = N - 1; // last module is the root
    // One layer per 16 modules, 2 to 64 of them.
    unsigned Layers = std::min(Body, std::clamp(1 + Body / 16, 2u, 64u));
    for (unsigned L = 0; L < Layers; ++L)
      LayerStart.push_back(L * Body / Layers);
    LayerStart.push_back(Body);
  }

  std::vector<ModFacts> Facts(N);
  std::vector<GeneratedModule> Out;
  Out.reserve(N);
  std::vector<char> HasImporter(N, 0);

  for (unsigned I = 0; I < N; ++I) {
    const bool IsRoot = N > 1 && I == N - 1;

    // --- choose the direct imports -----------------------------------
    std::vector<unsigned> Imports;
    if (IsRoot) {
      // The root imports every sink so the whole graph is reachable
      // from one module (`fgc <root>.fg` links the full corpus).
      for (unsigned J = 0; J + 1 < N; ++J)
        if (!HasImporter[J])
          Imports.push_back(J);
    } else if (I > 0) {
      switch (Opts.GraphShape) {
      case Shape::Chain:
        Imports.push_back(I - 1);
        break;
      case Shape::FanIn:
        break; // independent foundations; the root fans in
      case Shape::Layered: {
        // Find my layer; layer 0 modules are foundations.
        unsigned Layer = 0;
        while (Layer + 1 < LayerStart.size() && LayerStart[Layer + 1] <= I)
          ++Layer;
        if (Layer == 0)
          break;
        unsigned PrevLo = LayerStart[Layer - 1], PrevHi = LayerStart[Layer];
        unsigned Count = 1 + R.below(MaxImports);
        for (unsigned K = 0; K < Count; ++K) {
          // DiamondPct% of edges reach past the previous layer,
          // joining otherwise-parallel chains into diamonds.
          bool Deep = PrevLo > 0 && R.below(100) < DiamondPct;
          unsigned J = Deep ? R.below(PrevLo)
                            : PrevLo + R.below(PrevHi - PrevLo);
          Imports.push_back(J);
        }
        sortUnique(Imports);
        break;
      }
      }
    }

    // --- choose the kind ---------------------------------------------
    Kind K = Kind::Client;
    unsigned ConceptImport = 0;
    if (Imports.empty()) {
      K = Kind::Foundation;
    } else {
      // Concept-bearing imports eligible for refinement (short
      // ancestry keeps chains checkable without huge import lists)
      // and for named-model instantiation (foundation concepts only).
      std::vector<unsigned> Refinable, Foundations;
      for (unsigned J : Imports) {
        if (!Facts[J].HasConcept)
          continue;
        if (Facts[J].Ancestry.size() < 3)
          Refinable.push_back(J);
        if (Facts[J].Ancestry.empty())
          Foundations.push_back(J);
      }
      unsigned Roll = R.below(100);
      if (Roll < 30 && !Refinable.empty()) {
        K = Kind::Refine;
        ConceptImport = Refinable[R.below(unsigned(Refinable.size()))];
      } else if (Roll < 55 && !Foundations.empty()) {
        K = Kind::Instance;
        ConceptImport = Foundations[R.below(unsigned(Foundations.size()))];
      } else if (Roll < 70) {
        K = Kind::Assoc;
      } else {
        K = Kind::Client;
      }
      if (K == Kind::Refine) {
        // The parent concepts must be in scope: import the ancestry.
        for (unsigned A : Facts[ConceptImport].Ancestry)
          Imports.push_back(A);
        sortUnique(Imports);
      }
    }

    // --- record facts and emit ---------------------------------------
    ModFacts &F = Facts[I];
    if (K == Kind::Foundation) {
      F.HasConcept = true;
    } else if (K == Kind::Refine) {
      F.HasConcept = true;
      F.Ancestry = Facts[ConceptImport].Ancestry;
      F.Ancestry.push_back(ConceptImport);
      sortUnique(F.Ancestry);
    }
    for (unsigned J : Imports)
      HasImporter[J] = 1;

    GeneratedModule M;
    M.Name = "m";
    M.Name += tag(I, Width);
    for (unsigned J : Imports) {
      std::string Dep = "m";
      Dep += tag(J, Width);
      M.Imports.push_back(std::move(Dep));
    }
    M.Source = emitModule(I, Width, K, Imports, ConceptImport, Facts, R);
    Out.push_back(std::move(M));
  }
  return Out;
}

bool corpus::writeCorpus(const std::vector<GeneratedModule> &Mods,
                         const std::string &Dir, std::string &Error) {
  namespace fs = std::filesystem;
  std::error_code EC;
  fs::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create `" + Dir + "`: " + EC.message();
    return false;
  }
  for (const GeneratedModule &M : Mods) {
    fs::path Path = fs::path(Dir) / (M.Name + ".fg");
    std::ofstream OutF(Path, std::ios::binary);
    if (!OutF) {
      Error = "cannot write `" + Path.string() + "`";
      return false;
    }
    OutF << M.Source;
    if (!OutF) {
      Error = "write failed for `" + Path.string() + "`";
      return false;
    }
  }
  return true;
}
