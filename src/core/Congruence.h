//===- core/Congruence.h - Type equality via congruence closure -*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides the type equality judgement  Gamma |- sigma = tau  of F_G
/// with associated types and same-type constraints (paper section 5.1).
///
/// The paper observes that this judgement "is equivalent to the
/// quantifier free theory of equality with uninterpreted function
/// symbols, for which there is an efficient O(n log n) time algorithm",
/// citing Nelson and Oppen's congruence closure.  That is what this
/// class implements:
///
///  * every hash-consed type is a term-DAG node; `list`, `fn`, tuples,
///    and each associated-type family c<...>.s are uninterpreted
///    function symbols; type parameters, base types and quantified types
///    are constants;
///  * asserting an equation merges two equivalence classes and
///    propagates congruences upward through parent occurrences;
///  * queries are two find() calls.
///
/// Same-type constraints are lexically scoped (they enter via where
/// clauses, model declarations and type aliases), so the closure supports
/// rollback to a mark via an undo trail.
///
/// Each class tracks a *representative* type preferring concrete types
/// over type parameters over associated types; the translation to
/// System F emits representatives (paper section 5.2: "the translation
/// outputs the representative for each type expression").
///
//===----------------------------------------------------------------------===//

#ifndef FG_CORE_CONGRUENCE_H
#define FG_CORE_CONGRUENCE_H

#include "core/Type.h"
#include "support/UnionFind.h"
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace fg {

/// Congruence closure over F_G types.  All types must come from the
/// TypeContext passed at construction.
class Congruence {
public:
  explicit Congruence(TypeContext &Ctx) : Ctx(Ctx) {}

  /// Asserts the equation \p Lhs == \p Rhs and propagates congruences.
  void assertEqual(const Type *Lhs, const Type *Rhs);

  /// Returns true if Gamma |- A = B under the asserted equations.
  bool isEqual(const Type *A, const Type *B);

  /// Returns the preferred representative of \p T's equivalence class.
  /// Priority: concrete types, then type parameters, then associated
  /// types; ties keep the earliest-interned.
  const Type *getRepresentative(const Type *T);

  /// Monotonic stamp of the closure's *knowledge*: bumped whenever two
  /// classes merge and whenever a rollback undoes merges.  Interning
  /// new nodes alone does not bump it — fresh disjoint nodes cannot
  /// change the answer for any previously queried pair.  Callers that
  /// memoize equality-dependent results (the query cache below, the
  /// checker's model cache) compare stamps to decide when to flush.
  uint64_t getVersion() const { return Version; }

  /// Toggles the isEqual memo table (on by default).  Off is useful for
  /// A/B semantic-identity tests and for measuring the cache's win.
  void setQueryCacheEnabled(bool On);

  /// Opaque undo position.
  struct Mark {
    size_t TrailSize;
    UnionFind::Mark UFMark;
    size_t NumNodes;
    uint64_t NumMerges;
  };

  Mark mark() const { return {Trail.size(), UF.mark(), Nodes.size(),
                              NumMerges}; }

  /// Undoes every assertion and node creation since \p M.
  void rollback(const Mark &M);

private:
  struct Node {
    const Type *Ty;
    bool IsApp;                     ///< Participates in congruence.
    unsigned Tag;                   ///< Function symbol for IsApp nodes.
    std::vector<unsigned> Children; ///< Node ids of operands.
  };

  /// A canonical application signature: function symbol plus the class
  /// roots of the operands.
  struct SigKey {
    unsigned Tag;
    std::vector<unsigned> Children;

    friend bool operator==(const SigKey &A, const SigKey &B) {
      return A.Tag == B.Tag && A.Children == B.Children;
    }
  };
  struct SigKeyHash {
    size_t operator()(const SigKey &K) const;
  };

  enum class UndoKind : uint8_t {
    NodeCreated,
    ParentPushed,
    ParentsSpliced,
    SigInserted,
    SigErased,
    RepChanged,
  };

  struct UndoOp {
    UndoKind Kind;
    const Type *Ty = nullptr;  ///< NodeCreated, RepChanged (old rep).
    unsigned Root = 0;         ///< ParentPushed/ParentsSpliced/RepChanged.
    size_t OldSize = 0;        ///< ParentsSpliced.
    SigKey Key;                ///< SigInserted/SigErased.
    unsigned NodeId = 0;       ///< SigErased.
  };

  unsigned internNode(const Type *T);
  unsigned tagFor(const Type *T);
  SigKey signatureOf(unsigned NodeId) const;
  void processPending();
  void merge(unsigned A, unsigned B);
  static unsigned repPriority(const Type *T);

  struct TypePairHash {
    size_t operator()(const std::pair<const Type *, const Type *> &P) const {
      size_t H = std::hash<const void *>()(P.first);
      return H ^ (std::hash<const void *>()(P.second) * 0x9e3779b97f4a7c15ULL);
    }
  };

  TypeContext &Ctx;
  UnionFind UF;
  std::vector<Node> Nodes;
  std::unordered_map<const Type *, unsigned> NodeOf;
  /// Parent occurrences, indexed by node id; authoritative at roots.
  std::vector<std::vector<unsigned>> ClassParents;
  /// Class representative, indexed by node id; authoritative at roots.
  std::vector<const Type *> ClassRep;
  /// Node id of the representative (for deterministic earliest-node
  /// tie-breaking), parallel to ClassRep.
  std::vector<unsigned> ClassRepNode;
  std::unordered_map<SigKey, unsigned, SigKeyHash> SigTable;
  std::map<std::pair<unsigned, std::string>, unsigned> AssocTags;
  std::deque<std::pair<unsigned, unsigned>> Pending;
  std::vector<UndoOp> Trail;

  /// Knowledge stamp (see getVersion) and the merge count backing it;
  /// the latter is saved in marks so rollback knows whether any merge
  /// was actually undone.
  uint64_t Version = 0;
  uint64_t NumMerges = 0;

  /// Memoized isEqual answers, valid while QueryCacheVersion == Version.
  /// Keys are ordered pointer pairs (types are hash-consed, so the pair
  /// identifies the query exactly); the table is flushed lazily on the
  /// first query after the stamp moves.
  bool QueryCacheEnabled = true;
  uint64_t QueryCacheVersion = 0;
  std::unordered_map<std::pair<const Type *, const Type *>, bool,
                     TypePairHash>
      QueryCache;
};

} // namespace fg

#endif // FG_CORE_CONGRUENCE_H
