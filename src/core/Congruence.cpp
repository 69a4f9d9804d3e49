//===- core/Congruence.cpp - Type equality via congruence closure ---------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "core/Congruence.h"
#include "support/Stats.h"
#include <algorithm>
#include <cassert>

using namespace fg;

size_t Congruence::SigKeyHash::operator()(const SigKey &K) const {
  size_t H = K.Tag * 0x9e3779b1u;
  for (unsigned C : K.Children)
    H ^= C + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Lower value is preferred as class representative.
unsigned Congruence::repPriority(const Type *T) {
  switch (T->getKind()) {
  case TypeKind::Param:
    return 1;
  case TypeKind::Assoc:
    return 2;
  default:
    return 0; // Concrete structure wins.
  }
}

unsigned Congruence::tagFor(const Type *T) {
  // Tags 0..3 are reserved for the builtin constructors; associated-type
  // families get dense tags starting at 16.
  switch (T->getKind()) {
  case TypeKind::Arrow:
    return 1;
  case TypeKind::Tuple:
    return 2;
  case TypeKind::List:
    return 3;
  case TypeKind::Assoc: {
    const auto *A = cast<AssocType>(T);
    auto Key = std::make_pair(A->getConceptId(), A->getMember());
    auto It = AssocTags.find(Key);
    if (It != AssocTags.end())
      return It->second;
    unsigned Tag = 16 + AssocTags.size();
    AssocTags.emplace(Key, Tag);
    return Tag;
  }
  default:
    assert(false && "tagFor called on a non-application type");
    return 0;
  }
}

Congruence::SigKey Congruence::signatureOf(unsigned NodeId) const {
  const Node &N = Nodes[NodeId];
  assert(N.IsApp && "signature requested for a constant node");
  SigKey K;
  K.Tag = N.Tag;
  K.Children.reserve(N.Children.size());
  for (unsigned C : N.Children)
    K.Children.push_back(UF.find(C));
  return K;
}

unsigned Congruence::internNode(const Type *T) {
  auto It = NodeOf.find(T);
  if (It != NodeOf.end())
    return It->second;

  // Intern operands first so that this node's signature is computable.
  std::vector<unsigned> Children;
  bool IsApp = true;
  switch (T->getKind()) {
  case TypeKind::Arrow: {
    const auto *A = cast<ArrowType>(T);
    for (const Type *P : A->getParams())
      Children.push_back(internNode(P));
    Children.push_back(internNode(A->getResult()));
    break;
  }
  case TypeKind::Tuple:
    for (const Type *E : cast<TupleType>(T)->getElements())
      Children.push_back(internNode(E));
    break;
  case TypeKind::List:
    Children.push_back(internNode(cast<ListType>(T)->getElement()));
    break;
  case TypeKind::Assoc:
    for (const Type *A : cast<AssocType>(T)->getArgs())
      Children.push_back(internNode(A));
    break;
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Param:
  case TypeKind::ForAll:
    // Constants.  Quantified types are opaque individuals here; their
    // alpha-classes are already collapsed by hash-consing.
    IsApp = false;
    break;
  }

  unsigned Id = Nodes.size();
  [[maybe_unused]] unsigned UFId = UF.makeNode();
  assert(UFId == Id && "union/find ids must mirror node ids");
  Nodes.push_back({T, IsApp, IsApp ? tagFor(T) : 0, std::move(Children)});
  ClassParents.emplace_back();
  ClassRep.push_back(T);
  ClassRepNode.push_back(Id);
  NodeOf.emplace(T, Id);
  Trail.push_back({UndoKind::NodeCreated, T, 0, 0, {}, 0});

  if (IsApp) {
    for (unsigned C : Nodes[Id].Children) {
      unsigned Root = UF.find(C);
      ClassParents[Root].push_back(Id);
      Trail.push_back({UndoKind::ParentPushed, nullptr, Root, 0, {}, 0});
    }
    SigKey K = signatureOf(Id);
    auto SigIt = SigTable.find(K);
    if (SigIt != SigTable.end()) {
      // A congruent application already exists: same symbol, equal
      // operands.  Schedule the merge.
      Pending.emplace_back(Id, SigIt->second);
    } else {
      SigTable.emplace(K, Id);
      Trail.push_back({UndoKind::SigInserted, nullptr, 0, 0, K, 0});
    }
  }
  return Id;
}

void Congruence::merge(unsigned A, unsigned B) {
  unsigned RA = UF.find(A), RB = UF.find(B);
  if (RA == RB)
    return;
  static std::atomic<uint64_t> &MergeCount =
      stats::Statistics::global().counter("congruence.merges");
  ++MergeCount;
  ++NumMerges;
  ++Version;
  // Keep the class with more parent occurrences as the survivor so each
  // node's signature is rehashed O(log n) times overall.
  if (ClassParents[RA].size() < ClassParents[RB].size())
    std::swap(RA, RB);

  // Erase the stale signatures of the absorbed class's parents; their
  // operand roots are about to change.
  std::vector<unsigned> Moved = ClassParents[RB];
  for (unsigned P : Moved) {
    SigKey K = signatureOf(P);
    auto It = SigTable.find(K);
    if (It != SigTable.end()) {
      Trail.push_back({UndoKind::SigErased, nullptr, 0, 0, K, It->second});
      SigTable.erase(It);
    }
  }

  UF.uniteDirected(RA, RB);

  Trail.push_back(
      {UndoKind::ParentsSpliced, nullptr, RA, ClassParents[RA].size(), {}, 0});
  ClassParents[RA].insert(ClassParents[RA].end(), Moved.begin(), Moved.end());

  // Prefer the better representative of the merged class: lower
  // priority class first, earliest-created node on ties (so e.g. the
  // paper's elt1 beats elt2 regardless of merge direction).
  const Type *RepA = ClassRep[RA];
  const Type *RepB = ClassRep[RB];
  auto Key = [this](const Type *Rep, unsigned Node) {
    return std::make_pair(repPriority(Rep), Node);
  };
  if (Key(RepB, ClassRepNode[RB]) < Key(RepA, ClassRepNode[RA])) {
    Trail.push_back(
        {UndoKind::RepChanged, RepA, RA, 0, {}, ClassRepNode[RA]});
    ClassRep[RA] = RepB;
    ClassRepNode[RA] = ClassRepNode[RB];
  }

  // Rehash the moved parents; collisions are new congruences.
  for (unsigned P : Moved) {
    SigKey K = signatureOf(P);
    auto It = SigTable.find(K);
    if (It != SigTable.end()) {
      if (!UF.same(It->second, P))
        Pending.emplace_back(P, It->second);
    } else {
      SigTable.emplace(K, P);
      Trail.push_back({UndoKind::SigInserted, nullptr, 0, 0, K, 0});
    }
  }
}

void Congruence::processPending() {
  while (!Pending.empty()) {
    auto [A, B] = Pending.front();
    Pending.pop_front();
    merge(A, B);
  }
}

void Congruence::assertEqual(const Type *Lhs, const Type *Rhs) {
  static std::atomic<uint64_t> &AssertCount =
      stats::Statistics::global().counter("congruence.assertions");
  ++AssertCount;
  unsigned A = internNode(Lhs);
  unsigned B = internNode(Rhs);
  Pending.emplace_back(A, B);
  processPending();
}

void Congruence::setQueryCacheEnabled(bool On) {
  QueryCacheEnabled = On;
  QueryCache.clear();
  QueryCacheVersion = Version;
}

bool Congruence::isEqual(const Type *A, const Type *B) {
  if (A == B)
    return true;
  static std::atomic<uint64_t> &QueryCount =
      stats::Statistics::global().counter("congruence.queries");
  ++QueryCount;

  std::pair<const Type *, const Type *> Key =
      std::less<const Type *>()(A, B) ? std::make_pair(A, B)
                                      : std::make_pair(B, A);
  if (QueryCacheEnabled) {
    if (QueryCacheVersion != Version) {
      QueryCache.clear();
      QueryCacheVersion = Version;
    }
    auto It = QueryCache.find(Key);
    if (It != QueryCache.end()) {
      static std::atomic<uint64_t> &HitCount =
          stats::Statistics::global().counter("congruence.query_cache.hits");
      ++HitCount;
      return It->second;
    }
    static std::atomic<uint64_t> &MissCount =
        stats::Statistics::global().counter("congruence.query_cache.misses");
    ++MissCount;
  }

  unsigned NA = internNode(A);
  unsigned NB = internNode(B);
  processPending();
  bool Result = UF.same(NA, NB);
  // Interning can itself discover congruences and merge; the answer is
  // then relative to the *new* closure, and storing it under the old
  // stamp is fine only because the stamp moved: the whole table is
  // flushed on the next query.  Skip the store in that case.
  if (QueryCacheEnabled && QueryCacheVersion == Version)
    QueryCache.emplace(Key, Result);
  return Result;
}

const Type *Congruence::getRepresentative(const Type *T) {
  unsigned N = internNode(T);
  processPending();
  return ClassRep[UF.find(N)];
}

void Congruence::rollback(const Mark &M) {
  assert(Pending.empty() && "rollback with merges still pending");
  // Undoing a merge changes equality answers, so the knowledge stamp
  // must move.  Node-creation-only rollbacks keep the stamp: removing
  // fresh disjoint nodes cannot change any surviving pair's answer
  // (types are immutable and hash-consed, so a re-intern reproduces the
  // same structure).
  if (NumMerges != M.NumMerges) {
    ++Version;
    NumMerges = M.NumMerges;
  }
  while (Trail.size() > M.TrailSize) {
    UndoOp &Op = Trail.back();
    switch (Op.Kind) {
    case UndoKind::NodeCreated:
      NodeOf.erase(Op.Ty);
      break;
    case UndoKind::ParentPushed:
      ClassParents[Op.Root].pop_back();
      break;
    case UndoKind::ParentsSpliced:
      ClassParents[Op.Root].resize(Op.OldSize);
      break;
    case UndoKind::SigInserted:
      SigTable.erase(Op.Key);
      break;
    case UndoKind::SigErased:
      SigTable.emplace(Op.Key, Op.NodeId);
      break;
    case UndoKind::RepChanged:
      ClassRep[Op.Root] = Op.Ty;
      ClassRepNode[Op.Root] = Op.NodeId;
      break;
    }
    Trail.pop_back();
  }
  UF.rollback(M.UFMark);
  Nodes.resize(M.NumNodes);
  ClassParents.resize(M.NumNodes);
  ClassRep.resize(M.NumNodes);
  ClassRepNode.resize(M.NumNodes);
}
