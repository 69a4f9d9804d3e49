//===- aot/CppEmitter.cpp - System F to C++17 transpiler ------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
//
// Code shape
// ----------
// The program becomes one translation unit:
//
//   * a runtime prelude (tagged Value with an intrusive refcount and
//     pooled heap objects, the builtin table, apply/tyapply, a renderer
//     matching valueToString),
//   * one `static Value fn_K(State&, const Value *C, const Value *A)`
//     per Abs/TyAbs, where C is the flat capture array and A the
//     argument array — closures are one header plus a trailing flat
//     capture array, no environment spine and no per-closure vector,
//   * `static Value fg_program(State&)` for the top-level term,
//   * a main() that parses --max-steps/--max-depth/--repeat, runs the
//     program on a 512 MiB pthread stack (deep recursion), prints the
//     rendered value (exit 0) or the runtime error (exit 3).
//
// Statements are emitted flat — one fresh `Value vN` per term node at
// the current block level, never a nested block per node — because a
// 1000-deep cons chain would otherwise exceed the host compiler's
// bracket-nesting limit.  Only `if` opens blocks (its branches really
// are conditionally evaluated).
//
// Coalesced accounting (the abort contract)
// -----------------------------------------
// The tree walker charges one step and one depth check per term node:
// `++Steps > MaxSteps` then `Depth >= MaxDepth` then ++Depth, undone
// where its DepthGuard closes.  Emitted code no longer performs that
// dance per node.  Instead:
//
//   * Depth is a pure function of lexical nesting: a node at nesting
//     offset `o` inside a function whose entry depth was D0 is checked
//     at exactly `D0 + o`.  So emitted functions capture
//     `const uint64_t D0 = S.Depth;` once, and only *write* S.Depth
//     immediately before a call (`rt::apply`/`rt::tyapply`), where the
//     callee needs to observe the tree-walker's depth.
//   * Step/depth charges are *coalesced per basic-block segment*: a
//     run of consecutive infallible charges becomes one
//     `rt::charge(S, K, D0, staircase)` at the next abort point
//     (a call, a builtin, proj, truth, a branch end, or the function
//     epilogue).  The staircase is the prefix-maxima of the segment's
//     depth offsets, so the *first* charge that would cross any given
//     MaxDepth is recoverable exactly.
//   * On overrun, rt::chargeFail adjudicates which limit the tree
//     walker would have reported first: the 1-based index of the first
//     over-budget step (`MaxSteps - S0 + 1`) against the index of the
//     first staircase record at or above MaxDepth; ties go to the step
//     limit because each node checks steps before depth.  This keeps
//     abort diagnostics byte-identical to Eval.cpp even when the abort
//     lands mid-segment.
//
// applyImpl's own frame still charges eagerly inside rt::apply; a
// TyApp instantiation evaluates the body inside the TyApp frame with
// no apply frame, exactly like the tree-walker.
//
// Fix memoization
// ---------------
// The language is pure, so the unroll of a given `fix` value is
// deterministic: rt::apply memoizes it per run keyed on the FixO
// address (a Keepalive copy pins the address), mirroring the VM's
// inline-cached fix memo.  A hit replays the unroll's metered budget —
// charging its recorded steps and requiring its transient depth to
// fit — so runs under smaller budgets abort exactly as the uncached
// computation would.  The memo lives in State, not on the FixO, so
// values stay acyclic and the binaries stay leak-clean under ASan.
//
// Memory discipline
// -----------------
// Heap objects (cons cells, tuples, closures, fix wrappers) come from
// per-shape free-lists and return there on death, so steady-state
// loops run allocation-free.  Destruction is a single explicit
// work-list for *all* shapes — a million-element list or a deeply
// nested tuple frees in constant native stack.  The renderer is
// likewise iterative.
//
//===----------------------------------------------------------------------===//

#include "aot/CppEmitter.h"
#include "systemf/TermOps.h"
#include <cstdint>
#include <set>
#include <vector>

using namespace fg;
using namespace fg::sf;

const unsigned fg::aot::EmitterVersion = 2;

namespace {

//===----------------------------------------------------------------------===//
// Builtin table
//===----------------------------------------------------------------------===//

// Must match the `Builtins[]` table in the runtime prelude below, in
// order.  `nil` is not here: it is a plain value, not a function.
struct BuiltinRow {
  const char *Name;
  unsigned Arity;
};
const BuiltinRow BuiltinTable[] = {
    {"iadd", 2}, {"isub", 2}, {"imult", 2}, {"imax", 2}, {"imin", 2},
    {"idiv", 2}, {"imod", 2}, {"ineg", 1},  {"ieq", 2},  {"ine", 2},
    {"ilt", 2},  {"ile", 2},  {"igt", 2},   {"ige", 2},  {"band", 2},
    {"bor", 2},  {"bnot", 1}, {"cons", 2},  {"car", 1},  {"cdr", 1},
    {"null", 1},
};
const int NumBuiltins = sizeof(BuiltinTable) / sizeof(BuiltinTable[0]);

int builtinId(const std::string &Name) {
  for (int I = 0; I != NumBuiltins; ++I)
    if (Name == BuiltinTable[I].Name)
      return I;
  return -1;
}

//===----------------------------------------------------------------------===//
// Runtime prelude
//===----------------------------------------------------------------------===//

const char *RuntimePrelude = R"RT(#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>
#include <pthread.h>

namespace rt {

// Abort diagnostics; byte-identical to systemf/Eval.cpp.
struct Err {
  std::string Msg;
};

[[noreturn]] inline void fail(std::string Msg) { throw Err{std::move(Msg)}; }

enum class Tag : uint8_t {
  Int,
  Bool,
  Builtin,
  Nil,
  // Heap tags from here on.
  Tuple,
  Cons,
  Closure,
  TyClosure,
  Fix,
};

inline bool heapTag(Tag T) { return T >= Tag::Tuple; }

// Values are immutable and acyclic, so a plain (non-atomic: the
// program is single-threaded) intrusive refcount reclaims everything —
// the generated binaries run leak-clean under LeakSanitizer in CI.
struct Obj {
  uint32_t RC = 1;
};

struct State;
struct Value;
using Fn = Value (*)(State &, const Value *C, const Value *A);

void destroy(Obj *O, Tag T);

struct Value {
  Tag T = Tag::Int;
  int64_t I = 0;
  Obj *O = nullptr;

  Value() = default;
  Value(const Value &V) : T(V.T), I(V.I), O(V.O) {
    if (O && heapTag(T))
      ++O->RC;
  }
  Value(Value &&V) noexcept : T(V.T), I(V.I), O(V.O) {
    V.T = Tag::Int;
    V.O = nullptr;
  }
  ~Value() { release(); }
  Value &operator=(const Value &V) {
    Value Tmp(V);
    return *this = static_cast<Value &&>(Tmp);
  }
  Value &operator=(Value &&V) noexcept {
    if (this != &V) {
      release();
      T = V.T;
      I = V.I;
      O = V.O;
      V.T = Tag::Int;
      V.O = nullptr;
    }
    return *this;
  }
  void release() {
    if (O && heapTag(T) && --O->RC == 0)
      destroy(O, T);
    O = nullptr;
  }
};

// One memoized `fix` unroll: (fix f) -> (f (fix f)), plus the budget
// the unroll consumed so a replay is indistinguishable from re-running
// it.  Keepalive pins the FixO address the entry is keyed on.
struct FixMemoEntry {
  Value Keepalive;
  Value Unrolled;
  uint64_t StepCost = 0;
  uint64_t DepthNeed = 0;
};

// The evaluation budget.  enter()/leave() mirror the tree-walking
// evaluator's per-frame accounting (steps check, then depth check,
// then DepthGuard) and are used only by rt::apply — emitted code
// charges coalesced segments through rt::charge/charge1 instead.
struct State {
  uint64_t Steps = 0;
  uint64_t Depth = 0;
  uint64_t MaxSteps = 200000000ULL;
  uint64_t MaxDepth = 100000ULL;
  // High-water mark of Depth, maintained so fix-memo misses can meter
  // the transient depth an unroll needs (the VM keeps the same mark).
  uint64_t MaxDepthSeen = 0;
  std::unordered_map<const Obj *, FixMemoEntry> FixMemo;
  const Obj *FixMemoKey = nullptr;       // Inline cache: the one hot fix.
  const FixMemoEntry *FixMemoCached = nullptr;

  void enter() {
    if (++Steps > MaxSteps)
      fail("evaluation exceeded the step limit");
    if (Depth >= MaxDepth)
      fail("evaluation exceeded the recursion depth limit");
    if (++Depth > MaxDepthSeen)
      MaxDepthSeen = Depth;
  }
  void leave() { --Depth; }
};

//===--- Coalesced step/depth charges -------------------------------------===//
//
// One rt::charge covers a whole segment of K tree-walker nodes.  The
// staircase R[0..N) records the segment's prefix-maxima of depth
// offsets: R[i].Idx is the 1-based position within the segment of the
// first charge reaching depth D0 + R[i].Off.  Because every earlier
// charge sits strictly below R[i].Off, the first charge crossing any
// depth threshold is exactly the first staircase record at or above
// it — so an overrun can be adjudicated precisely against the first
// over-budget step.

struct SegRec {
  uint32_t Idx; // 1-based position of this prefix-maximum in the segment.
  uint32_t Off; // Depth offset from the charging function's D0.
};

inline void noteDepth(State &S, uint64_t D) {
  if (D > S.MaxDepthSeen)
    S.MaxDepthSeen = D;
}

[[noreturn]] inline void chargeFail(State &S, uint64_t K, uint64_t D0,
                                    const SegRec *R, uint32_t N) {
  // The tree walker checks steps before depth at each node, so the
  // first failing charge index decides, with ties going to steps.
  uint64_t S0 = S.Steps - K;
  uint64_t Js = S.Steps > S.MaxSteps ? S.MaxSteps - S0 + 1 : UINT64_MAX;
  uint64_t Jd = UINT64_MAX;
  for (uint32_t I = 0; I != N; ++I)
    if (D0 + R[I].Off >= S.MaxDepth) {
      Jd = R[I].Idx;
      break;
    }
  if (Js <= Jd)
    fail("evaluation exceeded the step limit");
  fail("evaluation exceeded the recursion depth limit");
}

inline void charge(State &S, uint64_t K, uint64_t D0, const SegRec *R,
                   uint32_t N) {
  S.Steps += K;
  uint64_t Top = D0 + R[N - 1].Off;
  if (S.Steps > S.MaxSteps || Top >= S.MaxDepth)
    chargeFail(S, K, D0, R, N);
  noteDepth(S, Top + 1);
}

// Degenerate staircase (its first charge is already the deepest).
inline void charge1(State &S, uint64_t K, uint64_t DAt) {
  S.Steps += K;
  if (S.Steps > S.MaxSteps || DAt >= S.MaxDepth) {
    SegRec R{1, 0};
    chargeFail(S, K, DAt, &R, 1);
  }
  noteDepth(S, DAt + 1);
}

//===--- Heap objects and free-list pools ---------------------------------===//

struct TupleO : Obj {
  std::vector<Value> Elems;
};
struct ConsO : Obj {
  Value Head;
  Value Tail; // Nil or Cons.
};
// Closures and type closures share one shape: a header with the code
// pointer followed by a flat trailing array of NCaps captures — no
// per-closure vector, no environment spine.  The Tag tells them apart.
struct FnO : Obj {
  Fn F;
  uint32_t Arity; // 0 for type closures.
  uint32_t NCaps;
  Value *caps() { return reinterpret_cast<Value *>(this + 1); }
  const Value *caps() const {
    return reinterpret_cast<const Value *>(this + 1);
  }
};
struct FixO : Obj {
  Value F;
};

// Per-shape free-lists: steady-state loops recycle their cells instead
// of hitting the allocator.  Pool storage is reachable from these
// statics, so LeakSanitizer stays quiet.  Recycled objects are kept in
// the neutral state destroy() leaves them in (children released,
// vectors cleared but with capacity retained).
constexpr uint32_t MaxFnBin = 8;
static std::vector<TupleO *> TuplePool;
static std::vector<ConsO *> ConsPool;
static std::vector<FixO *> FixPool;
static std::vector<FnO *> FnPool[MaxFnBin + 1];

inline TupleO *allocTuple() {
  if (!TuplePool.empty()) {
    TupleO *O = TuplePool.back();
    TuplePool.pop_back();
    O->RC = 1;
    return O;
  }
  return new TupleO;
}
inline ConsO *allocCons() {
  if (!ConsPool.empty()) {
    ConsO *O = ConsPool.back();
    ConsPool.pop_back();
    O->RC = 1;
    return O;
  }
  return new ConsO;
}
inline FixO *allocFix() {
  if (!FixPool.empty()) {
    FixO *O = FixPool.back();
    FixPool.pop_back();
    O->RC = 1;
    return O;
  }
  return new FixO;
}
inline FnO *allocFn(uint32_t NCaps) {
  if (NCaps <= MaxFnBin && !FnPool[NCaps].empty()) {
    FnO *O = FnPool[NCaps].back();
    FnPool[NCaps].pop_back();
    O->RC = 1;
    return O;
  }
  void *P = ::operator new(sizeof(FnO) + NCaps * sizeof(Value));
  FnO *O = new (P) FnO;
  O->NCaps = NCaps;
  Value *C = O->caps();
  for (uint32_t I = 0; I != NCaps; ++I)
    new (C + I) Value;
  return O;
}

// Drops a dead child reference without running its destructor chain:
// the owner is being dismantled on the explicit work-list, so a child
// whose refcount hits zero is queued rather than destroyed in place.
inline void recycleChild(Value &V, std::vector<std::pair<Obj *, Tag>> &Dead) {
  if (V.O && heapTag(V.T) && --V.O->RC == 0)
    Dead.emplace_back(V.O, V.T);
  V.T = Tag::Int;
  V.O = nullptr;
}

// One work-list frees every shape — million-element list spines, deep
// tuple-of-tuple nests, and closure capture chains all die in constant
// native stack.  Freed cells go back to their pool.
void destroy(Obj *O0, Tag T0) {
  static std::vector<std::pair<Obj *, Tag>> Dead;
  size_t Base = Dead.size();
  Dead.emplace_back(O0, T0);
  while (Dead.size() > Base) {
    Obj *O = Dead.back().first;
    Tag T = Dead.back().second;
    Dead.pop_back();
    switch (T) {
    case Tag::Tuple: {
      TupleO *P = static_cast<TupleO *>(O);
      for (Value &E : P->Elems)
        recycleChild(E, Dead);
      P->Elems.clear();
      TuplePool.push_back(P);
      break;
    }
    case Tag::Cons: {
      ConsO *P = static_cast<ConsO *>(O);
      recycleChild(P->Head, Dead);
      recycleChild(P->Tail, Dead);
      ConsPool.push_back(P);
      break;
    }
    case Tag::Closure:
    case Tag::TyClosure: {
      FnO *P = static_cast<FnO *>(O);
      Value *C = P->caps();
      for (uint32_t I = 0; I != P->NCaps; ++I)
        recycleChild(C[I], Dead);
      if (P->NCaps <= MaxFnBin)
        FnPool[P->NCaps].push_back(P);
      else
        ::operator delete(P);
      break;
    }
    case Tag::Fix: {
      FixO *P = static_cast<FixO *>(O);
      recycleChild(P->F, Dead);
      FixPool.push_back(P);
      break;
    }
    default:
      break;
    }
  }
}

inline Value mkInt(int64_t I) {
  Value V;
  V.T = Tag::Int;
  V.I = I;
  return V;
}
inline Value mkBool(bool B) {
  Value V;
  V.T = Tag::Bool;
  V.I = B;
  return V;
}
inline Value mkBuiltin(int64_t Id) {
  Value V;
  V.T = Tag::Builtin;
  V.I = Id;
  return V;
}
inline Value mkNil() {
  Value V;
  V.T = Tag::Nil;
  return V;
}
inline Value mkHeap(Tag T, Obj *O) {
  Value V;
  V.T = T;
  V.O = O;
  return V;
}
template <typename... Es> inline Value mkTuple(Es &&...E) {
  TupleO *O = allocTuple();
  O->Elems.reserve(sizeof...(E));
  (O->Elems.emplace_back(static_cast<Es &&>(E)), ...);
  return mkHeap(Tag::Tuple, O);
}
inline Value mkCons(Value Head, Value Tail) {
  ConsO *O = allocCons();
  O->Head = std::move(Head);
  O->Tail = std::move(Tail);
  return mkHeap(Tag::Cons, O);
}
template <typename... Cs>
inline Value mkClosure(Fn F, uint32_t Arity, Cs &&...C) {
  FnO *O = allocFn(static_cast<uint32_t>(sizeof...(C)));
  O->F = F;
  O->Arity = Arity;
  Value *P = O->caps();
  uint32_t I = 0;
  ((P[I++] = static_cast<Cs &&>(C)), ...);
  (void)P;
  (void)I;
  return mkHeap(Tag::Closure, O);
}
template <typename... Cs> inline Value mkTyClosure(Fn F, Cs &&...C) {
  FnO *O = allocFn(static_cast<uint32_t>(sizeof...(C)));
  O->F = F;
  O->Arity = 0;
  Value *P = O->caps();
  uint32_t I = 0;
  ((P[I++] = static_cast<Cs &&>(C)), ...);
  (void)P;
  (void)I;
  return mkHeap(Tag::TyClosure, O);
}
inline Value mkFix(Value F) {
  FixO *O = allocFix();
  O->F = std::move(F);
  return mkHeap(Tag::Fix, O);
}

const char *builtinName(int64_t Id);

// Rendering; byte-identical to sf::valueToString.  Driven by an
// explicit token stack so arbitrarily deep values render in constant
// native stack.
inline std::string render(const Value &Root) {
  struct Tok {
    const Value *V;  // Value to render, or
    const char *Lit; // literal text to append.
  };
  std::string S;
  std::vector<Tok> Stk;
  std::vector<const Value *> Elems; // Scratch: children in source order.
  Stk.push_back({&Root, nullptr});
  while (!Stk.empty()) {
    Tok T = Stk.back();
    Stk.pop_back();
    if (T.Lit) {
      S += T.Lit;
      continue;
    }
    const Value &V = *T.V;
    switch (V.T) {
    case Tag::Int:
      S += std::to_string(V.I);
      break;
    case Tag::Bool:
      S += V.I ? "true" : "false";
      break;
    case Tag::Builtin:
      S += "<builtin ";
      S += builtinName(V.I);
      S += ">";
      break;
    case Tag::Nil:
    case Tag::Cons: {
      Elems.clear();
      for (const Value *L = &V; L->T == Tag::Cons;
           L = &static_cast<const ConsO *>(L->O)->Tail)
        Elems.push_back(&static_cast<const ConsO *>(L->O)->Head);
      S += "[";
      Stk.push_back({nullptr, "]"});
      for (size_t I = Elems.size(); I != 0; --I) {
        Stk.push_back({Elems[I - 1], nullptr});
        if (I != 1)
          Stk.push_back({nullptr, ", "});
      }
      break;
    }
    case Tag::Tuple: {
      const TupleO *O = static_cast<const TupleO *>(V.O);
      S += "(";
      Stk.push_back({nullptr, ")"});
      for (size_t I = O->Elems.size(); I != 0; --I) {
        Stk.push_back({&O->Elems[I - 1], nullptr});
        if (I != 1)
          Stk.push_back({nullptr, ", "});
      }
      break;
    }
    case Tag::Closure:
      S += "<closure>";
      break;
    case Tag::TyClosure:
      S += "<tyclosure>";
      break;
    case Tag::Fix:
      S += "<fix>";
      break;
    default:
      S += "<unknown-value>";
      break;
    }
  }
  return S;
}

// Builtins; error strings byte-identical to systemf/Builtins.cpp.
[[noreturn]] inline void wrongKind(const char *Name) {
  fail(std::string("builtin `") + Name + "` applied to a value of the wrong kind");
}
inline bool isList(const Value &V) { return V.T == Tag::Nil || V.T == Tag::Cons; }
inline bool bothInt(const Value &A, const Value &B) {
  return A.T == Tag::Int && B.T == Tag::Int;
}
inline bool bothBool(const Value &A, const Value &B) {
  return A.T == Tag::Bool && B.T == Tag::Bool;
}

inline Value b_iadd(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("iadd");
  return mkInt((int64_t)((uint64_t)A.I + (uint64_t)B.I));
}
inline Value b_isub(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("isub");
  return mkInt((int64_t)((uint64_t)A.I - (uint64_t)B.I));
}
inline Value b_imult(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("imult");
  return mkInt((int64_t)((uint64_t)A.I * (uint64_t)B.I));
}
inline Value b_imax(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("imax");
  return mkInt(A.I > B.I ? A.I : B.I);
}
inline Value b_imin(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("imin");
  return mkInt(A.I < B.I ? A.I : B.I);
}
inline Value b_idiv(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("idiv");
  if (B.I == 0)
    fail("division by zero");
  return mkInt(A.I / B.I);
}
inline Value b_imod(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("imod");
  if (B.I == 0)
    fail("modulus by zero");
  return mkInt(A.I % B.I);
}
inline Value b_ineg(const Value &A) {
  if (A.T != Tag::Int)
    wrongKind("ineg");
  return mkInt((int64_t)(0 - (uint64_t)A.I));
}
inline Value b_ieq(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("ieq");
  return mkBool(A.I == B.I);
}
inline Value b_ine(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("ine");
  return mkBool(A.I != B.I);
}
inline Value b_ilt(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("ilt");
  return mkBool(A.I < B.I);
}
inline Value b_ile(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("ile");
  return mkBool(A.I <= B.I);
}
inline Value b_igt(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("igt");
  return mkBool(A.I > B.I);
}
inline Value b_ige(const Value &A, const Value &B) {
  if (!bothInt(A, B))
    wrongKind("ige");
  return mkBool(A.I >= B.I);
}
inline Value b_band(const Value &A, const Value &B) {
  if (!bothBool(A, B))
    wrongKind("band");
  return mkBool(A.I && B.I);
}
inline Value b_bor(const Value &A, const Value &B) {
  if (!bothBool(A, B))
    wrongKind("bor");
  return mkBool(A.I || B.I);
}
inline Value b_bnot(const Value &A) {
  if (A.T != Tag::Bool)
    wrongKind("bnot");
  return mkBool(!A.I);
}
inline Value b_cons(const Value &A, const Value &B) {
  if (!isList(B))
    wrongKind("cons");
  return mkCons(A, B);
}
inline Value b_car(const Value &A) {
  if (!isList(A))
    wrongKind("car");
  if (A.T == Tag::Nil)
    fail("`car` of the empty list");
  return static_cast<const ConsO *>(A.O)->Head;
}
inline Value b_cdr(const Value &A) {
  if (!isList(A))
    wrongKind("cdr");
  if (A.T == Tag::Nil)
    fail("`cdr` of the empty list");
  return static_cast<const ConsO *>(A.O)->Tail;
}
inline Value b_null(const Value &A) {
  if (!isList(A))
    wrongKind("null");
  return mkBool(A.T == Tag::Nil);
}

inline Value d_iadd(const Value *A) { return b_iadd(A[0], A[1]); }
inline Value d_isub(const Value *A) { return b_isub(A[0], A[1]); }
inline Value d_imult(const Value *A) { return b_imult(A[0], A[1]); }
inline Value d_imax(const Value *A) { return b_imax(A[0], A[1]); }
inline Value d_imin(const Value *A) { return b_imin(A[0], A[1]); }
inline Value d_idiv(const Value *A) { return b_idiv(A[0], A[1]); }
inline Value d_imod(const Value *A) { return b_imod(A[0], A[1]); }
inline Value d_ineg(const Value *A) { return b_ineg(A[0]); }
inline Value d_ieq(const Value *A) { return b_ieq(A[0], A[1]); }
inline Value d_ine(const Value *A) { return b_ine(A[0], A[1]); }
inline Value d_ilt(const Value *A) { return b_ilt(A[0], A[1]); }
inline Value d_ile(const Value *A) { return b_ile(A[0], A[1]); }
inline Value d_igt(const Value *A) { return b_igt(A[0], A[1]); }
inline Value d_ige(const Value *A) { return b_ige(A[0], A[1]); }
inline Value d_band(const Value *A) { return b_band(A[0], A[1]); }
inline Value d_bor(const Value *A) { return b_bor(A[0], A[1]); }
inline Value d_bnot(const Value *A) { return b_bnot(A[0]); }
inline Value d_cons(const Value *A) { return b_cons(A[0], A[1]); }
inline Value d_car(const Value *A) { return b_car(A[0]); }
inline Value d_cdr(const Value *A) { return b_cdr(A[0]); }
inline Value d_null(const Value *A) { return b_null(A[0]); }

struct BuiltinDesc {
  const char *Name;
  uint32_t Arity;
  Value (*F)(const Value *);
};
const BuiltinDesc Builtins[] = {
    {"iadd", 2, d_iadd}, {"isub", 2, d_isub}, {"imult", 2, d_imult},
    {"imax", 2, d_imax}, {"imin", 2, d_imin}, {"idiv", 2, d_idiv},
    {"imod", 2, d_imod}, {"ineg", 1, d_ineg}, {"ieq", 2, d_ieq},
    {"ine", 2, d_ine},   {"ilt", 2, d_ilt},   {"ile", 2, d_ile},
    {"igt", 2, d_igt},   {"ige", 2, d_ige},   {"band", 2, d_band},
    {"bor", 2, d_bor},   {"bnot", 1, d_bnot}, {"cons", 2, d_cons},
    {"car", 1, d_car},   {"cdr", 1, d_cdr},   {"null", 1, d_null},
};

const char *builtinName(int64_t Id) { return Builtins[Id].Name; }

// applyImpl, with `fix` trampolined: `(fix f)(v...)` unrolls to
// `(f (fix f))(v...)` in a loop — each unroll holds its applyImpl
// frame open (like the tree-walker's recursion) but consumes constant
// native stack, so fix chains cannot overflow independently of the
// program's own recursion.
//
// Unrolls are memoized per fix value (see FixMemoEntry): the step and
// depth checks stay on every path, so degenerate chains such as
// `fix (fun(f). f)` — whose unroll is itself — still abort with the
// shared diagnostics.
inline Value apply(State &S, Value F, const Value *Args, uint32_t N) {
  uint64_t Held = 0;
  while (F.T == Tag::Fix) {
    S.enter();
    ++Held;
    const Obj *Key = F.O;
    const FixMemoEntry *E = nullptr;
    if (Key == S.FixMemoKey) {
      E = S.FixMemoCached;
    } else {
      auto It = S.FixMemo.find(Key);
      if (It != S.FixMemo.end()) {
        S.FixMemoKey = Key;
        S.FixMemoCached = &It->second;
        E = &It->second;
      }
    }
    if (E) {
      // A hit must be indistinguishable from re-running the unroll:
      // charge its recorded steps and require its transient depth to
      // fit, so a run under a smaller budget aborts exactly as the
      // uncached computation would.
      S.Steps += E->StepCost;
      if (S.Steps > S.MaxSteps)
        fail("evaluation exceeded the step limit");
      if (S.Depth + E->DepthNeed > S.MaxDepth)
        fail("evaluation exceeded the recursion depth limit");
      noteDepth(S, S.Depth + E->DepthNeed);
      F = E->Unrolled;
      continue;
    }
    // Miss: meter the unroll so hits can replay its budget use —
    // steps by delta, transient depth by resetting the high-water
    // mark to the call site for the duration (restored to cover the
    // enclosing measurement afterwards).
    uint64_t StepsBefore = S.Steps;
    uint64_t DepthBefore = S.Depth;
    uint64_t SavedMax = S.MaxDepthSeen;
    S.MaxDepthSeen = DepthBefore;
    Value Self = F;
    Value Unrolled = apply(S, static_cast<const FixO *>(Self.O)->F, &Self, 1);
    uint64_t DepthNeed = S.MaxDepthSeen - DepthBefore;
    if (SavedMax > S.MaxDepthSeen)
      S.MaxDepthSeen = SavedMax;
    // The keepalive pins the fix value so its address cannot be reused
    // by a different allocation while the memo entry lives.  Pointers
    // into unordered_map values stay valid across rehashes.
    FixMemoEntry &Slot = S.FixMemo[Key];
    Slot.Keepalive = std::move(Self);
    Slot.Unrolled = Unrolled;
    Slot.StepCost = S.Steps - StepsBefore;
    Slot.DepthNeed = DepthNeed;
    S.FixMemoKey = Key;
    S.FixMemoCached = &Slot;
    F = std::move(Unrolled);
  }
  S.enter();
  Value R;
  switch (F.T) {
  case Tag::Closure: {
    const FnO *C = static_cast<const FnO *>(F.O);
    if (C->Arity != N)
      fail("function called with wrong arity");
    R = C->F(S, C->caps(), Args);
    break;
  }
  case Tag::Builtin: {
    const BuiltinDesc &B = Builtins[F.I];
    if (B.Arity != N)
      fail(std::string("builtin `") + B.Name + "` called with wrong arity");
    R = B.F(Args);
    break;
  }
  default:
    fail("attempt to call a non-function value `" + render(F) + "`");
  }
  S.leave();
  while (Held--)
    S.leave();
  return R;
}

// Type application: instantiating a type abstraction evaluates its
// body inside the TyApp frame (no apply frame — tree-walker parity);
// all other values (builtins like `nil`) pass through.
inline Value tyapply(State &S, const Value &F) {
  if (F.T == Tag::TyClosure) {
    const FnO *C = static_cast<const FnO *>(F.O);
    return C->F(S, C->caps(), nullptr);
  }
  return F;
}

inline Value proj(const Value &V, uint32_t Idx) {
  if (V.T != Tag::Tuple)
    fail("`nth` applied to a non-tuple value");
  const TupleO *O = static_cast<const TupleO *>(V.O);
  if (Idx >= O->Elems.size())
    fail("tuple index out of range at runtime");
  return O->Elems[Idx];
}

inline bool truth(const Value &V) {
  if (V.T != Tag::Bool)
    fail("`if` condition evaluated to a non-boolean");
  return V.I != 0;
}

} // namespace rt
)RT";

// main() and the thread harness; appended after the program functions.
const char *RuntimeMain = R"RT(
namespace rt {

struct RunArgs {
  uint64_t MaxSteps = 200000000ULL;
  uint64_t MaxDepth = 100000ULL;
  long long Repeat = 1;
  int Exit = 0;
  std::string Out;
  long long NsPerRun = 0;
};

static void *runProgram(void *P) {
  RunArgs *A = static_cast<RunArgs *>(P);
  try {
    std::string Rendered;
    struct timespec T0, T1;
    clock_gettime(CLOCK_MONOTONIC, &T0);
    for (long long I = 0; I < A->Repeat; ++I) {
      State S;
      S.MaxSteps = A->MaxSteps;
      S.MaxDepth = A->MaxDepth;
      Value V = fg_program(S);
      if (I + 1 == A->Repeat)
        Rendered = render(V);
    }
    clock_gettime(CLOCK_MONOTONIC, &T1);
    A->NsPerRun = ((T1.tv_sec - T0.tv_sec) * 1000000000LL +
                   (T1.tv_nsec - T0.tv_nsec)) /
                  A->Repeat;
    A->Out = Rendered;
    A->Exit = 0;
  } catch (const Err &E) {
    A->Out = E.Msg;
    A->Exit = 3;
  }
  return nullptr;
}

} // namespace rt

int main(int argc, char **argv) {
  rt::RunArgs A;
  for (int I = 1; I < argc; ++I) {
    const char *Arg = argv[I];
    if (!strncmp(Arg, "--max-steps=", 12))
      A.MaxSteps = strtoull(Arg + 12, nullptr, 10);
    else if (!strncmp(Arg, "--max-depth=", 12))
      A.MaxDepth = strtoull(Arg + 12, nullptr, 10);
    else if (!strncmp(Arg, "--repeat=", 9))
      A.Repeat = strtoll(Arg + 9, nullptr, 10);
    else {
      fprintf(stderr, "usage: %s [--max-steps=N] [--max-depth=N] [--repeat=N]\n",
              argv[0]);
      return 2;
    }
  }
  if (A.Repeat < 1)
    A.Repeat = 1;
  // Run on a dedicated 512 MiB stack: deep program recursion (60k+
  // frames, like the VM supports) must not overflow the default stack.
  pthread_attr_t Attr;
  pthread_t Tid;
  bool Threaded = pthread_attr_init(&Attr) == 0 &&
                  pthread_attr_setstacksize(&Attr, 512ULL << 20) == 0 &&
                  pthread_create(&Tid, &Attr, rt::runProgram, &A) == 0;
  if (Threaded)
    pthread_join(Tid, nullptr);
  else
    rt::runProgram(&A);
  printf("%s\n", A.Out.c_str());
  if (A.Exit == 0 && A.Repeat > 1)
    printf("bench_ns_per_run=%lld\n", A.NsPerRun);
  return A.Exit;
}
)RT";

//===----------------------------------------------------------------------===//
// Emitter
//===----------------------------------------------------------------------===//

class Emitter {
public:
  explicit Emitter(const sf::Prelude &P) {
    for (const auto &E : P.Entries)
      PreludeNames.insert(E.Name);
  }

  aot::EmittedProgram emit(const Term *T);

private:
  /// One function being emitted.  Scope maps a System F name to the
  /// C++ expression that reads it in this function (`A[i]` argument,
  /// `C[j]` capture, a `vN` local, or a pure constructor expression);
  /// shadowing resolves back-to-front.
  ///
  /// PendingK/Stairs accumulate the current coalesced charge segment:
  /// PendingK tree-walker charges not yet accounted, Stairs the
  /// prefix-maxima staircase of their depth offsets (1-based index
  /// within the segment, offset from D0).  flushCharges() materializes
  /// the segment before any abort point.
  struct FnCtx {
    std::vector<std::pair<std::string, std::string>> Scope;
    std::string Body;
    std::string Indent = "  ";
    uint64_t PendingK = 0;
    std::vector<std::pair<uint64_t, unsigned>> Stairs;
    bool WroteDepth = false;
  };

  std::set<std::string> PreludeNames;
  std::vector<std::string> Funcs; ///< Completed function definitions.
  unsigned NumFns = 0;
  unsigned NumVars = 0;
  unsigned NumSegs = 0;
  std::string Error;

  std::string freshVar() { return "v" + std::to_string(NumVars++); }

  void line(FnCtx &F, const std::string &S) {
    F.Body += F.Indent + S + "\n";
  }

  /// Adds one tree-walker charge at depth offset \p Off to the pending
  /// segment.
  void chargeNode(FnCtx &F, unsigned Off) {
    ++F.PendingK;
    if (F.Stairs.empty() || Off > F.Stairs.back().second)
      F.Stairs.emplace_back(F.PendingK, Off);
  }

  /// Emits the pending charge segment (if any).  Must run before every
  /// emitted operation that can fail or observe S.Steps/S.Depth: calls,
  /// builtins, proj, truth, branch ends, and the function epilogue.
  void flushCharges(FnCtx &F) {
    if (!F.PendingK)
      return;
    if (F.Stairs.size() == 1) {
      line(F, "rt::charge1(S, " + std::to_string(F.PendingK) + ", D0 + " +
                  std::to_string(F.Stairs[0].second) + ");");
      F.PendingK = 0;
      F.Stairs.clear();
      return;
    }
    std::string Arr = "sg" + std::to_string(NumSegs++);
    std::string Recs;
    for (const auto &R : F.Stairs)
      Recs += "{" + std::to_string(R.first) + "u, " +
              std::to_string(R.second) + "u}, ";
    line(F, "static const rt::SegRec " + Arr + "[] = {" + Recs + "};");
    line(F, "rt::charge(S, " + std::to_string(F.PendingK) + ", D0, " + Arr +
                ", " + std::to_string(F.Stairs.size()) + ");");
    F.PendingK = 0;
    F.Stairs.clear();
  }

  /// Sets S.Depth to the tree-walker's value inside the frame of the
  /// node at offset \p Off (i.e. D0 + Off + 1) — required before
  /// apply/tyapply so the callee observes the right depth.
  void storeDepth(FnCtx &F, unsigned Off) {
    line(F, "S.Depth = D0 + " + std::to_string(Off + 1) + ";");
    F.WroteDepth = true;
  }

  /// True when \p E is a function-local temporary (`vN`) that no scope
  /// binding can re-reference — its single remaining use may move.
  bool ownedTemp(const FnCtx &F, const std::string &E) {
    if (E.size() < 2 || E[0] != 'v')
      return false;
    for (size_t I = 1; I != E.size(); ++I)
      if (E[I] < '0' || E[I] > '9')
        return false;
    for (const auto &B : F.Scope)
      if (B.second == E)
        return false;
    return true;
  }

  /// \p E, wrapped in std::move when this is provably its last use.
  std::string mv(const FnCtx &F, const std::string &E) {
    return ownedTemp(F, E) ? "std::move(" + E + ")" : E;
  }

  /// The C++ expression for \p Name, or "" if it is not in scope and
  /// not a lowerable builtin.
  std::string resolve(const FnCtx &F, const std::string &Name) {
    for (size_t I = F.Scope.size(); I != 0; --I)
      if (F.Scope[I - 1].first == Name)
        return F.Scope[I - 1].second;
    if (PreludeNames.count(Name)) {
      if (Name == "nil")
        return "rt::mkNil()";
      int Id = builtinId(Name);
      if (Id >= 0)
        return "rt::mkBuiltin(" + std::to_string(Id) + ")";
      Error = "aot: builtin `" + Name + "` has no C++ lowering";
      return std::string();
    }
    Error = "aot: unbound variable `" + Name + "` at emit time";
    return std::string();
  }

  /// When \p Fn is an (possibly type-applied) unshadowed builtin
  /// function reference, returns its id and the number of TyApp
  /// wrappers; id -1 otherwise.  Such calls lower to a direct C++ call.
  int directBuiltin(const FnCtx &F, const Term *Fn, unsigned &TyWraps) {
    TyWraps = 0;
    while (const auto *TA = dyn_cast<TyAppTerm>(Fn)) {
      Fn = TA->getFn();
      ++TyWraps;
    }
    const auto *V = dyn_cast<VarTerm>(Fn);
    if (!V)
      return -1;
    for (size_t I = F.Scope.size(); I != 0; --I)
      if (F.Scope[I - 1].first == V->getName())
        return -1; // Shadowed: a local, not the builtin.
    if (!PreludeNames.count(V->getName()))
      return -1;
    return builtinId(V->getName());
  }

  /// Emits \p T into \p F at depth offset \p Off; returns the C++
  /// expression for the result — a `vN` local for materialized nodes,
  /// or the scope/constructor expression itself for variables and
  /// literals (pure and idempotent, so sinking them to their use site
  /// is unobservable).  Statements are flat: locals stay visible for
  /// the rest of the enclosing block.
  std::string emitTerm(const Term *T, FnCtx &F, unsigned Off);

  /// Emits a new function for body \p Body with \p Params bound to the
  /// argument array and \p Caps to the capture array; returns its name.
  std::string emitFunction(const Term *Body,
                           const std::vector<std::string> &Params,
                           const std::vector<std::string> &Caps);
};

std::string Emitter::emitFunction(const Term *Body,
                                  const std::vector<std::string> &Params,
                                  const std::vector<std::string> &Caps) {
  std::string Name = "fn_" + std::to_string(NumFns++);
  FnCtx F;
  for (size_t I = 0; I != Caps.size(); ++I)
    F.Scope.emplace_back(Caps[I], "C[" + std::to_string(I) + "]");
  for (size_t I = 0; I != Params.size(); ++I)
    F.Scope.emplace_back(Params[I], "A[" + std::to_string(I) + "]");
  std::string R = emitTerm(Body, F, 0);
  if (!Error.empty())
    return Name;
  flushCharges(F);
  if (F.WroteDepth)
    line(F, "S.Depth = D0;");
  std::string Def = "static rt::Value " + Name +
                    "(rt::State &S, const rt::Value *C, const rt::Value *A) "
                    "{\n  (void)C;\n  (void)A;\n"
                    "  const uint64_t D0 = S.Depth;\n";
  Def += F.Body;
  Def += "  return " + mv(F, R) + ";\n}\n";
  Funcs.push_back(std::move(Def));
  return Name;
}

std::string Emitter::emitTerm(const Term *T, FnCtx &F, unsigned Off) {
  if (!Error.empty())
    return std::string();
  switch (T->getKind()) {
  case TermKind::IntLit: {
    int64_t I = cast<IntLit>(T)->getValue();
    std::string Lit = I == INT64_MIN
                          ? std::string("(-INT64_C(9223372036854775807) - 1)")
                          : "INT64_C(" + std::to_string(I) + ")";
    chargeNode(F, Off);
    return "rt::mkInt(" + Lit + ")";
  }
  case TermKind::BoolLit:
    chargeNode(F, Off);
    return cast<BoolLit>(T)->getValue() ? "rt::mkBool(true)"
                                        : "rt::mkBool(false)";

  case TermKind::Var: {
    std::string E = resolve(F, cast<VarTerm>(T)->getName());
    if (!Error.empty())
      return std::string();
    chargeNode(F, Off);
    return E;
  }

  case TermKind::Abs: {
    const auto *A = cast<AbsTerm>(T);
    std::vector<std::string> Params;
    for (const ParamBinding &P : A->getParams())
      Params.push_back(P.Name);
    // Captures: every free variable of the lambda that is bound in the
    // enclosing scope.  Builtins resolve globally and need no slot.
    std::vector<std::string> Caps, CapExprs;
    for (const std::string &FV : freeTermVars(T)) {
      for (size_t I = F.Scope.size(); I != 0; --I)
        if (F.Scope[I - 1].first == FV) {
          Caps.push_back(FV);
          CapExprs.push_back(F.Scope[I - 1].second);
          break;
        }
    }
    std::string Fn = emitFunction(A->getBody(), Params, Caps);
    if (!Error.empty())
      return std::string();
    chargeNode(F, Off);
    std::string V = freshVar();
    std::string Args = "&" + Fn + ", " + std::to_string(Params.size());
    for (const std::string &E : CapExprs)
      Args += ", " + E;
    line(F, "rt::Value " + V + " = rt::mkClosure(" + Args + ");");
    return V;
  }

  case TermKind::TyAbs: {
    const auto *A = cast<TyAbsTerm>(T);
    std::vector<std::string> Caps, CapExprs;
    for (const std::string &FV : freeTermVars(T)) {
      for (size_t I = F.Scope.size(); I != 0; --I)
        if (F.Scope[I - 1].first == FV) {
          Caps.push_back(FV);
          CapExprs.push_back(F.Scope[I - 1].second);
          break;
        }
    }
    std::string Fn = emitFunction(A->getBody(), {}, Caps);
    if (!Error.empty())
      return std::string();
    chargeNode(F, Off);
    std::string V = freshVar();
    std::string Args = "&" + Fn;
    for (const std::string &E : CapExprs)
      Args += ", " + E;
    line(F, "rt::Value " + V + " = rt::mkTyClosure(" + Args + ");");
    return V;
  }

  case TermKind::App: {
    const auto *A = cast<AppTerm>(T);
    unsigned TyWraps = 0;
    int Direct = directBuiltin(F, A->getFn(), TyWraps);
    if (Direct >= 0 &&
        BuiltinTable[Direct].Arity == A->getArgs().size()) {
      // Statically-resolved builtin: direct call, with the charge
      // sequence the tree-walker would make (App frame, one frame per
      // TyApp wrapper, the Var frame, the argument subtrees, then the
      // applyImpl frame).
      chargeNode(F, Off);
      for (unsigned I = 1; I <= TyWraps; ++I)
        chargeNode(F, Off + I);
      chargeNode(F, Off + TyWraps + 1);
      std::vector<std::string> Args;
      for (const Term *Arg : A->getArgs())
        Args.push_back(emitTerm(Arg, F, Off + 1));
      if (!Error.empty())
        return std::string();
      chargeNode(F, Off + 1);
      flushCharges(F);
      std::string V = freshVar();
      std::string ArgList;
      for (const std::string &Arg : Args)
        ArgList += (ArgList.empty() ? "" : ", ") + Arg;
      line(F, "rt::Value " + V + " = rt::b_" +
                  std::string(BuiltinTable[Direct].Name) + "(" + ArgList +
                  ");");
      return V;
    }

    chargeNode(F, Off);
    std::string Fn = emitTerm(A->getFn(), F, Off + 1);
    std::vector<std::string> Args;
    for (const Term *Arg : A->getArgs())
      Args.push_back(emitTerm(Arg, F, Off + 1));
    if (!Error.empty())
      return std::string();
    flushCharges(F);
    storeDepth(F, Off);
    std::string V = freshVar();
    line(F, "rt::Value " + V + ";");
    if (Args.empty()) {
      line(F, V + " = rt::apply(S, " + mv(F, Fn) + ", nullptr, 0);");
    } else {
      std::string ArgList;
      for (const std::string &Arg : Args)
        ArgList += (ArgList.empty() ? "" : ", ") + mv(F, Arg);
      line(F, "{");
      line(F, "  rt::Value Ar[] = {" + ArgList + "};");
      line(F, "  " + V + " = rt::apply(S, " + mv(F, Fn) + ", Ar, " +
                  std::to_string(Args.size()) + ");");
      line(F, "}");
    }
    return V;
  }

  case TermKind::TyApp: {
    const auto *A = cast<TyAppTerm>(T);
    chargeNode(F, Off);
    std::string Fn = emitTerm(A->getFn(), F, Off + 1);
    if (!Error.empty())
      return std::string();
    flushCharges(F);
    storeDepth(F, Off);
    std::string V = freshVar();
    line(F, "rt::Value " + V + " = rt::tyapply(S, " + Fn + ");");
    return V;
  }

  case TermKind::Let: {
    const auto *L = cast<LetTerm>(T);
    chargeNode(F, Off);
    std::string Init = emitTerm(L->getInit(), F, Off + 1);
    if (!Error.empty())
      return std::string();
    F.Scope.emplace_back(L->getName(), Init);
    std::string Body = emitTerm(L->getBody(), F, Off + 1);
    F.Scope.pop_back();
    if (!Error.empty())
      return std::string();
    return Body;
  }

  case TermKind::Tuple: {
    const auto *Tu = cast<TupleTerm>(T);
    chargeNode(F, Off);
    std::vector<std::string> Elems;
    for (const Term *E : Tu->getElements())
      Elems.push_back(emitTerm(E, F, Off + 1));
    if (!Error.empty())
      return std::string();
    std::string V = freshVar();
    std::string List;
    for (const std::string &E : Elems)
      List += (List.empty() ? "" : ", ") + mv(F, E);
    line(F, "rt::Value " + V + " = rt::mkTuple(" + List + ");");
    return V;
  }

  case TermKind::Nth: {
    const auto *N = cast<NthTerm>(T);
    chargeNode(F, Off);
    std::string Tu = emitTerm(N->getTuple(), F, Off + 1);
    if (!Error.empty())
      return std::string();
    flushCharges(F);
    std::string V = freshVar();
    line(F, "rt::Value " + V + " = rt::proj(" + Tu + ", " +
                std::to_string(N->getIndex()) + ");");
    return V;
  }

  case TermKind::If: {
    const auto *I = cast<IfTerm>(T);
    chargeNode(F, Off);
    std::string Cond = emitTerm(I->getCond(), F, Off + 1);
    if (!Error.empty())
      return std::string();
    flushCharges(F);
    std::string V = freshVar();
    line(F, "rt::Value " + V + ";");
    line(F, "if (rt::truth(" + Cond + ")) {");
    std::string Saved = F.Indent;
    F.Indent += "  ";
    std::string Then = emitTerm(I->getThen(), F, Off + 1);
    if (Error.empty()) {
      flushCharges(F);
      line(F, V + " = " + mv(F, Then) + ";");
    }
    F.Indent = Saved;
    line(F, "} else {");
    F.Indent += "  ";
    std::string Else = emitTerm(I->getElse(), F, Off + 1);
    if (Error.empty()) {
      flushCharges(F);
      line(F, V + " = " + mv(F, Else) + ";");
    }
    F.Indent = Saved;
    line(F, "}");
    if (!Error.empty())
      return std::string();
    return V;
  }

  case TermKind::Fix: {
    const auto *Fx = cast<FixTerm>(T);
    chargeNode(F, Off);
    std::string Op = emitTerm(Fx->getOperand(), F, Off + 1);
    if (!Error.empty())
      return std::string();
    std::string V = freshVar();
    line(F, "rt::Value " + V + " = rt::mkFix(" + mv(F, Op) + ");");
    return V;
  }
  }
  Error = "aot: unknown term kind";
  return std::string();
}

aot::EmittedProgram Emitter::emit(const Term *T) {
  FnCtx Main;
  std::string R = emitTerm(T, Main, 0);
  aot::EmittedProgram P;
  if (!Error.empty()) {
    P.Error = Error;
    return P;
  }
  flushCharges(Main);
  if (Main.WroteDepth)
    line(Main, "S.Depth = D0;");
  std::string Out = "// Generated by fgc --backend=aot (emitter version " +
                    std::to_string(aot::EmitterVersion) + "). Do not edit.\n";
  Out += RuntimePrelude;
  Out += "\nnamespace rt {\n\nstatic Value fg_program(State &S);\n";
  for (unsigned I = 0; I != NumFns; ++I)
    Out += "static Value fn_" + std::to_string(I) +
           "(State &S, const Value *C, const Value *A);\n";
  Out += "\n} // namespace rt\n\nnamespace rt {\n\n";
  for (const std::string &Def : Funcs)
    Out += Def + "\n";
  Out += "static Value fg_program(State &S) {\n";
  Out += "  const uint64_t D0 = S.Depth;\n";
  Out += Main.Body;
  Out += "  return " + mv(Main, R) + ";\n}\n\n} // namespace rt\n";
  Out += RuntimeMain;
  P.Cpp = std::move(Out);
  return P;
}

} // namespace

aot::EmittedProgram fg::aot::emitCpp(const sf::Term *T,
                                     const sf::Prelude &Prelude) {
  Emitter E(Prelude);
  return E.emit(T);
}
