//===- systemf/Value.h - Runtime values for System F ------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime representation for the call-by-value System F evaluator.
/// Dictionaries produced by the F_G translation are ordinary tuple
/// values here — exactly the representation drawn in the paper's
/// Figure 7.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SYSTEMF_VALUE_H
#define FG_SYSTEMF_VALUE_H

#include "support/Casting.h"
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fg {
namespace sf {

class AbsTerm;
class TyAbsTerm;
class Value;

using ValuePtr = std::shared_ptr<const Value>;

/// Live-object gauges for the interpreter heap (values and environment
/// nodes).  Maintained with relaxed atomics in the constructors and
/// destructors below, and surfaced by fgcd as `server.arena.*` so
/// long-lived daemon sessions can prove that reset returns them to
/// baseline.  Interned immediates (pooled ints, booleans, nil) are
/// never counted: they are immortal, so the gauges hold only values a
/// program can free.
std::atomic<int64_t> &liveValueGauge();
std::atomic<int64_t> &liveEnvNodeGauge();

/// A persistent (immutable, shared-tail) runtime environment.
struct EnvNode {
  std::string Name;
  ValuePtr Val;
  std::shared_ptr<const EnvNode> Next;

  EnvNode() { liveEnvNodeGauge().fetch_add(1, std::memory_order_relaxed); }
  EnvNode(const EnvNode &) = delete;
  EnvNode &operator=(const EnvNode &) = delete;

  /// Environments are shared-tail spines like lists: a deep chain dying
  /// all at once must not recurse through ~shared_ptr.  Steal the tail
  /// hand-over-hand — each uniquely-owned node has its Next nulled
  /// before it dies, so destruction is iterative.  (use_count() == 1
  /// means this thread holds the only reference, so the const_cast
  /// mutation is unobservable.)
  ~EnvNode() {
    liveEnvNodeGauge().fetch_sub(1, std::memory_order_relaxed);
    std::shared_ptr<const EnvNode> N = std::move(Next);
    while (N && N.use_count() == 1) {
      std::shared_ptr<const EnvNode> Nx =
          std::move(const_cast<EnvNode &>(*N).Next);
      N = std::move(Nx);
    }
  }
};
using EnvPtr = std::shared_ptr<const EnvNode>;

/// Extends \p Env with a binding of \p Name to \p Val.
inline EnvPtr envBind(EnvPtr Env, std::string Name, ValuePtr Val) {
  auto Node = std::make_shared<EnvNode>();
  Node->Name = std::move(Name);
  Node->Val = std::move(Val);
  Node->Next = std::move(Env);
  return Node;
}

/// Returns the value bound to \p Name, or null.
inline ValuePtr envLookup(const EnvPtr &Env, const std::string &Name) {
  for (const EnvNode *N = Env.get(); N; N = N->Next.get())
    if (N->Name == Name)
      return N->Val;
  return nullptr;
}

/// Discriminator for the Value hierarchy.
enum class ValueKind : uint8_t {
  Int,
  Bool,
  Tuple,
  List,
  Closure,
  TyClosure,
  Fix,
  Builtin,
  /// Closures of the bytecode VM (vm/VM.h); the classes live in the vm
  /// library, only the kinds are shared so printing and the foreign-
  /// closure errors of the other engines stay exhaustive.
  VmClosure,
  VmTyClosure,
};

/// Outcome of evaluation: a value or an error message.
struct EvalResult {
  ValuePtr Val;
  std::string Error;

  bool ok() const { return Val != nullptr; }

  static EvalResult success(ValuePtr V) { return {std::move(V), {}}; }
  static EvalResult failure(std::string Message) {
    return {nullptr, std::move(Message)};
  }
};

/// Base class of runtime values.  Values are immutable and shared.
class Value {
public:
  /// Constructor tag of the interned immediates (boxInt, boxBool,
  /// nilList): immortal objects that the gauges never count.
  struct Interned {};

  ValueKind getKind() const { return Kind; }

  Value(const Value &) = delete;
  Value &operator=(const Value &) = delete;
  virtual ~Value() { liveValueGauge().fetch_sub(1, std::memory_order_relaxed); }

protected:
  explicit Value(ValueKind K) : Kind(K) {
    liveValueGauge().fetch_add(1, std::memory_order_relaxed);
  }
  Value(ValueKind K, Interned) : Kind(K) {}

private:
  ValueKind Kind;
};

class IntValue : public Value {
public:
  explicit IntValue(int64_t V) : Value(ValueKind::Int), Val(V) {}
  IntValue(int64_t V, Interned) : Value(ValueKind::Int, Interned{}), Val(V) {}
  int64_t getValue() const { return Val; }

  static bool classof(const Value *V) { return V->getKind() == ValueKind::Int; }

private:
  int64_t Val;
};

class BoolValue : public Value {
public:
  explicit BoolValue(bool V) : Value(ValueKind::Bool), Val(V) {}
  BoolValue(bool V, Interned) : Value(ValueKind::Bool, Interned{}), Val(V) {}
  bool getValue() const { return Val; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Bool;
  }

private:
  bool Val;
};

class TupleValue : public Value {
public:
  explicit TupleValue(std::vector<ValuePtr> Elements)
      : Value(ValueKind::Tuple), Elements(std::move(Elements)) {}

  /// Deep tuple nests (dictionaries of dictionaries) must not recurse
  /// through element destruction: elements are handed to a thread-local
  /// drain queue that the outermost dying tuple unwinds in a loop.
  /// See Value.cpp.
  ~TupleValue();

  const std::vector<ValuePtr> &getElements() const { return Elements; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Tuple;
  }

private:
  std::vector<ValuePtr> Elements;
};

/// A cons cell or nil.  Lists share tails so that `cdr` is O(1), as a
/// real runtime would provide.
class ListValue : public Value {
public:
  /// Creates nil; nilList() holds the only one.
  explicit ListValue(Interned) : Value(ValueKind::List, Interned{}) {}
  /// Creates a cons cell.
  ListValue(ValuePtr Head, std::shared_ptr<const ListValue> Tail)
      : Value(ValueKind::List), Head(std::move(Head)), Tail(std::move(Tail)) {}

  /// A million-element spine dying all at once must not recurse through
  /// ~shared_ptr (the AOT runtime frees spines on an explicit work-list;
  /// this is the interpreter-side equivalent).  Steal the tail
  /// hand-over-hand: each uniquely-owned cell has its Tail nulled before
  /// it dies, so the whole chain unwinds in a loop.  A cell whose
  /// use_count exceeds 1 is shared — releasing it just decrements.
  ~ListValue() {
    std::shared_ptr<const ListValue> T = std::move(Tail);
    while (T && T.use_count() == 1) {
      std::shared_ptr<const ListValue> Next =
          std::move(const_cast<ListValue &>(*T).Tail);
      T = std::move(Next);
    }
  }

  bool isNil() const { return Head == nullptr; }
  const ValuePtr &getHead() const { return Head; }
  const std::shared_ptr<const ListValue> &getTail() const { return Tail; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::List;
  }

private:
  ValuePtr Head;                          ///< Null for nil.
  std::shared_ptr<const ListValue> Tail;  ///< Null for nil.
};

/// A lambda closed over its defining environment.
class ClosureValue : public Value {
public:
  ClosureValue(const AbsTerm *Fn, EnvPtr Env)
      : Value(ValueKind::Closure), Fn(Fn), Env(std::move(Env)) {}
  const AbsTerm *getFn() const { return Fn; }
  const EnvPtr &getEnv() const { return Env; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Closure;
  }

private:
  const AbsTerm *Fn;
  EnvPtr Env;
};

/// A type abstraction closed over its environment; its body is
/// re-evaluated at each type application (types are erased at runtime).
class TyClosureValue : public Value {
public:
  TyClosureValue(const TyAbsTerm *Fn, EnvPtr Env)
      : Value(ValueKind::TyClosure), Fn(Fn), Env(std::move(Env)) {}
  const TyAbsTerm *getFn() const { return Fn; }
  const EnvPtr &getEnv() const { return Env; }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::TyClosure;
  }

private:
  const TyAbsTerm *Fn;
  EnvPtr Env;
};

/// The value of `fix f`: applying it unrolls one step of recursion.
class FixValue : public Value {
public:
  explicit FixValue(ValuePtr Fn) : Value(ValueKind::Fix), Fn(std::move(Fn)) {}
  const ValuePtr &getFn() const { return Fn; }

  static bool classof(const Value *V) { return V->getKind() == ValueKind::Fix; }

private:
  ValuePtr Fn;
};

/// A primitive operation implemented in C++ (iadd, cons, ...).
class BuiltinValue : public Value {
public:
  using ImplFn = std::function<EvalResult(const std::vector<ValuePtr> &)>;

  BuiltinValue(std::string Name, unsigned Arity, ImplFn Impl)
      : Value(ValueKind::Builtin), Name(std::move(Name)), Arity(Arity),
        Impl(std::move(Impl)) {}

  const std::string &getName() const { return Name; }
  unsigned getArity() const { return Arity; }
  EvalResult invoke(const std::vector<ValuePtr> &Args) const {
    return Impl(Args);
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::Builtin;
  }

private:
  std::string Name;
  unsigned Arity;
  ImplFn Impl;
};

/// Tagged-immediate discipline for the shared_ptr world: ints in
/// [-4096, 4096], the two booleans, and nil are interned.  Each is an
/// immortal object, created the first time it is boxed, and handed out
/// as a non-owning ValuePtr (an empty control block), so boxing or
/// copying one is a pointer copy, not a refcount bump, and the
/// `server.arena.*` gauges never count it.  Other ints allocate.
ValuePtr boxInt(int64_t V);
ValuePtr boxBool(bool B);
/// The canonical empty list.
const std::shared_ptr<const ListValue> &nilList();

/// Renders a value for output: `3`, `true`, `[1, 2]`, `(1, true)`,
/// `<closure>`.
std::string valueToString(const Value *V);
inline std::string valueToString(const ValuePtr &V) {
  return valueToString(V.get());
}

/// Structural equality on first-order values (ints, bools, lists,
/// tuples); functions compare by identity.  Used by tests.
bool valueEquals(const Value *A, const Value *B);
inline bool valueEquals(const ValuePtr &A, const ValuePtr &B) {
  return valueEquals(A.get(), B.get());
}

} // namespace sf
} // namespace fg

#endif // FG_SYSTEMF_VALUE_H
