//===- systemf/Value.cpp - Runtime values ---------------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "systemf/Value.h"
#include <mutex>
#include <utility>

using namespace fg;
using namespace fg::sf;

//===----------------------------------------------------------------------===//
// Live-object gauges
//===----------------------------------------------------------------------===//

std::atomic<int64_t> &fg::sf::liveValueGauge() {
  static std::atomic<int64_t> G{0};
  return G;
}

std::atomic<int64_t> &fg::sf::liveEnvNodeGauge() {
  static std::atomic<int64_t> G{0};
  return G;
}

//===----------------------------------------------------------------------===//
// Interned immediates
//===----------------------------------------------------------------------===//

namespace {

// Ints in [IntPoolMin, IntPoolMax] are shared singletons.  The range
// covers loop counters, list contents, and every benchmark result the
// repo pins; anything outside allocates as before.
constexpr int64_t IntPoolMin = -4096;
constexpr int64_t IntPoolMax = 4096;

// One slot per pooled int, null until that int is first boxed.  Zero-
// initialized storage costs a fresh process nothing: no allocation, no
// load-time relocation, and a page is touched only when one of its
// ints is used.  Slots are filled under the mutex, so no two threads
// ever build the same int and there is never a losing copy to destroy.
std::atomic<const IntValue *> IntSlots[IntPoolMax - IntPoolMin + 1];
std::mutex IntSlotsFill;

/// A non-owning ValuePtr to an immortal object: the aliasing
/// constructor with an empty owner, so copies touch no refcount.
template <typename T> std::shared_ptr<const T> immortal(const T *P) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), P);
}

} // namespace

ValuePtr fg::sf::boxInt(int64_t V) {
  if (V < IntPoolMin || V > IntPoolMax)
    return std::make_shared<IntValue>(V);
  std::atomic<const IntValue *> &Slot = IntSlots[V - IntPoolMin];
  const IntValue *P = Slot.load();
  if (!P) {
    std::lock_guard<std::mutex> Lock(IntSlotsFill);
    P = Slot.load();
    if (!P) {
      P = new IntValue(V, Value::Interned{});
      Slot.store(P);
    }
  }
  return immortal<Value>(P);
}

ValuePtr fg::sf::boxBool(bool B) {
  static const ValuePtr True =
      immortal<Value>(new BoolValue(true, Value::Interned{}));
  static const ValuePtr False =
      immortal<Value>(new BoolValue(false, Value::Interned{}));
  return B ? True : False;
}

const std::shared_ptr<const ListValue> &fg::sf::nilList() {
  static const std::shared_ptr<const ListValue> Nil =
      immortal(new ListValue(Value::Interned{}));
  return Nil;
}

//===----------------------------------------------------------------------===//
// Iterative destruction for tuple trees
//===----------------------------------------------------------------------===//

namespace {

// ~TupleValue moves its elements here instead of destroying them
// inline; the outermost dying tuple on this thread drains the queue in
// a loop, so a tuple-of-tuples tree of any depth unwinds iteratively.
// Lists and environments handle their own spines hand-over-hand (see
// Value.h), and a list head that is itself a deep tuple lands in this
// queue too, so the two disciplines compose: mixed list/tuple nests
// cost O(1) native stack per level.
thread_local std::vector<std::vector<ValuePtr>> TupleDrain;
thread_local bool TupleDraining = false;

} // namespace

TupleValue::~TupleValue() {
  if (Elements.empty())
    return;
  TupleDrain.push_back(std::move(Elements));
  if (TupleDraining)
    return; // the draining frame below us owns the loop
  TupleDraining = true;
  while (!TupleDrain.empty()) {
    std::vector<ValuePtr> Es = std::move(TupleDrain.back());
    TupleDrain.pop_back();
    Es.clear(); // may re-enter ~TupleValue, which only enqueues
  }
  TupleDraining = false;
}

//===----------------------------------------------------------------------===//
// Rendering and structural equality
//===----------------------------------------------------------------------===//
//
// Both walks are driven by explicit work-lists: deeply nested values
// (tuple-of-tuple spines, dictionaries of dictionaries) must not
// recurse on the native stack — the fuzzer's deep-nesting scenario and
// the AOT runtime's iterative renderer pin the same discipline.

std::string fg::sf::valueToString(const Value *V) {
  struct Tok {
    const Value *V;  // Value to render, or
    const char *Lit; // literal text to append.
  };
  std::string S;
  std::vector<Tok> Stk;
  Stk.push_back({V, nullptr});
  while (!Stk.empty()) {
    Tok T = Stk.back();
    Stk.pop_back();
    if (T.Lit) {
      S += T.Lit;
      continue;
    }
    const Value *C = T.V;
    if (!C) {
      S += "<null-value>";
      continue;
    }
    switch (C->getKind()) {
    case ValueKind::Int:
      S += std::to_string(cast<IntValue>(C)->getValue());
      break;
    case ValueKind::Bool:
      S += cast<BoolValue>(C)->getValue() ? "true" : "false";
      break;
    case ValueKind::Tuple: {
      const auto &Elems = cast<TupleValue>(C)->getElements();
      S += '(';
      Stk.push_back({nullptr, ")"});
      for (size_t I = Elems.size(); I != 0; --I) {
        Stk.push_back({Elems[I - 1].get(), nullptr});
        if (I != 1)
          Stk.push_back({nullptr, ", "});
      }
      break;
    }
    case ValueKind::List: {
      std::vector<const Value *> Heads;
      for (const ListValue *L = cast<ListValue>(C); L && !L->isNil();
           L = L->getTail().get())
        Heads.push_back(L->getHead().get());
      S += '[';
      Stk.push_back({nullptr, "]"});
      for (size_t I = Heads.size(); I != 0; --I) {
        Stk.push_back({Heads[I - 1], nullptr});
        if (I != 1)
          Stk.push_back({nullptr, ", "});
      }
      break;
    }
    case ValueKind::Closure:
    case ValueKind::VmClosure:
      S += "<closure>";
      break;
    case ValueKind::TyClosure:
    case ValueKind::VmTyClosure:
      S += "<tyclosure>";
      break;
    case ValueKind::Fix:
      S += "<fix>";
      break;
    case ValueKind::Builtin:
      S += "<builtin " + cast<BuiltinValue>(C)->getName() + ">";
      break;
    }
  }
  return S;
}

bool fg::sf::valueEquals(const Value *A, const Value *B) {
  std::vector<std::pair<const Value *, const Value *>> Work;
  Work.emplace_back(A, B);
  while (!Work.empty()) {
    const Value *X = Work.back().first;
    const Value *Y = Work.back().second;
    Work.pop_back();
    if (X == Y)
      continue;
    if (!X || !Y || X->getKind() != Y->getKind())
      return false;
    switch (X->getKind()) {
    case ValueKind::Int:
      if (cast<IntValue>(X)->getValue() != cast<IntValue>(Y)->getValue())
        return false;
      break;
    case ValueKind::Bool:
      if (cast<BoolValue>(X)->getValue() != cast<BoolValue>(Y)->getValue())
        return false;
      break;
    case ValueKind::Tuple: {
      const auto &EX = cast<TupleValue>(X)->getElements();
      const auto &EY = cast<TupleValue>(Y)->getElements();
      if (EX.size() != EY.size())
        return false;
      for (size_t I = 0; I != EX.size(); ++I)
        Work.emplace_back(EX[I].get(), EY[I].get());
      break;
    }
    case ValueKind::List: {
      // Walk the spines here (sharing makes them long, not deep) and
      // queue the heads for the structural work-list.
      const auto *LX = cast<ListValue>(X);
      const auto *LY = cast<ListValue>(Y);
      while (LX && LY && !LX->isNil() && !LY->isNil()) {
        Work.emplace_back(LX->getHead().get(), LY->getHead().get());
        LX = LX->getTail().get();
        LY = LY->getTail().get();
      }
      if (!(LX && LY && LX->isNil() == LY->isNil()))
        return false;
      break;
    }
    case ValueKind::Closure:
    case ValueKind::TyClosure:
    case ValueKind::Fix:
    case ValueKind::Builtin:
    case ValueKind::VmClosure:
    case ValueKind::VmTyClosure:
      return false; // Distinct function values are never equal.
    }
  }
  return true;
}
