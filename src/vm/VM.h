//===- vm/VM.h - Register bytecode interpreter ------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second System F execution backend: a dispatch-loop interpreter
/// over the register bytecode of vm/Bytecode.h.  Where the tree walker
/// (systemf/Eval.h) recurses over terms, the VM runs a single loop over
/// explicit call frames:
///
///  * every frame owns a fixed register file (parameters, flattened
///    `let` slots, and expression temporaries), a window of one
///    contiguous vector — there is no operand stack;
///  * calls are zero-copy: arguments are evaluated into a window the
///    callee's frame overlays, so entering a call moves no values;
///  * closures are flat — captured values are copied into the closure
///    at creation, so variable access never chases an environment;
///  * calls push a frame, `Return` pops it; program recursion grows
///    the explicit frame stack, not the C++ stack (the only native
///    recursion is the bounded `fix` unroll);
///  * dictionary projections run through per-site inline caches: a
///    site that keeps seeing the same dictionary serves the witness
///    with one identity check instead of re-walking nested refinement
///    dictionaries (vm.ic.* stats surface the state machine).
///
/// Observationally equivalent to the other backends — the same values,
/// the same runtime errors, and the same EvalOptions step/depth abort
/// diagnostics; tests/Differential.h pins every backend together.
///
//===----------------------------------------------------------------------===//

#ifndef FG_VM_VM_H
#define FG_VM_VM_H

#include "systemf/Builtins.h"
#include "systemf/Eval.h"
#include "vm/Bytecode.h"
#include <memory>
#include <unordered_map>
#include <vector>

namespace fg {
namespace vm {

/// A flat closure: a prototype plus the captured values, holding its
/// chunk alive so closures may outlive the VM run that made them.
class VmClosureValue : public sf::Value {
public:
  VmClosureValue(std::shared_ptr<const Chunk> C, uint32_t ProtoIdx,
                 std::vector<sf::ValuePtr> Upvals)
      : Value(sf::ValueKind::VmClosure), Chk(std::move(C)),
        ProtoIdx(ProtoIdx), Upvals(std::move(Upvals)) {}

  const std::shared_ptr<const Chunk> &chunk() const { return Chk; }
  const Proto &proto() const { return Chk->Protos[ProtoIdx]; }
  const std::vector<sf::ValuePtr> &upvals() const { return Upvals; }

  static bool classof(const sf::Value *V) {
    return V->getKind() == sf::ValueKind::VmClosure;
  }

private:
  std::shared_ptr<const Chunk> Chk;
  uint32_t ProtoIdx;
  std::vector<sf::ValuePtr> Upvals;
};

/// A flat type closure; its body re-runs at every instantiation, as in
/// the tree-walking evaluator (types are erased).
class VmTyClosureValue : public sf::Value {
public:
  VmTyClosureValue(std::shared_ptr<const Chunk> C, uint32_t ProtoIdx,
                   std::vector<sf::ValuePtr> Upvals)
      : Value(sf::ValueKind::VmTyClosure), Chk(std::move(C)),
        ProtoIdx(ProtoIdx), Upvals(std::move(Upvals)) {}

  const std::shared_ptr<const Chunk> &chunk() const { return Chk; }
  const Proto &proto() const { return Chk->Protos[ProtoIdx]; }
  const std::vector<sf::ValuePtr> &upvals() const { return Upvals; }

  static bool classof(const sf::Value *V) {
    return V->getKind() == sf::ValueKind::VmTyClosure;
  }

private:
  std::shared_ptr<const Chunk> Chk;
  uint32_t ProtoIdx;
  std::vector<sf::ValuePtr> Upvals;
};

/// Executes compiled chunks.  One VM may run many chunks in sequence;
/// state is reset by run().  Enforces the same sf::EvalOptions limits
/// as the other engines: MaxSteps bounds executed instructions (a
/// fused superinstruction charges exactly the steps of the pair it
/// replaced), MaxDepth bounds live call frames (incl. fix unrolling).
class VM {
public:
  explicit VM(sf::EvalOptions Opts = sf::EvalOptions()) : Opts(Opts) {}

  /// Runs \p C from its entry prototype.
  sf::EvalResult run(std::shared_ptr<const Chunk> C);

  uint64_t getInstructionsExecuted() const { return Steps; }
  uint64_t getFramesPushed() const { return FramesPushed; }

  /// Inline-cache behavior of the last run (also flushed to the
  /// global vm.ic.* counters).
  uint64_t getIcHits() const { return IcHits; }
  uint64_t getIcMisses() const { return IcMisses; }
  uint64_t getIcMegamorphic() const { return IcMega; }

private:
  /// One activation.  All frames share the one register vector Regs;
  /// each frame owns the window [Base, Base + P->NumRegs), and the
  /// invariant while a frame executes is Regs.size() == Base +
  /// P->NumRegs exactly — Return restores the caller's window.  The
  /// chunk pointer is raw: every frame's chunk is the run's root chunk
  /// (closures only reference protos of the chunk that made them),
  /// which RootChunk pins for the whole run.
  struct CallFrame {
    const Chunk *C = nullptr;
    const Proto *P = nullptr;
    const std::vector<sf::ValuePtr> *Upvals = nullptr; ///< Null at entry.
    sf::ValuePtr Keep; ///< The running (ty)closure, kept alive.
    uint32_t IP = 0;
    uint32_t Base = 0;    ///< First register of this frame's window.
    uint32_t RetSlot = 0; ///< Absolute register Return writes into.
  };

  /// One dictionary-projection inline cache (per ProjSite, per run).
  /// Monomorphic while the site keeps seeing the same dictionary;
  /// after MegamorphicFlips distinct dictionaries it gives up and
  /// projects every time.  Keep pins the cached dictionary so Key can
  /// never dangle into a recycled allocation.
  struct ICSlot {
    const sf::Value *Key = nullptr; ///< Cached dictionary identity.
    uint32_t Arity = 0;             ///< Cached dictionary tuple arity.
    sf::ValuePtr Keep;              ///< Pins Key's allocation.
    sf::ValuePtr Witness;           ///< The projected member.
    uint32_t Flips = 0;             ///< Distinct-dictionary transitions.
    bool Mega = false;              ///< Gave up caching.
  };
  static constexpr uint32_t MegamorphicFlips = 8;

  /// Runs until the frame stack shrinks back to \p StopDepth; the
  /// returning frame's result is the call's value.
  sf::EvalResult execute(size_t StopDepth);

  /// Dispatches a call: the callee sits in register \p FnAbs with \p N
  /// arguments in FnAbs+1..FnAbs+N; the result (builtin) or eventual
  /// Return (closure) lands in register \p RetAbs.  Pushes a frame
  /// (closure), invokes inline (builtin), or unrolls (fix).  On false,
  /// RuntimeError holds the diagnostic.
  bool enterCall(size_t FnAbs, uint32_t N, size_t RetAbs);

  /// Projects through \p Site's path serving from (and updating) its
  /// inline cache; writes the witness into register \p DstAbs.  On
  /// false, RuntimeError holds the tree evaluator's projection error.
  bool projectSite(uint32_t SiteIdx, const sf::ValuePtr &Dict,
                   size_t DstAbs);

  /// Applies \p Fn to \p Args to completion with a nested dispatch;
  /// only the `fix` unroll needs this.
  sf::EvalResult callValue(const sf::ValuePtr &Fn,
                           std::vector<sf::ValuePtr> Args);

  size_t depth() const { return Frames.size() + FixDepth; }

  /// Records the current depth into the run's high-water mark; called
  /// after every growth of Frames or FixDepth so fix unrolls can
  /// measure their transient depth.
  void noteDepth() {
    if (depth() > MaxDepthSeen)
      MaxDepthSeen = depth();
  }

  /// Memoized `fix` unroll: the language is pure, so `f (fix f)` is
  /// computed once per fix value and run.  Keepalive pins the key's
  /// address for the lifetime of the entry.  StepCost and DepthNeed
  /// record what the unroll consumed, so a memo hit can charge the
  /// same budget the re-computation would — memoization must never
  /// turn an over-budget run into a successful one.
  struct FixMemoEntry {
    sf::ValuePtr Keepalive;
    sf::ValuePtr Unrolled;
    uint64_t StepCost = 0;  ///< Steps the unroll consumed.
    size_t DepthNeed = 0;   ///< Transient depth above the call site.
  };

  /// Replays a memoized unroll: charges StepCost, requires DepthNeed
  /// headroom, and installs the unrolled function at register
  /// \p FnAbs.  On false, RuntimeError holds the same diagnostic the
  /// uncached unroll would have produced.
  bool replayFixMemo(const FixMemoEntry &E, size_t FnAbs);

  sf::EvalOptions Opts;
  std::shared_ptr<const Chunk> RootChunk; ///< Pins every frame's chunk.
  std::vector<CallFrame> Frames;
  std::vector<sf::ValuePtr> Regs; ///< All frames' register windows.
  std::vector<sf::ValuePtr> BuiltinArgs; ///< Scratch for builtin calls.
  std::vector<ICSlot> ICSlots; ///< One per chunk ProjSite, per run.
  std::unordered_map<const sf::Value *, FixMemoEntry> FixMemo;
  const sf::Value *FixMemoKey = nullptr; ///< 1-entry inline cache key.
  /// Inline-cached entry for FixMemoKey; node pointers into FixMemo
  /// are stable.
  const FixMemoEntry *FixMemoCached = nullptr;
  std::string RuntimeError;
  uint64_t Steps = 0;
  uint64_t FramesPushed = 0;
  uint64_t IcHits = 0;
  uint64_t IcMisses = 0;
  uint64_t IcMega = 0;
  unsigned FixDepth = 0;      ///< Live nested fix unrolls.
  size_t MaxDepthSeen = 0;    ///< High-water mark of depth() this run.
};

/// Convenience: compile \p T (vm/Emit.h) and run it.  Bytecode
/// compilation errors surface as failed results prefixed with
/// "compilation to bytecode failed".
sf::EvalResult runTerm(const sf::Term *T, const sf::Prelude &P,
                       const sf::EvalOptions &Opts = sf::EvalOptions());

} // namespace vm
} // namespace fg

#endif // FG_VM_VM_H
