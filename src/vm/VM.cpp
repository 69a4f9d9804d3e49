//===- vm/VM.cpp - Register bytecode interpreter --------------------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"
#include "support/Stats.h"
#include "vm/Emit.h"
#include <cassert>

using namespace fg;
using namespace fg::vm;
using namespace fg::sf;

// Abort diagnostics are shared verbatim with systemf/Eval.cpp so a
// divergent program reports identically on every backend
// (tests/Differential.h enforces this).
static const char *StepLimitMsg = "evaluation exceeded the step limit";
static const char *DepthLimitMsg =
    "evaluation exceeded the recursion depth limit";

bool VM::enterCall(size_t FnAbs, uint32_t N, size_t RetAbs) {
  while (true) {
    const Value *Fn = Regs[FnAbs].get();
    switch (Fn->getKind()) {
    case ValueKind::VmClosure: {
      const auto *C = cast<VmClosureValue>(Fn);
      const Proto &P = C->proto();
      if (P.Arity != N) {
        RuntimeError = "function called with wrong arity";
        return false;
      }
      if (depth() >= Opts.MaxDepth) {
        RuntimeError = DepthLimitMsg;
        return false;
      }
      // Zero-copy entry: the callee's frame overlays the caller's
      // argument window — its parameter 0 *is* the caller's register
      // FnAbs+1.  The resize establishes the frame invariant
      // (Regs.size() == Base + NumRegs); any caller registers it drops
      // sat above the window and are dead by the emitter's stack
      // discipline.
      CallFrame NF;
      NF.C = C->chunk().get();
      NF.P = &P;
      NF.Upvals = &C->upvals();
      NF.Keep = std::move(Regs[FnAbs]); // Keeps *C alive.
      NF.Base = static_cast<uint32_t>(FnAbs + 1);
      NF.RetSlot = static_cast<uint32_t>(RetAbs);
      Regs.resize(NF.Base + P.NumRegs);
      Frames.push_back(std::move(NF));
      ++FramesPushed;
      noteDepth();
      return true;
    }

    case ValueKind::Builtin: {
      const auto *B = cast<BuiltinValue>(Fn);
      if (B->getArity() != N) {
        RuntimeError =
            "builtin `" + B->getName() + "` called with wrong arity";
        return false;
      }
      // Builtins are leaf primitives (they never re-enter the VM), so
      // one scratch vector serves every invocation without a per-call
      // allocation.
      BuiltinArgs.clear();
      for (uint32_t I = 0; I < N; ++I)
        BuiltinArgs.push_back(std::move(Regs[FnAbs + 1 + I]));
      EvalResult R = B->invoke(BuiltinArgs);
      if (!R.ok()) {
        RuntimeError = R.Error;
        return false;
      }
      Regs[RetAbs] = std::move(R.Val);
      return true;
    }

    case ValueKind::Fix: {
      // (fix f)(v...) unrolls to (f (fix f))(v...): run the unroll as
      // a bounded nested dispatch, then retry the call on its result
      // in the *current* loop so program recursion through `fix` grows
      // the explicit frame stack, never the C++ stack.
      //
      // The language is pure, so the unroll of a given fix value is
      // deterministic and effect-free: memoize it per run.  Recursive
      // calls — one unroll per loop iteration in the tree evaluator —
      // become a pointer-keyed lookup.  The step/depth checks stay on
      // every path so degenerate chains (`fix (fun(f). f)` unrolls to
      // itself forever) still abort with the shared diagnostics.
      if (++Steps > Opts.MaxSteps) {
        RuntimeError = StepLimitMsg;
        return false;
      }
      if (depth() >= Opts.MaxDepth) {
        RuntimeError = DepthLimitMsg;
        return false;
      }
      if (Fn == FixMemoKey) { // Inline cache: the one hot fix.
        if (!replayFixMemo(*FixMemoCached, FnAbs))
          return false;
        continue;
      }
      auto It = FixMemo.find(Fn);
      if (It != FixMemo.end()) {
        FixMemoKey = Fn;
        FixMemoCached = &It->second;
        if (!replayFixMemo(It->second, FnAbs))
          return false;
        continue;
      }
      const auto *FV = cast<FixValue>(Fn);
      // Meter the unroll so memo hits can replay its budget use:
      // steps by delta, transient depth by resetting the high-water
      // mark to the call site for the duration (restored to cover the
      // enclosing measurement afterwards).
      uint64_t StepsBefore = Steps;
      size_t DepthBefore = depth();
      size_t SavedMax = MaxDepthSeen;
      MaxDepthSeen = DepthBefore;
      ++FixDepth;
      noteDepth();
      EvalResult Unrolled = callValue(FV->getFn(), {Regs[FnAbs]});
      --FixDepth;
      size_t DepthNeed = MaxDepthSeen - DepthBefore;
      if (SavedMax > MaxDepthSeen)
        MaxDepthSeen = SavedMax;
      if (!Unrolled.ok()) {
        RuntimeError = Unrolled.Error;
        return false;
      }
      // The keepalive pins the fix value so its address cannot be
      // reused by a different allocation while the memo entry lives.
      auto Inserted = FixMemo.emplace(
          Fn, FixMemoEntry{Regs[FnAbs], Unrolled.Val, Steps - StepsBefore,
                           DepthNeed});
      FixMemoKey = Fn;
      FixMemoCached = &Inserted.first->second;
      Regs[FnAbs] = std::move(Unrolled.Val);
      continue; // Retry dispatch on the unrolled function.
    }

    default:
      RuntimeError = "attempt to call a non-function value `" +
                     valueToString(Fn) + "`";
      return false;
    }
  }
}

bool VM::replayFixMemo(const FixMemoEntry &E, size_t FnAbs) {
  // A hit must be indistinguishable from re-running the unroll: charge
  // its recorded steps and require its transient depth to fit, so a
  // run under a smaller budget aborts exactly as the uncached
  // computation would.
  Steps += E.StepCost;
  if (Steps > Opts.MaxSteps) {
    RuntimeError = StepLimitMsg;
    return false;
  }
  if (depth() + E.DepthNeed > Opts.MaxDepth) {
    RuntimeError = DepthLimitMsg;
    return false;
  }
  Regs[FnAbs] = E.Unrolled;
  return true;
}

bool VM::projectSite(uint32_t SiteIdx, const ValuePtr &Dict,
                     size_t DstAbs) {
  const ProjSite &Site = RootChunk->ProjSites[SiteIdx];
  size_t K = Site.Path.size();
  ICSlot &Slot = ICSlots[SiteIdx];

  // Monomorphic hit: same dictionary as last time (identity + arity),
  // serve the cached witness.  The dictionary is a runtime tuple and
  // the language is pure, so identity implies the whole walk — value,
  // step charge, and absence of errors included.  The caller's
  // dispatch charged step one; charge the rest of the chain.
  const Value *D = Dict.get();
  if (D == Slot.Key) {
    const auto *Tu = cast<TupleValue>(D);
    if (Tu->getElements().size() == Slot.Arity) {
      ++IcHits;
      Steps += K - 1;
      if (Steps > Opts.MaxSteps) {
        RuntimeError = StepLimitMsg;
        return false;
      }
      Regs[DstAbs] = Slot.Witness;
      return true;
    }
  }

  // Miss: walk the static path innermost-first, with the tree
  // evaluator's exact charge/check interleaving and error messages.
  ValuePtr Cur = Dict;
  for (size_t I = 0; I != K; ++I) {
    if (I > 0) {
      if (++Steps > Opts.MaxSteps) {
        RuntimeError = StepLimitMsg;
        return false;
      }
    }
    const auto *Tu = dyn_cast<TupleValue>(Cur.get());
    if (!Tu) {
      RuntimeError = "`nth` applied to a non-tuple value";
      return false;
    }
    if (Site.Path[I] >= Tu->getElements().size()) {
      RuntimeError = "tuple index out of range at runtime";
      return false;
    }
    Cur = Tu->getElements()[Site.Path[I]];
  }

  if (!Slot.Mega) {
    ++IcMisses;
    if (Slot.Key && Slot.Key != D && ++Slot.Flips >= MegamorphicFlips) {
      // The site keeps flipping between dictionaries: stop caching.
      Slot.Mega = true;
      Slot.Key = nullptr;
      Slot.Keep.reset();
      Slot.Witness.reset();
      ++IcMega;
    } else {
      Slot.Key = D;
      Slot.Arity =
          static_cast<uint32_t>(cast<TupleValue>(D)->getElements().size());
      Slot.Keep = Dict; // Pins Key's allocation for the run.
      Slot.Witness = Cur;
    }
  } else {
    ++IcMisses;
  }
  Regs[DstAbs] = std::move(Cur);
  return true;
}

EvalResult VM::callValue(const ValuePtr &Fn, std::vector<ValuePtr> Args) {
  size_t Entry = Frames.size();
  size_t Save = Regs.size();
  uint32_t N = static_cast<uint32_t>(Args.size());
  Regs.push_back(Fn);
  for (ValuePtr &A : Args)
    Regs.push_back(std::move(A));
  if (!enterCall(Save, N, Save))
    return EvalResult::failure(RuntimeError);
  if (Frames.size() > Entry) {
    EvalResult R = execute(Entry);
    Regs.resize(Save);
    return R;
  }
  // Builtin (or fix chain ending in one): the result is at the window.
  ValuePtr R = std::move(Regs[Save]);
  Regs.resize(Save);
  return EvalResult::success(std::move(R));
}

EvalResult VM::execute(size_t StopDepth) {
  // The interpreter-loop hot state — current frame, its code pointer,
  // the instruction pointer, and the frame's register window — lives
  // in locals, so an ordinary opcode costs one instruction fetch with
  // no dependent reloads of Frames.back()/Code.data()/Regs.data().
  // Anything that can move either backing store (calls and returns:
  // Frames push/pop and Regs resize, including the fix unroll's nested
  // dispatch inside enterCall) must spill IP into the frame first and
  // re-derive all four afterwards.
  CallFrame *F = &Frames.back();
  const Instr *Code = F->P->Code.data();
  uint32_t IP = F->IP;
  ValuePtr *R = Regs.data() + F->Base;
  // The step cap is loop-invariant; naming it once lets the check
  // compare against a register instead of reloading Opts.MaxSteps
  // across every opaque builtin invoke.
  const uint64_t StepCap = Opts.MaxSteps;
// A macro, not a lambda: a by-reference capture would pin the hot
// locals to stack slots for the whole dispatch loop.
#define FG_VM_REFRESH()                                                        \
  do {                                                                         \
    F = &Frames.back();                                                        \
    Code = F->P->Code.data();                                                  \
    IP = F->IP;                                                                \
    R = Regs.data() + F->Base;                                                 \
  } while (0)

// Dispatch.  With the GNU labels-as-values extension every opcode body
// ends in its *own* indirect branch (fetch + step charge + jump through
// the label table), so the branch predictor learns per-opcode successor
// patterns instead of sharing one mispredicting switch branch.  The
// portable fallback keeps the classic while/switch shape; both replay
// the identical fetch/charge sequence, so metered behavior is the same.
#if defined(__GNUC__) || defined(__clang__)
#define FG_VM_COMPUTED_GOTO 1
#endif

  Instr I;
#if FG_VM_COMPUTED_GOTO
  static const void *DispatchTable[] = {
      &&L_Const,       &&L_Builtin,    &&L_Move,      &&L_UpvalGet,
      &&L_MakeClosure, &&L_MakeTyClosure, &&L_Call,   &&L_TyApply,
      &&L_MakeTuple,   &&L_ProjIC,     &&L_Jump,      &&L_JumpIfFalse,
      &&L_MakeFix,     &&L_Return,     &&L_MoveCall,  &&L_ProjCall,
      &&L_CallJf,      &&L_ConstTuple, &&L_UpvalProj, &&L_BuiltinCall,
      &&L_BuiltinJf};
  static_assert(sizeof(DispatchTable) / sizeof(DispatchTable[0]) ==
                    static_cast<size_t>(Op::BuiltinJf) + 1,
                "dispatch table must cover every opcode, in enum order");
#define FG_VM_DISPATCH()                                                       \
  do {                                                                         \
    assert(IP < F->P->Code.size() && "ran off the end of a prototype");        \
    I = Code[IP++];                                                            \
    if (++Steps > StepCap)                                                    \
      return EvalResult::failure(StepLimitMsg);                                                \
    goto *DispatchTable[static_cast<uint8_t>(I.Opcode)];                       \
  } while (0)
#define FG_VM_CASE(name) L_##name
  FG_VM_DISPATCH();
#else
#define FG_VM_DISPATCH() break
#define FG_VM_CASE(name) case Op::name
  while (true) {
    assert(IP < F->P->Code.size() && "ran off the end of a prototype");
    I = Code[IP++];
    if (++Steps > StepCap)
      return EvalResult::failure(StepLimitMsg);

    switch (I.Opcode) {
#endif

    FG_VM_CASE(Const):
      R[I.A] = F->C->Constants[I.B];
      FG_VM_DISPATCH();

    FG_VM_CASE(Builtin):
      R[I.A] = F->C->Builtins[I.B];
      FG_VM_DISPATCH();

    FG_VM_CASE(Move):
      R[I.A] = R[I.B];
      FG_VM_DISPATCH();

    FG_VM_CASE(UpvalGet):
      R[I.A] = (*F->Upvals)[I.B];
      FG_VM_DISPATCH();

    FG_VM_CASE(MakeClosure):
    FG_VM_CASE(MakeTyClosure): {
      const Proto &NP = F->C->Protos[I.B];
      std::vector<ValuePtr> Ups;
      Ups.reserve(NP.Captures.size());
      for (const Capture &Cap : NP.Captures)
        Ups.push_back(Cap.Source == Capture::ParentLocal
                          ? R[Cap.Index]
                          : (*F->Upvals)[Cap.Index]);
      assert(F->C == RootChunk.get() &&
             "every frame in a run executes the root chunk");
      if (I.Opcode == Op::MakeClosure)
        R[I.A] =
            std::make_shared<VmClosureValue>(RootChunk, I.B, std::move(Ups));
      else
        R[I.A] = std::make_shared<VmTyClosureValue>(RootChunk, I.B,
                                                    std::move(Ups));
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(Call): {
      // Direct-builtin fast path: dictionary witnesses are builtins
      // (`iadd` et al.), and invoking one moves no frame or register
      // storage — skip the IP spill and the post-call refresh.  The
      // charge, errors, and result slot match enterCall's builtin arm
      // exactly.
      if (const auto *B = dyn_cast<BuiltinValue>(R[I.B].get())) {
        if (B->getArity() != I.C)
          return EvalResult::failure("builtin `" + B->getName() +
                     "` called with wrong arity");
        BuiltinArgs.clear();
        for (uint32_t K = 0; K < I.C; ++K)
          BuiltinArgs.push_back(std::move(R[I.B + 1 + K]));
        EvalResult BR = B->invoke(BuiltinArgs);
        if (!BR.ok())
          return EvalResult::failure(BR.Error);
        R[I.A] = std::move(BR.Val);
        FG_VM_DISPATCH();
      }
      F->IP = IP;
      if (!enterCall(F->Base + I.B, I.C, F->Base + I.A))
        return EvalResult::failure(RuntimeError);
      FG_VM_REFRESH();
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(TyApply): {
      ValuePtr V = R[I.B];
      const auto *TC = dyn_cast<VmTyClosureValue>(V.get());
      if (!TC) {
        // Types are erased: builtins like `nil` pass through unchanged.
        R[I.A] = std::move(V);
        FG_VM_DISPATCH();
      }
      if (depth() >= Opts.MaxDepth)
        return EvalResult::failure(DepthLimitMsg);
      // The instantiated body runs in a frame based at the caller's
      // first free register (the emitter's C operand).
      F->IP = IP;
      CallFrame NF;
      NF.C = TC->chunk().get();
      NF.P = &TC->proto();
      NF.Upvals = &TC->upvals();
      NF.Keep = std::move(V);
      NF.Base = F->Base + I.C;
      NF.RetSlot = F->Base + I.A;
      Regs.resize(NF.Base + NF.P->NumRegs);
      Frames.push_back(std::move(NF));
      ++FramesPushed;
      noteDepth();
      FG_VM_REFRESH();
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(MakeTuple): {
      std::vector<ValuePtr> Elems(std::make_move_iterator(R + I.B),
                                  std::make_move_iterator(R + I.B + I.C));
      R[I.A] = std::make_shared<TupleValue>(std::move(Elems));
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(ProjIC):
      if (!projectSite(I.C, R[I.B], F->Base + I.A))
        return EvalResult::failure(RuntimeError);
      FG_VM_DISPATCH();

    FG_VM_CASE(Jump):
      IP = I.A;
      FG_VM_DISPATCH();

    FG_VM_CASE(JumpIfFalse): {
      const auto *B = dyn_cast<BoolValue>(R[I.A].get());
      if (!B)
        return EvalResult::failure("`if` condition evaluated to a non-boolean");
      if (!B->getValue())
        IP = I.B;
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(MakeFix):
      R[I.A] = std::make_shared<FixValue>(R[I.B]);
      FG_VM_DISPATCH();

    FG_VM_CASE(Return): {
      ValuePtr Res = std::move(R[I.A]);
      uint32_t RetSlot = F->RetSlot;
      Frames.pop_back();
      if (Frames.size() == StopDepth)
        return EvalResult::success(std::move(Res));
      // Restore the caller's frame invariant, then resume at the IP it
      // spilled when it made the call.
      Regs.resize(Frames.back().Base + Frames.back().P->NumRegs);
      Regs[RetSlot] = std::move(Res);
      FG_VM_REFRESH();
      FG_VM_DISPATCH();
    }

    // Superinstructions: each replays its pair's exact charge/check
    // interleaving, so fused and unfused chunks share every value,
    // error, and abort point.
    FG_VM_CASE(MoveCall): {
      uint32_t W = packHi(I.C), N = packLo(I.C);
      R[W + N] = R[I.B]; // The fused last-argument Move.
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      F->IP = IP;
      if (!enterCall(F->Base + W, N, F->Base + I.A))
        return EvalResult::failure(RuntimeError);
      FG_VM_REFRESH();
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(ProjCall): {
      const ProjSite &Site = F->C->ProjSites[I.C];
      // The fused projection: the witness lands in the window base the
      // argument setup just filled in around.
      if (!projectSite(I.C, R[I.B], F->Base + Site.Window))
        return EvalResult::failure(RuntimeError);
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      F->IP = IP;
      if (!enterCall(F->Base + Site.Window, Site.NArgs, F->Base + I.A))
        return EvalResult::failure(RuntimeError);
      FG_VM_REFRESH();
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(CallJf): {
      // The callee is provably a prelude builtin (emit-time writer
      // check), so the call completes inline and the branch can ride
      // on its result without a frame round-trip.
      const auto *B = cast<BuiltinValue>(R[I.A].get());
      if (B->getArity() != I.C)
        return EvalResult::failure("builtin `" + B->getName() +
                   "` called with wrong arity");
      BuiltinArgs.clear();
      for (uint32_t K = 0; K < I.C; ++K)
        BuiltinArgs.push_back(std::move(R[I.A + 1 + K]));
      EvalResult BR = B->invoke(BuiltinArgs);
      if (!BR.ok())
        return EvalResult::failure(BR.Error);
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      const auto *Cond = dyn_cast<BoolValue>(BR.Val.get());
      if (!Cond)
        return EvalResult::failure("`if` condition evaluated to a non-boolean");
      if (!Cond->getValue())
        IP = I.B;
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(ConstTuple): {
      uint32_t N = packHi(I.C), K = packLo(I.C);
      R[I.B + N - 1] = F->C->Constants[K]; // The fused last element.
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      std::vector<ValuePtr> Elems(std::make_move_iterator(R + I.B),
                                  std::make_move_iterator(R + I.B + N));
      R[I.A] = std::make_shared<TupleValue>(std::move(Elems));
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(UpvalProj): {
      // The fused capture load still lands in its register, then the
      // projection charges its own dispatch step before the site walk.
      uint32_t Tmp = packHi(I.B), U = packLo(I.B);
      R[Tmp] = (*F->Upvals)[U];
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      if (!projectSite(I.C, R[Tmp], F->Base + I.A))
        return EvalResult::failure(RuntimeError);
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(BuiltinCall): {
      // The callee was resolved (and its arity checked) at fuse time,
      // so the builtin value never round-trips through a register.
      // Charges: the loop charged the Builtin's step; the Move and the
      // Call each charge theirs below, at the pair's original points.
      uint32_t W = packHi(I.C), NArgs = packLo(I.C);
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      R[W + NArgs] = R[packHi(I.B)]; // The fused last argument.
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      const auto *B =
          cast<BuiltinValue>(F->C->Builtins[packLo(I.B)].get());
      BuiltinArgs.clear();
      for (uint32_t K = 0; K < NArgs; ++K)
        BuiltinArgs.push_back(std::move(R[W + 1 + K]));
      EvalResult BR = B->invoke(BuiltinArgs);
      if (!BR.ok())
        return EvalResult::failure(BR.Error);
      R[I.A] = std::move(BR.Val);
      FG_VM_DISPATCH();
    }

    FG_VM_CASE(BuiltinJf): {
      // The loop-guard quad: statically resolved builtin, no result
      // store, branch folded in.  Charges replay the four originals —
      // Builtin (the loop's charge), Move, Call, then JumpIfFalse
      // after the invoke.
      uint32_t W = packHi(I.C), NArgs = packLo(I.C);
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      R[W + NArgs] = R[packHi(I.A)]; // The fused last argument.
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      const auto *B =
          cast<BuiltinValue>(F->C->Builtins[packLo(I.A)].get());
      BuiltinArgs.clear();
      for (uint32_t K = 0; K < NArgs; ++K)
        BuiltinArgs.push_back(std::move(R[W + 1 + K]));
      EvalResult BR = B->invoke(BuiltinArgs);
      if (!BR.ok())
        return EvalResult::failure(BR.Error);
      if (++Steps > StepCap)
        return EvalResult::failure(StepLimitMsg);
      const auto *Cond = dyn_cast<BoolValue>(BR.Val.get());
      if (!Cond)
        return EvalResult::failure("`if` condition evaluated to a non-boolean");
      if (!Cond->getValue())
        IP = I.B;
      FG_VM_DISPATCH();
    }

#if !FG_VM_COMPUTED_GOTO
    }
  }
#endif
#undef FG_VM_DISPATCH
#undef FG_VM_CASE
#undef FG_VM_REFRESH
}

EvalResult VM::run(std::shared_ptr<const Chunk> C) {
  stats::ScopedTimer Timer("vm.run");
  Steps = 0;
  FramesPushed = 0;
  IcHits = IcMisses = IcMega = 0;
  FixDepth = 0;
  Frames.clear();
  Regs.clear();
  ICSlots.clear();
  RuntimeError.clear();
  FixMemo.clear();
  FixMemoKey = nullptr;
  FixMemoCached = nullptr;
  MaxDepthSeen = 0;
  if (!C || C->Protos.empty())
    return EvalResult::failure("empty bytecode chunk");
  RootChunk = std::move(C);
  ICSlots.resize(RootChunk->ProjSites.size());

  CallFrame Entry;
  Entry.C = RootChunk.get();
  Entry.P = &RootChunk->Protos[0];
  Regs.resize(Entry.P->NumRegs);
  Frames.push_back(std::move(Entry));
  ++FramesPushed;
  noteDepth();
  EvalResult Res = execute(0);

  // Bulk-flush the run's counters: one atomic add each instead of one
  // per instruction (see Stats.h design note 1).
  static std::atomic<uint64_t> &InstrCount =
      stats::Statistics::global().counter("vm.instructions");
  static std::atomic<uint64_t> &FrameCount =
      stats::Statistics::global().counter("vm.frames.pushed");
  static std::atomic<uint64_t> &HitCount =
      stats::Statistics::global().counter("vm.ic.hits");
  static std::atomic<uint64_t> &MissCount =
      stats::Statistics::global().counter("vm.ic.misses");
  static std::atomic<uint64_t> &MegaCount =
      stats::Statistics::global().counter("vm.ic.megamorphic");
  InstrCount += Steps;
  FrameCount += FramesPushed;
  HitCount += IcHits;
  MissCount += IcMisses;
  MegaCount += IcMega;
  return Res;
}

EvalResult fg::vm::runTerm(const sf::Term *T, const Prelude &P,
                           const EvalOptions &Opts) {
  std::string Error;
  std::shared_ptr<const Chunk> C = compile(T, P, &Error);
  if (!C)
    return EvalResult::failure("compilation to bytecode failed: " + Error);
  VM M(Opts);
  return M.run(std::move(C));
}
