//===- vm/Emit.h - System F term -> bytecode compiler -----------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a translated System F term into a vm::Chunk, in two passes.
///
/// Pass 1 assigns virtual registers with a stack discipline: lambda
/// parameters and `let` bindings get permanent slots of the enclosing
/// function's single frame (chains of `let`s flatten into consecutive
/// slots instead of one environment node each), expression temporaries
/// are allocated above the live slots and released when their consumer
/// fires, and each prototype's NumRegs records the high-water mark.
/// Call arguments are evaluated directly into a contiguous window the
/// callee's frame will overlay.  All name resolution happens here,
/// once:
///
///  * free variables of a lambda become flat-closure captures,
///    interned per (source, index) so a variable used twice is
///    captured once;
///  * remaining free names must be prelude builtins and are interned
///    into the chunk's builtin table;
///  * maximal `nth` chains collapse into one ProjIC instruction whose
///    static path lives in the chunk's ProjSites table.
///
/// Pass 2 is a peephole over basic blocks that fuses adjacent pairs
/// into superinstructions (see Op in Bytecode.h), skipped under
/// EmitOptions::Superinstructions = false.  Fusion never changes what
/// a program computes, what error it reports, or how many steps it is
/// charged — a fused instruction charges exactly the steps of the pair
/// it replaces.
///
/// An unbound name is a compile-time error.
///
//===----------------------------------------------------------------------===//

#ifndef FG_VM_EMIT_H
#define FG_VM_EMIT_H

#include "systemf/Builtins.h"
#include "systemf/Term.h"
#include "vm/Bytecode.h"
#include <memory>
#include <string>

namespace fg {
namespace vm {

/// Knobs for the bytecode compiler.
struct EmitOptions {
  /// Run the peephole fusion pass (pass 2).  `fgc
  /// --no-superinstructions` clears the process-wide default so every
  /// compile in the run — driver, fuzzer, server — takes the unfused
  /// path for A/B comparison.
  bool Superinstructions = true;
};

/// The process-wide default used when compile() is not given explicit
/// options (fg::execute, and through it the driver, the fuzzer and fgcd
/// sessions).
EmitOptions &defaultEmitOptions();

/// Compiles \p T against prelude \p P.  Returns null (with \p ErrorOut
/// set) when \p T references a name bound neither locally nor in the
/// prelude.  The chunk is immutable and shareable once returned.
std::shared_ptr<const Chunk> compile(const sf::Term *T, const sf::Prelude &P,
                                     std::string *ErrorOut = nullptr,
                                     const EmitOptions &Opts =
                                         defaultEmitOptions());

} // namespace vm
} // namespace fg

#endif // FG_VM_EMIT_H
