//===- support/DeepStack.h - Threads with room to recurse -------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parser, checker, translator and tree-walking evaluator recurse as
/// deep as the program they walk: 20,000 nested parentheses, or a
/// 10k-module import chain linked into one let spine, overflow the
/// default 8 MiB thread stack.  So every thread that compiles or runs a
/// program runs on a DeepStackBytes stack: fgc's main thread, fgcd's
/// `--stdio` and `--repl` session, the batch checker's pool and the
/// daemon's workers.  The stack is reserved address space; the kernel
/// commits its pages only as recursion touches them, so an idle thread
/// costs no memory.
///
/// Bounded recursion in those walkers would make this header
/// unnecessary; until then it is the one place that knows the size.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_DEEPSTACK_H
#define FG_SUPPORT_DEEPSTACK_H

#include <cstddef>
#include <functional>
#include <memory>
#include <pthread.h>

namespace fg {

/// Stack size of every thread that compiles or runs a program.
constexpr size_t DeepStackBytes = size_t(512) << 20;

/// A joinable thread on a DeepStackBytes stack.  Where the system
/// refuses a stack that size (a low RLIMIT_AS, strict overcommit), the
/// thread gets the default stack instead; where it refuses a thread at
/// all, the constructor throws std::system_error, as std::thread's does.
class DeepStackThread {
public:
  explicit DeepStackThread(std::function<void()> Body);
  DeepStackThread(DeepStackThread &&Other) noexcept = default;
  DeepStackThread &operator=(DeepStackThread &&) = delete;
  /// Joins the thread unless join() already has.
  ~DeepStackThread() { join(); }

  /// Waits for the thread to finish; a no-op after the first call.
  void join();

private:
  /// Owned here, not by the thread, so it outlives the thread; null once
  /// joined.
  std::unique_ptr<std::function<void()>> Body;
  pthread_t Tid{};
};

/// Runs \p Body on a DeepStackBytes thread and waits for it; runs it on
/// the calling thread when no such thread can be started.
void runOnDeepStack(const std::function<void()> &Body);

} // namespace fg

#endif // FG_SUPPORT_DEEPSTACK_H
