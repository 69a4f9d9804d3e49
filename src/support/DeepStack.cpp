//===- support/DeepStack.cpp - Threads with room to recurse ---------------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "support/DeepStack.h"
#include <system_error>

using namespace fg;

namespace {

void *runBody(void *Body) noexcept {
  (*static_cast<const std::function<void()> *>(Body))();
  return nullptr;
}

/// Starts \p Body on a new thread with \p StackBytes of stack, or the
/// default stack when \p StackBytes is 0.  \p Body must outlive it.
bool start(pthread_t &Tid, const std::function<void()> &Body,
           size_t StackBytes) {
  pthread_attr_t Attr;
  if (pthread_attr_init(&Attr) != 0)
    return false;
  bool Started =
      (StackBytes == 0 || pthread_attr_setstacksize(&Attr, StackBytes) == 0) &&
      pthread_create(&Tid, &Attr, runBody,
                     const_cast<std::function<void()> *>(&Body)) == 0;
  pthread_attr_destroy(&Attr);
  return Started;
}

} // namespace

DeepStackThread::DeepStackThread(std::function<void()> Fn)
    : Body(std::make_unique<std::function<void()>>(std::move(Fn))) {
  if (!start(Tid, *Body, DeepStackBytes) && !start(Tid, *Body, 0))
    throw std::system_error(
        std::make_error_code(std::errc::resource_unavailable_try_again),
        "cannot start a thread");
}

void DeepStackThread::join() {
  if (!Body)
    return;
  pthread_join(Tid, nullptr);
  Body.reset();
}

void fg::runOnDeepStack(const std::function<void()> &Body) {
  pthread_t Tid;
  if (start(Tid, Body, DeepStackBytes))
    pthread_join(Tid, nullptr);
  else
    Body();
}
