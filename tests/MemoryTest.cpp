//===- tests/MemoryTest.cpp - Destruction and live-heap regression --------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
// The recursive-destruction bug family: long list spines, deep
// environment chains, and tuple-of-tuple nests used to die through
// chained shared_ptr destructors, so a program could *evaluate*
// successfully and then stack-overflow tearing its result down.  These
// tests pin the iterative disciplines in systemf/Value.{h,cpp} — and
// the million-element differential program pins them end to end on
// every backend (the AOT runtime frees spines on an explicit
// work-list; the interpreter values must keep up).
//
// The live-object gauges (liveValueGauge/liveEnvNodeGauge) double as
// leak detectors here: every test asserts the population returns to
// its starting point, the same invariant fgcd exposes as
// `server.arena.*`.
//
//===----------------------------------------------------------------------===//

#include "Differential.h"
#include "systemf/Value.h"
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace fg::sf;

namespace {

int64_t liveValues() {
  return liveValueGauge().load(std::memory_order_relaxed);
}
int64_t liveEnvNodes() {
  return liveEnvNodeGauge().load(std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Interned immediates
//===----------------------------------------------------------------------===//

// First in the file, so the pooled ints are not yet boxed when it runs:
// the threads race to create each one.
TEST(MemoryTest, EightThreadsBoxingThePoolShareOneUncountedObjectPerValue) {
  constexpr int64_t Min = -4096, Max = 4096;
  constexpr int Threads = 8;
  const int64_t Before = liveValues();
  std::vector<std::vector<const Value *>> Seen(Threads);
  std::atomic<int> Ready{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      std::vector<const Value *> &Mine = Seen[T];
      ++Ready;
      while (Ready.load() != Threads)
        std::this_thread::yield();
      for (int64_t I = Min; I <= Max; ++I)
        Mine.push_back(boxInt(I).get());
      Mine.push_back(boxBool(false).get());
      Mine.push_back(boxBool(true).get());
      Mine.push_back(nilList().get());
    });
  for (std::thread &W : Workers)
    W.join();
  for (int T = 1; T != Threads; ++T)
    ASSERT_EQ(Seen[T], Seen[0]) << "thread " << T;
  for (int64_t I = Min; I <= Max; ++I)
    ASSERT_EQ(fg::cast<IntValue>(Seen[0][I - Min])->getValue(), I);
  EXPECT_FALSE(fg::cast<BoolValue>(Seen[0][Max - Min + 1])->getValue());
  EXPECT_TRUE(fg::cast<BoolValue>(Seen[0][Max - Min + 2])->getValue());
  EXPECT_TRUE(fg::cast<ListValue>(Seen[0][Max - Min + 3])->isNil());
  // Immortal and uncounted: boxing the whole pool moved no gauge, and a
  // boxed immediate owns no refcount to bump.
  EXPECT_EQ(liveValues(), Before);
  EXPECT_EQ(boxInt(Max).use_count(), 0);
  EXPECT_EQ(boxBool(true).use_count(), 0);
  EXPECT_EQ(nilList().use_count(), 0);
}

TEST(MemoryTest, IntsOutsideThePoolAreCountedUntilFreed) {
  const int64_t Before = liveValues();
  {
    ValuePtr Above = boxInt(4097);
    ValuePtr Below = boxInt(-4097);
    EXPECT_EQ(liveValues(), Before + 2);
    EXPECT_NE(boxInt(4097).get(), Above.get());
    EXPECT_EQ(fg::cast<IntValue>(Below.get())->getValue(), -4097);
  }
  EXPECT_EQ(liveValues(), Before);
}

//===----------------------------------------------------------------------===//
// Direct spine destruction
//===----------------------------------------------------------------------===//

TEST(MemoryTest, MillionElementListSpineDestructsIteratively) {
  const int64_t Before = liveValues();
  {
    std::shared_ptr<const ListValue> L = nilList();
    for (int I = 0; I < 1'000'000; ++I)
      L = std::make_shared<ListValue>(boxInt(I & 1023), std::move(L));
    EXPECT_GE(liveValues() - Before, 1'000'000);
  } // The whole spine dies here; recursion through ~shared_ptr would
    // overflow the stack a thousand times over.
  EXPECT_EQ(liveValues(), Before);
}

TEST(MemoryTest, MillionNodeEnvironmentChainDestructsIteratively) {
  const int64_t Before = liveEnvNodes();
  {
    EnvPtr E;
    for (int I = 0; I < 1'000'000; ++I)
      E = envBind(std::move(E), "x", boxInt(7));
    EXPECT_GE(liveEnvNodes() - Before, 1'000'000);
  }
  EXPECT_EQ(liveEnvNodes(), Before);
}

TEST(MemoryTest, SharedTailsSurviveHeadDestruction) {
  // Hand-over-hand stealing must stop at the first cell someone else
  // still holds: dropping the head of a shared spine releases exactly
  // the unshared prefix.
  const int64_t Before = liveValues();
  std::shared_ptr<const ListValue> Mid;
  {
    std::shared_ptr<const ListValue> L = nilList();
    for (int I = 0; I < 100'000; ++I) {
      L = std::make_shared<ListValue>(boxInt(1), std::move(L));
      if (I == 49'999)
        Mid = L; // keep the 50k-cell suffix alive
    }
  } // drops the unshared 50k-cell prefix only
  EXPECT_EQ(liveValues() - Before, 50'000);
  // The retained suffix is intact and fully walkable.
  size_t Len = 0;
  for (const ListValue *C = Mid.get(); C && !C->isNil();
       C = C->getTail().get())
    ++Len;
  EXPECT_EQ(Len, 50'000u);
  Mid.reset();
  EXPECT_EQ(liveValues(), Before);
}

//===----------------------------------------------------------------------===//
// Deep tuple nests: render, compare, destroy
//===----------------------------------------------------------------------===//

TEST(MemoryTest, DeepTupleNestRendersComparesAndDestructsIteratively) {
  constexpr int Depth = 200'000;
  const int64_t Before = liveValues();
  {
    auto Mk = [] {
      ValuePtr V = boxInt(1);
      for (int I = 0; I < Depth; ++I) {
        std::vector<ValuePtr> Es;
        Es.push_back(std::move(V));
        V = std::make_shared<TupleValue>(std::move(Es));
      }
      return V;
    };
    ValuePtr A = Mk();
    ValuePtr B = Mk();
    EXPECT_TRUE(valueEquals(A, B));
    std::string S = valueToString(A);
    ASSERT_EQ(S.size(), size_t(2 * Depth + 1));
    EXPECT_EQ(S.front(), '(');
    EXPECT_EQ(S[Depth], '1');
    EXPECT_EQ(S.back(), ')');
  }
  EXPECT_EQ(liveValues(), Before);
}

TEST(MemoryTest, AlternatingListTupleNestDestructsIteratively) {
  // The two iterative disciplines must compose: a list whose head is a
  // tuple whose element is a list whose head is a tuple ... unwinds in
  // O(1) native stack per level.
  constexpr int Depth = 150'000;
  const int64_t Before = liveValues();
  {
    ValuePtr V = boxInt(0);
    for (int I = 0; I < Depth; ++I) {
      if (I & 1) {
        std::vector<ValuePtr> Es;
        Es.push_back(std::move(V));
        V = std::make_shared<TupleValue>(std::move(Es));
      } else {
        V = std::make_shared<ListValue>(std::move(V), nilList());
      }
    }
  }
  EXPECT_EQ(liveValues(), Before);
}

//===----------------------------------------------------------------------===//
// End to end: a million-element list on every backend
//===----------------------------------------------------------------------===//

TEST(MemoryTest, MillionElementListBuildAndDropOnEveryBackend) {
  // Builds a 100*100*100 = 1,000,000-element list with shallow call
  // depth (~300 frames: the in-process engines evaluate on the native
  // stack), reads its head, and lets the spine die.  Every backend
  // must agree on the value *and* survive the teardown — the tree and
  // VM engines through the interpreter values' iterative destructors,
  // the AOT binary through its work-list destroy().
  const std::string Src = R"(
    let chunk = fix (fun(go : fn(int, list int) -> list int).
      fun(k : int, acc : list int).
        if ieq(k, 0) then acc else go(isub(k, 1), cons[int](k, acc))) in
    let mid = fix (fun(go : fn(int, list int) -> list int).
      fun(k : int, acc : list int).
        if ieq(k, 0) then acc else go(isub(k, 1), chunk(100, acc))) in
    let top = fix (fun(go : fn(int, list int) -> list int).
      fun(k : int, acc : list int).
        if ieq(k, 0) then acc else go(isub(k, 1), mid(100, acc))) in
    car[int](top(100, nil[int]))
  )";
  const int64_t BeforeValues = liveValues();
  const int64_t BeforeEnvNodes = liveEnvNodes();
  EXPECT_EQ(fgtest::runDifferential(Src), "1");
  // No backend may strand interpreter heap behind it.
  EXPECT_EQ(liveValues(), BeforeValues);
  EXPECT_EQ(liveEnvNodes(), BeforeEnvNodes);
}

} // namespace
