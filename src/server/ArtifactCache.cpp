//===- server/ArtifactCache.cpp - Shared content-hash artifact cache ------===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//

#include "server/ArtifactCache.h"
#include "support/Hash.h"
#include "support/Stats.h"

using namespace fg;
using namespace fg::server;

ArtifactPtr ArtifactCache::find(const CacheKey &Key) const {
  static std::atomic<uint64_t> &Hits =
      stats::Statistics::global().counter("server.artifact_cache.hits");
  static std::atomic<uint64_t> &Misses =
      stats::Statistics::global().counter("server.artifact_cache.misses");
  static std::atomic<uint64_t> &Collisions =
      stats::Statistics::global().counter("server.artifact_cache.collisions");
  auto It = Map.find(Key.Hash);
  if (It == Map.end()) {
    ++Misses;
    return nullptr;
  }
  const CacheKey &Stored = It->second.Key;
  if (Stored.Kind != Key.Kind || Stored.Payload != Key.Payload ||
      Stored.Salt != Key.Salt) {
    // FNV-1a hash collision with a different program: serving the
    // stored artifact would be wrong, so treat it as a miss.
    ++Collisions;
    ++Misses;
    return nullptr;
  }
  ++Hits;
  return It->second.A;
}

ArtifactCache::Lookup ArtifactCache::acquire(const CacheKey &Key) {
  static std::atomic<uint64_t> &Waits =
      stats::Statistics::global().counter("server.artifact_cache.waits");
  std::unique_lock<std::mutex> Lock(Mu);
  // A colliding key waits too; its lookup then misses, as a released
  // waiter's does, and it compiles unclaimed.
  bool Waited = Compiling.count(Key.Hash) != 0;
  if (Waited) {
    ++Waits;
    CompileEnded.wait(Lock, [&] { return !Compiling.count(Key.Hash); });
  }
  Lookup L;
  L.A = find(Key);
  L.Claimed = !L.A && !Waited;
  if (L.Claimed)
    Compiling.insert(Key.Hash);
  return L;
}

void ArtifactCache::endCompile(const CacheKey &Key) {
  if (Compiling.erase(Key.Hash))
    CompileEnded.notify_all();
}

void ArtifactCache::put(const CacheKey &Key, ArtifactPtr A) {
  static std::atomic<uint64_t> &Evictions =
      stats::Statistics::global().counter("server.artifact_cache.evictions");
  std::lock_guard<std::mutex> Lock(Mu);
  endCompile(Key);
  if (!Map.emplace(Key.Hash, Entry{Key, std::move(A)}).second)
    return; // First writer won (or a colliding key lost the slot).
  InsertionOrder.push_back(Key.Hash);
  while (Map.size() > MaxEntries) {
    Map.erase(InsertionOrder.front());
    InsertionOrder.pop_front();
    ++Evictions;
  }
}

void ArtifactCache::release(const CacheKey &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  endCompile(Key);
}

void ArtifactCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  InsertionOrder.clear();
}

size_t ArtifactCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

CacheKey ArtifactCache::key(std::string_view Kind, std::string_view Payload,
                            uint64_t Salt) {
  uint64_t H = fnv1a64(Kind);
  // Separator byte: key("ab","c") must differ from key("a","bc").
  H = fnv1a64(std::string_view("\0", 1), H);
  H = fnv1a64(Payload, H);
  char SaltBytes[8];
  for (int I = 0; I < 8; ++I)
    SaltBytes[I] = static_cast<char>((Salt >> (8 * I)) & 0xff);
  H = fnv1a64(std::string_view(SaltBytes, 8), H);
  return CacheKey{std::string(Kind), std::string(Payload), Salt, H};
}
