//===- server/ArtifactCache.h - Shared content-hash artifact cache -*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon-wide artifact cache: immutable compilation artifacts
/// keyed by a content hash, shared by every concurrent session.
///
/// Keys use the same FNV-1a 64 content-hash discipline the module
/// system introduced for `.fgi` interfaces (modules/Interface.h): the
/// hash covers a kind tag (so `check` and `dump-bytecode` artifacts of
/// the same source never collide), the full source text, and — for
/// multi-file inputs — the whole import cone via
/// ModuleLoader::contentHash.  Two sessions submitting byte-identical
/// programs therefore share one artifact; any edit anywhere in the
/// dependency cone changes the key and misses.  Because FNV-1a is not
/// collision-resistant, each entry also stores the kind/payload/salt
/// it was keyed from and acquire() verifies them on a hash hit, so a
/// collision is a miss rather than a wrong answer.
///
/// Values are shared_ptr<const Artifact>: plain strings, immutable
/// after insertion, so a hit is a mutex-protected map lookup plus a
/// refcount bump — no compilation state (Frontend arenas, interned
/// types) ever crosses a session boundary.  That is what keeps
/// per-session isolation trivial: sessions share *results*, never
/// compiler internals.
///
/// Compiles are single-flight: acquire() makes the first caller to miss
/// a key its compiler, and a caller that misses while that compile runs
/// waits for its artifact instead of compiling the same program again.
///
/// The cache is bounded (default 4096 artifacts) with FIFO eviction —
/// a long-lived daemon must not grow without bound; FIFO is enough
/// because artifacts are cheap to rebuild and the working set of a
/// check-heavy client (editor, CI) is recent by construction.
///
/// Observability: `server.artifact_cache.hits` / `.misses` (hit_rate
/// derived at emission), `server.artifact_cache.evictions`, and
/// `server.artifact_cache.waits` (misses that waited for another
/// caller's compile).
///
//===----------------------------------------------------------------------===//

#ifndef FG_SERVER_ARTIFACTCACHE_H
#define FG_SERVER_ARTIFACTCACHE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace fg {
namespace server {

/// One immutable compilation artifact.  Which fields are populated
/// depends on the request kind that produced it (Kind tag in the key).
struct Artifact {
  bool Success = false;
  std::string Type;        ///< Rendered F_G type (check/run/type).
  std::string Diagnostics; ///< Rendered diagnostics when !Success.
  std::string Value;       ///< Rendered result value (run).
  std::string Bytecode;    ///< Disassembly (dump-bytecode).
  std::string Error;       ///< Runtime error (run; deterministic too).
};

using ArtifactPtr = std::shared_ptr<const Artifact>;

/// A cache key: the FNV-1a 64 hash used for the map lookup plus the
/// exact inputs it was derived from.  FNV-1a is fast but not
/// collision-resistant, so a hit is only trusted after acquire() compares
/// Kind/Payload/Salt byte-for-byte — a hash collision degrades to a
/// miss instead of silently serving another program's artifact.
struct CacheKey {
  std::string Kind;
  std::string Payload;
  uint64_t Salt = 0;
  uint64_t Hash = 0;
};

/// Thread-safe bounded map from content hash to artifact.
class ArtifactCache {
public:
  explicit ArtifactCache(size_t MaxEntries = 4096)
      : MaxEntries(MaxEntries ? MaxEntries : 1) {}

  /// What acquire() found.
  struct Lookup {
    ArtifactPtr A;        ///< The artifact, or null on a miss.
    bool Claimed = false; ///< On a miss: the caller compiles the key and
                          ///< then put()s or release()s it.
  };

  /// The artifact for \p Key, or a miss.  An entry whose hash matches
  /// but whose kind/payload/salt differ (FNV collision) is a miss.
  /// While another caller has claimed a key of the same hash, waits
  /// until it put()s or release()s that key, then looks up and returns
  /// the artifact or a miss, without a claim.  Any other miss claims
  /// the key for the caller.  Counts server.artifact_cache.{hits,misses}.
  Lookup acquire(const CacheKey &Key);

  /// Inserts \p A under \p Key (first writer wins on a race; the
  /// artifacts are byte-identical by construction since the key covers
  /// all inputs) and wakes the callers waiting on \p Key's hash.
  /// Evicts FIFO past the capacity bound.
  void put(const CacheKey &Key, ArtifactPtr A);

  /// Ends the caller's claim on \p Key without an artifact (an outcome
  /// that is never cached); the callers waiting on it compile for
  /// themselves.
  void release(const CacheKey &Key);

  /// Drops every entry (bench cold-cache runs and tests).
  void clear();

  size_t size() const;

  /// Content-hash helper: FNV-1a 64 over a kind tag plus the payload,
  /// matching the `.fgi` hash discipline.  \p Salt folds in anything
  /// else that affects the artifact (option bits, import-cone hash).
  /// The returned key keeps the inputs for acquire()'s collision check.
  static CacheKey key(std::string_view Kind, std::string_view Payload,
                      uint64_t Salt = 0);

private:
  struct Entry {
    CacheKey Key;
    ArtifactPtr A;
  };

  /// The lookup of acquire(), with Mu held.
  ArtifactPtr find(const CacheKey &Key) const;

  /// Ends the claim on \p Key's hash, if there is one.  Mu held.
  void endCompile(const CacheKey &Key);

  mutable std::mutex Mu;
  size_t MaxEntries;
  std::unordered_map<uint64_t, Entry> Map;
  std::deque<uint64_t> InsertionOrder;
  /// The hashes of the claimed keys, whose compiles are running.
  std::unordered_set<uint64_t> Compiling;
  std::condition_variable CompileEnded;
};

} // namespace server
} // namespace fg

#endif // FG_SERVER_ARTIFACTCACHE_H
