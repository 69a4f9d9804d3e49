//===- support/Hash.h - Content hashing -------------------------*- C++ -*-===//
//
// Part of the fgc project: a reproduction of "Essential Language Support
// for Generic Programming" (Siek & Lumsdaine, PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one content hash every cache key is made of: FNV-1a 64 and its
/// fixed-width hex rendering.  Module interfaces and their import cones
/// (modules/), fgcd's artifact cache (server/) and the AOT build cache
/// (aot/) all chain it, so a key computed anywhere is computed the same
/// way everywhere.  Changing either function changes every on-disk key
/// and silently rebuilds users' `.fgi` and AOT caches; ModulesTest and
/// AotTest pin one key each.
///
//===----------------------------------------------------------------------===//

#ifndef FG_SUPPORT_HASH_H
#define FG_SUPPORT_HASH_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace fg {

/// FNV-1a 64-bit over \p Data, chained through \p Seed (the FNV offset
/// basis starts a fresh hash).
inline uint64_t fnv1a64(std::string_view Data,
                        uint64_t Seed = 0xcbf29ce484222325ull) {
  uint64_t H = Seed;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

/// \p H as 16 lowercase hex digits.
inline std::string hashToHex(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

} // namespace fg

#endif // FG_SUPPORT_HASH_H
