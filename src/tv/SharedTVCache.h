//===- tv/SharedTVCache.h - Cross-worker TV verdict cache -------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TV verdict cache that several workers may share: one mutex around one
/// TVCache of the full capacity. FuzzerLoop reaches every verdict through
/// one of these. By default each loop owns a private instance keyed on raw
/// printed text (TVCache::makeKey on the functions), whose hits, misses and
/// evictions are exactly a TVCache's of the same capacity. Under
/// -shared-tv-cache the campaign shares one instance keyed on
/// *canonicalized* pairs (tv/Canonicalize.h): alpha-renamed,
/// commutative-normalized clones, so structurally-equal queries from
/// different workers and mutation lineages collapse onto one entry. The
/// loop's other LRU user, its formula-keyed SolveMemo (tv/TVCache.h), is
/// private to the loop in both modes and takes no lock.
///
/// Concurrency: the critical section is a TVCache probe, and the verdict
/// is copied out by value so no reference can dangle past an eviction by
/// another worker. A probe is short next to the solver query it saves, so
/// the workers of a campaign rarely find the one lock held.
///
/// Determinism: on the shared path verdicts are computed *on the canonical
/// pair*, making them a pure function of the key — whichever worker
/// computes first, a hit replays byte-for-byte what a fresh computation
/// would produce, so the deterministic report section stays byte-equal
/// across -j values. Only the hit/miss/eviction *counters* are
/// scheduling-dependent (two workers can race to compute the same key and
/// both count a miss); they live in the volatile section of the run report.
///
//===----------------------------------------------------------------------===//

#ifndef TV_SHAREDTVCACHE_H
#define TV_SHAREDTVCACHE_H

#include "tv/TVCache.h"

#include <mutex>
#include <string>

namespace alive {

class SharedTVCache {
public:
  /// \p Capacity bounds the resident verdicts of the one LRU.
  explicit SharedTVCache(size_t Capacity = TVCache::DefaultCapacity)
      : Cache(Capacity) {}

  /// Copies the memoized verdict for \p Key into \p Out, refreshing its
  /// recency. \returns false on a miss.
  bool lookup(const std::string &Key, TVResult &Out) {
    std::lock_guard<std::mutex> G(Lock);
    const TVResult *Hit = Cache.lookup(Key);
    if (Hit)
      Out = *Hit; // by value: safe past a concurrent eviction
    return Hit;
  }

  /// Memoizes \p R under \p Key (no-op when already resident — the first
  /// writer of a raced key wins, but both verdicts are identical by
  /// construction). \returns true when an entry was evicted to make room.
  bool insert(const std::string &Key, const TVResult &R) {
    std::lock_guard<std::mutex> G(Lock);
    return Cache.insert(Key, R);
  }

  size_t capacity() const { return Cache.capacity(); }
  /// Resident entries.
  size_t size() const {
    std::lock_guard<std::mutex> G(Lock);
    return Cache.size();
  }

private:
  mutable std::mutex Lock;
  TVCache Cache;
};

} // namespace alive

#endif // TV_SHAREDTVCACHE_H
