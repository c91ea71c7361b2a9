//===- tv/SharedTVCache.h - Cross-worker TV verdict cache -------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-striped LRU cache of translation-validation verdicts: each shard
/// is a mutex around a TVCache. FuzzerLoop reaches every verdict through
/// one of these. By default each loop owns a private one-shard instance
/// keyed on raw printed text (TVCache::makeKey on the functions), whose
/// hits, misses and evictions are exactly a TVCache's of the same
/// capacity. Under -shared-tv-cache the campaign shares one instance keyed
/// on *canonicalized* pairs (tv/Canonicalize.h): alpha-renamed,
/// commutative-normalized clones, so structurally-equal queries from
/// different workers and mutation lineages collapse onto one entry.
///
/// Concurrency: the key hash selects one of a power-of-two number of
/// shards (a one-shard cache skips the hash), each holding
/// max(1, capacity/shards) entries. Workers querying different shards never
/// contend, and a shard's critical section is a TVCache probe — the verdict
/// is copied out by value so no reference can dangle past an eviction by
/// another worker.
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

#include "support/Profiler.h"
#include "tv/TVCache.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alive {

class SharedTVCache {
public:
  static constexpr size_t DefaultShards = 16;

  /// \p Capacity bounds total resident verdicts across all shards;
  /// \p Shards is rounded up to a power of two (0 = DefaultShards). Each
  /// shard holds an independent LRU of max(1, Capacity/Shards) entries.
  explicit SharedTVCache(size_t Capacity = TVCache::DefaultCapacity,
                         size_t Shards = DefaultShards);

  /// Copies the memoized verdict for \p Key into \p Out, refreshing its
  /// recency. \returns false on a miss.
  bool lookup(const std::string &Key, TVResult &Out);

  /// Memoizes \p R under \p Key (no-op when already resident — the first
  /// writer of a raced key wins, but both verdicts are identical by
  /// construction). \returns true when an entry was evicted to make room.
  bool insert(const std::string &Key, const TVResult &R);

  size_t shardCount() const { return Shards.size(); }
  size_t capacity() const {
    return Shards.front()->Cache.capacity() * Shards.size();
  }
  /// Total resident entries (takes every shard lock; diagnostics only).
  size_t size() const;

  /// Point-in-time per-shard heat counters (hits/misses/evictions/inserts/
  /// lock-waits), indexed by shard. Lock-free relaxed reads — safe while
  /// workers hammer the cache. All volatile: which worker touched which
  /// shard when is pure scheduling.
  std::vector<ShardHeat> shardHeat() const;

private:
  struct Shard {
    explicit Shard(size_t Capacity) : Cache(Capacity) {}
    std::mutex Lock;
    TVCache Cache;
    /// Heat counters (relaxed: read by the profile endpoints mid-run).
    std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0}, Inserts{0};
    /// Lock acquisitions that found the mutex held (try_lock failed first)
    /// — the contention signal of the heat map.
    std::atomic<uint64_t> LockWaits{0};
  };

  /// Locks \p S, counting a LockWait when the uncontended fast path fails.
  static std::unique_lock<std::mutex> lockShard(Shard &S);

  Shard &shardFor(const std::string &Key);

  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace alive

#endif // TV_SHAREDTVCACHE_H
