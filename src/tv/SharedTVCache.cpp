//===- tv/SharedTVCache.cpp - Lock-striped TV verdict cache -----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tv/SharedTVCache.h"

#include <algorithm>
#include <functional>

using namespace alive;

namespace {

size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

} // namespace

SharedTVCache::SharedTVCache(size_t Capacity, size_t Shards_) {
  size_t N = roundUpPow2(Shards_ ? Shards_ : DefaultShards);
  size_t PerShard = std::max<size_t>(1, (Capacity ? Capacity : 1) / N);
  Shards.reserve(N);
  for (size_t I = 0; I != N; ++I)
    Shards.push_back(std::make_unique<Shard>(PerShard));
}

SharedTVCache::Shard &SharedTVCache::shardFor(const std::string &Key) {
  if (Shards.size() == 1)
    return *Shards.front();
  // Shard count is a power of two, so the hash's low bits pick the stripe.
  return *Shards[std::hash<std::string_view>()(Key) & (Shards.size() - 1)];
}

std::unique_lock<std::mutex> SharedTVCache::lockShard(Shard &S) {
  std::unique_lock<std::mutex> G(S.Lock, std::try_to_lock);
  if (!G.owns_lock()) {
    S.LockWaits.fetch_add(1, std::memory_order_relaxed);
    G.lock();
  }
  return G;
}

bool SharedTVCache::lookup(const std::string &Key, TVResult &Out) {
  Shard &S = shardFor(Key);
  auto G = lockShard(S);
  const TVResult *Hit = S.Cache.lookup(Key);
  (Hit ? S.Hits : S.Misses).fetch_add(1, std::memory_order_relaxed);
  if (Hit)
    Out = *Hit; // by value: safe past a concurrent eviction
  return Hit;
}

bool SharedTVCache::insert(const std::string &Key, const TVResult &R) {
  Shard &S = shardFor(Key);
  auto G = lockShard(S);
  size_t Before = S.Cache.size();
  bool Evicted = S.Cache.insert(Key, R);
  if (Evicted)
    S.Evictions.fetch_add(1, std::memory_order_relaxed);
  if (Evicted || S.Cache.size() != Before)
    S.Inserts.fetch_add(1, std::memory_order_relaxed);
  return Evicted;
}

size_t SharedTVCache::size() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> G(S->Lock);
    N += S->Cache.size();
  }
  return N;
}

std::vector<ShardHeat> SharedTVCache::shardHeat() const {
  std::vector<ShardHeat> Out;
  Out.reserve(Shards.size());
  for (const auto &S : Shards) {
    ShardHeat H;
    H.Hits = S->Hits.load(std::memory_order_relaxed);
    H.Misses = S->Misses.load(std::memory_order_relaxed);
    H.Evictions = S->Evictions.load(std::memory_order_relaxed);
    H.Inserts = S->Inserts.load(std::memory_order_relaxed);
    H.LockWaits = S->LockWaits.load(std::memory_order_relaxed);
    Out.push_back(H);
  }
  return Out;
}
