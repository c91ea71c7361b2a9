//===- tv/TVCache.h - Memoized refinement verdicts --------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded LRU memo of translation-validation verdicts. The fuzzing loop
/// re-derives the same (source, target) pair over and over: different seeds
/// frequently mutate a function into a form seen before, and the optimizer
/// then canonicalizes near-miss variants onto one target. checkRefinement
/// is deterministic in (source text, target text, TVOptions) — so a verdict
/// computed once can be replayed for free on every recurrence.
///
/// Keys are the *structural content* of the pair: a structural hash of the
/// printed source and target plus a fingerprint of the TVOptions, followed
/// by the full printed text so a hash collision can never smuggle in a
/// wrong verdict (lookups compare the whole key). Pairs whose verdict
/// depends on module context beyond the pair itself — calls into *defined*
/// functions, whose bodies are mutated independently — are not cacheable
/// and makeKey refuses them.
///
/// This is the one LRU of the validator. A FuzzerLoop reaches it through
/// SharedTVCache (tv/SharedTVCache.h), whose shards are each a mutex plus a
/// TVCache: by default a private one-shard instance per worker keyed on raw
/// printed text, or under -shared-tv-cache one process-wide instance keyed
/// on canonicalized pairs. Workers of the default mode share nothing on the
/// hot path, and a hit replays a verdict byte-identical to what the checker
/// would recompute, so the -j N bug report stays byte-identical to -j 1
/// even though each worker's hit pattern differs.
///
//===----------------------------------------------------------------------===//

#ifndef TV_TVCACHE_H
#define TV_TVCACHE_H

#include "tv/RefinementChecker.h"

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

namespace alive {

class TVCache {
public:
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
  };

  /// \p Capacity bounds the number of resident verdicts (0 is clamped
  /// to 1; use "no cache at all" to disable memoization).
  explicit TVCache(size_t Capacity = DefaultCapacity);

  /// Default entry bound: mutant functions are small (corpus files are
  /// <2KB), so even thousands of resident pairs stay in the low MBs.
  static constexpr size_t DefaultCapacity = 4096;

  /// Builds the memo key for a (source, target, options) triple.
  /// \returns the empty string when the pair is not cacheable — either
  /// function calls a *defined* non-intrinsic function, so the verdict
  /// depends on callee bodies that are not part of the key.
  static std::string makeKey(const Function &Src, const Function &Tgt,
                             const TVOptions &Opts);

  /// Builds the key for two printed (or canonicalized) function texts:
  /// structural hashes of both plus a fingerprint of every TVOptions field
  /// that can steer the verdict, followed by the full texts so a hash
  /// collision can never smuggle in a wrong verdict. \returns the empty
  /// string when the header does not fit its fixed buffer: the pair is then
  /// uncacheable rather than keyed on a truncated fingerprint that would
  /// merge distinct option configurations.
  static std::string makeKey(std::string_view SrcText,
                             std::string_view TgtText, const TVOptions &Opts);

  /// True when \p F 's verdict is a function of its own printed text:
  /// no calls into defined non-intrinsic functions (their bodies belong to
  /// the surrounding module and are mutated independently). Shared by
  /// makeKey and the canonicalization pass of the shared cache.
  static bool isCacheable(const Function &F);

  /// 64-bit FNV-1a hash of a function's printed form: identical text (the
  /// parser/printer round-trip normal form) hashes identically regardless
  /// of which module clone the function lives in.
  static uint64_t structuralHash(const Function &F);

  /// \returns the memoized verdict for \p Key, refreshing its recency, or
  /// null on a miss. Counts the hit/miss.
  const TVResult *lookup(const std::string &Key);

  /// Memoizes \p R under \p Key (no-op if the key is already resident).
  /// \returns true when an old entry was evicted to make room.
  bool insert(const std::string &Key, const TVResult &R);

  size_t size() const { return Map.size(); }
  size_t capacity() const { return Capacity; }
  const Stats &stats() const { return S; }

private:
  using Entry = std::pair<std::string, TVResult>;
  size_t Capacity;
  /// Front = most recently used. Map values point into this list; list
  /// splicing never invalidates them, and the string_view keys alias the
  /// entry's own key string (stable for the entry's lifetime).
  std::list<Entry> LRU;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> Map;
  Stats S;
};

} // namespace alive

#endif // TV_TVCACHE_H
