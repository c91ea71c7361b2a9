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
/// The LRU itself is LRUCache, templated on the value it holds. It has two
/// users. TVCache holds whole verdicts keyed on printed pairs, and a
/// FuzzerLoop reaches it through SharedTVCache (tv/SharedTVCache.h), a
/// mutex around one TVCache: by default a private instance per worker
/// keyed on raw printed text, or under -shared-tv-cache one process-wide
/// instance keyed on canonicalized pairs. SolveMemo holds solver results
/// keyed on the formula the solver receives, one private instance per
/// loop, consulted by checkRefinement on a text miss. Workers of the
/// default mode share nothing on the hot path, and a hit replays a verdict
/// byte-identical to what the checker would recompute, so the -j N bug
/// report stays byte-identical to -j 1 even though each worker's hit
/// pattern differs.
///
//===----------------------------------------------------------------------===//

#ifndef TV_TVCACHE_H
#define TV_TVCACHE_H

#include "tv/RefinementChecker.h"

#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace alive {

/// A bounded LRU map from full string keys to \p Value. Lookups compare
/// the whole key, so a key collision can never return another entry.
template <typename Value> class LRUCache {
public:
  /// \p Capacity bounds the number of resident entries (0 is clamped to
  /// 1; use "no cache at all" to disable memoization).
  explicit LRUCache(size_t Capacity) : Capacity(Capacity ? Capacity : 1) {}

  /// \returns the entry for \p Key, refreshing its recency, or null on a
  /// miss.
  const Value *lookup(const std::string &Key) {
    auto It = Map.find(Key);
    if (It == Map.end())
      return nullptr;
    LRU.splice(LRU.begin(), LRU, It->second);
    return &It->second->second;
  }

  /// Stores \p V under \p Key (no-op if the key is already resident).
  /// \returns true when the least recently used entry was evicted to make
  /// room.
  bool insert(const std::string &Key, const Value &V) {
    if (Map.count(Key))
      return false;
    bool Evicted = false;
    if (Map.size() >= Capacity) {
      Map.erase(std::string_view(LRU.back().first));
      LRU.pop_back();
      Evicted = true;
    }
    LRU.emplace_front(Key, V);
    Map.emplace(std::string_view(LRU.front().first), LRU.begin());
    return Evicted;
  }

  size_t size() const { return Map.size(); }
  size_t capacity() const { return Capacity; }

private:
  using Entry = std::pair<std::string, Value>;
  size_t Capacity;
  /// Front = most recently used. Map values point into this list; list
  /// splicing never invalidates them, and the string_view keys alias the
  /// entry's own key string (stable for the entry's lifetime).
  std::list<Entry> LRU;
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      Map;
};

/// Verdicts keyed on the printed (source, target) pair.
class TVCache : public LRUCache<TVResult> {
public:
  explicit TVCache(size_t Capacity = DefaultCapacity) : LRUCache(Capacity) {}

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
};

/// What one completed SAT search established, for SolveMemo.
struct SolveMemoEntry {
  /// Sat, Unsat, or Unknown. A stored Unknown is always a conflict-budget
  /// stop: a cancelled or deadline-cut search is never stored.
  SatSolver::Result Result = SatSolver::Result::Unknown;
  /// The first computation's search statistics and SAT seconds.
  SatSolver::Stats Stats;
  double SolveSeconds = 0;
  /// For Sat: the model, one value per argument with its poison bit.
  std::vector<ConcVal> Model;
};

/// Solver results keyed on the exact formula (makeKey). The solver is
/// deterministic: one term DAG gives one CNF in one variable order, so an
/// entry is what a fresh search of the same formula would return,
/// whichever pair reached it first. checkRefinement consults it between
/// the term encoding and the bit-blast.
class SolveMemo : public LRUCache<SolveMemoEntry> {
public:
  using LRUCache::LRUCache;

  /// The key of \p Q under \p ConflictBudget: the budget, then every node
  /// reachable from Q.Violation in the bit-blaster's post-order (operands
  /// left to right), each as its kind, width, operands' local ids and
  /// constant value, then each argument's width and the local ids of its
  /// value and poison variables (so a stored model maps back onto the
  /// arguments). A variable is named by its local id alone: its name and
  /// VarId never reach the CNF, so pairs that differ only in value or
  /// function names, or in how the encoder numbered its variables, share
  /// a key.
  static std::string makeKey(const SymbolicQuery &Q, uint64_t ConflictBudget);
};

} // namespace alive

#endif // TV_TVCACHE_H
