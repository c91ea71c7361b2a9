//===- support/Profiler.h - Cost attribution and span folds ----*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deep cost-attribution layer: "where did the time go, per query".
/// Two complementary instruments, split by the repo's deterministic-vs-
/// volatile telemetry contract:
///
///   1. QueryCostTracker — a deterministic top-K ranking of the most
///      expensive TV queries by solver effort. Each query is keyed by a
///      stable 64-bit hash of its canonical cache key (or printed pair
///      text when uncacheable), and its cost counters (decisions,
///      propagations, conflicts, learned clauses/literals, restarts) are
///      a pure function of that key: the verdict cache replays them
///      byte-for-byte on a hit, and the solver is deterministic on a
///      miss. Ranking therefore uses the *per-occurrence* cost — never
///      the occurrence-weighted total — under the total order
///      (CostUnits desc, KeyHash asc), which makes per-worker K-bounded
///      trackers merge exactly: any key in the global top-K outranks all
///      but at most K-1 keys everywhere, so no worker that saw it ever
///      evicted it, and the merged counts are exact. A -j4 campaign's
///      merged top-K is byte-identical to -j1's.
///
///   2. Span folds — volatile, exact wall-clock attribution: each
///      worker's TraceRecorder adds the self time of every closed
///      TraceSpan under its span stack, and the engine merges the folds
///      under "w<i>;" roots into flamegraph-compatible collapsed stacks
///      ("w0;optimize;pass.gvn"). No sampling thread, no torn reads.
///
/// Both are per-worker state that the shard checkpoint carries, so a
/// resumed campaign and a -fanout campaign report them like an
/// uninterrupted in-process one. CampaignProfile bundles both for the run
/// report's profile blocks.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_PROFILER_H
#define SUPPORT_PROFILER_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace alive {

/// Profiling knobs, threaded through FuzzOptions (one copy per worker).
struct ProfileOptions {
  /// Master switch (-profile). Off = zero-cost: no tracker and, unless
  /// -trace-json asks for one, no span recorder.
  bool Enabled = false;
  /// Top-K most-expensive-query tracker capacity (-profile-topk).
  unsigned TopK = 16;
};

/// One TV query observation, as recorded by the fuzzing loop's verify
/// path. The solver counters are deterministic per key (cache hits replay
/// them); the wall-clock seconds are volatile.
struct QueryCostSample {
  uint64_t KeyHash = 0;
  std::string_view Function;
  std::string_view Verdict; ///< tvVerdictReason slug
  uint64_t Seed = 0;
  bool Symbolic = false;
  std::string_view BundlePath; ///< forensics cross-link ("" when none)
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  uint64_t LearnedClauses = 0;
  uint64_t LearnedLiterals = 0;
  uint64_t Restarts = 0;
  uint64_t Vars = 0;    ///< formula size as solve() received it
  uint64_t Clauses = 0;
  double EncodeSeconds = 0; ///< volatile
  double SolveSeconds = 0;  ///< volatile
};

/// One tracked query's accumulated state.
struct QueryCost {
  uint64_t KeyHash = 0;
  /// Function name / bundle path of the smallest seed that produced this
  /// key (canonicalization can map differently-named functions onto one
  /// key, so the min-seed rule keeps the attribution deterministic).
  std::string Function;
  std::string BundlePath;
  std::string Verdict;
  uint64_t FirstSeed = 0;
  uint64_t Count = 0; ///< occurrences, cache hits included
  bool Symbolic = false;
  // Per-occurrence solver effort (identical on every recurrence).
  uint64_t Decisions = 0;
  uint64_t Propagations = 0;
  uint64_t Conflicts = 0;
  uint64_t LearnedClauses = 0;
  uint64_t LearnedLiterals = 0;
  uint64_t Restarts = 0;
  // The formula the solver received (0 for a concrete-only query).
  uint64_t Vars = 0;
  uint64_t Clauses = 0;
  // Accumulated wall clock across occurrences (volatile; a cache hit
  // contributes the first computation's split).
  double EncodeSeconds = 0;
  double SolveSeconds = 0;

  /// The deterministic ranking metric: total search steps of one
  /// evaluation. Concrete-only queries cost 0 (they never enter the
  /// solver) but are still tracked.
  uint64_t costUnits() const { return Decisions + Propagations + Conflicts; }
};

/// The deterministic ranking order: (costUnits desc, KeyHash asc). A
/// strict total order — KeyHash collisions aside — so sorts and evictions
/// are unambiguous.
bool queryCostRanksBefore(const QueryCost &A, const QueryCost &B);

/// Per-worker bounded tracker of the K most expensive queries. Single
/// owner, like the worker's StatRegistry: the engine reads and merges it
/// only once the worker is parked.
class QueryCostTracker {
public:
  explicit QueryCostTracker(unsigned K = 16);

  void record(const QueryCostSample &S);

  /// Replaces the tracked queries with \p Top (a worker restored from
  /// its shard checkpoint), evicting down to capacity.
  void restore(const std::vector<QueryCost> &Top);

  /// Merges \p O into this tracker (same accumulation rules as record,
  /// entry-wise). Merging workers in worker order after the join yields
  /// the exact global top-K; see the file comment for the proof sketch.
  void merge(const QueryCostTracker &O);

  /// The tracked queries, best first under queryCostRanksBefore.
  std::vector<QueryCost> top() const;

  unsigned capacity() const { return K; }

private:
  void evictWorst();

  unsigned K;
  std::unordered_map<uint64_t, QueryCost> ByKey;
};

/// Everything the profiling subsystem produced for one campaign, split
/// along the usual deterministic/volatile seam.
struct CampaignProfile {
  bool Enabled = false;
  unsigned TopK = 0;
  /// Deterministic: merged top-K, best first.
  std::vector<QueryCost> TopQueries;
  /// Volatile: exact self nanoseconds per collapsed span stack, rooted
  /// at the worker ("w0;verify").
  std::map<std::string, uint64_t> SpanSelfNanos;
};

/// Serializes the deterministic top-K as a JSON array of query objects
/// (rank, key hex, function, verdict, count, first_seed, the six solver
/// counters, the formula's vars and clauses, cost, symbolic flag, bundle
/// link). Byte-identical for any
/// worker count — the run report embeds it in the deterministic section.
void writeTopQueriesJSON(std::ostream &OS, const std::vector<QueryCost> &Top,
                         const std::string &Indent = "");

/// Serializes the volatile side (span folds + per-query wall seconds) as a
/// JSON object. A stack whose self time is under a microsecond is left out.
void writeProfileVolatileJSON(std::ostream &OS, const CampaignProfile &P,
                              const std::string &Indent = "");

} // namespace alive

#endif // SUPPORT_PROFILER_H
