//===- core/RunReport.h - Machine-readable campaign report -----*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The schema-versioned JSON run report behind `-stats-json`. The report
/// has exactly two top-level data sections:
///
///   - "deterministic": everything whose value depends only on the seed
///     range — config echo, campaign summary counters, the deterministic
///     registry counters (per-pass, per-mutation-family,
///     per-TV-verdict tables are derived views of these), and the bug
///     list. A -j4 campaign serializes this section byte-identically to
///     -j1; tests and scripts/check_stats_json.py enforce it.
///   - "volatile": wall-clock and scheduling-dependent data — stage
///     seconds (with the mutate+optimize+verify+overhead == worker_total
///     invariant), TV cache hit/miss splits, latency histograms with
///     p50/p90/p99, worker count.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_RUNREPORT_H
#define CORE_RUNREPORT_H

#include "core/FuzzerLoop.h"

#include <ostream>
#include <string>
#include <vector>

namespace alive {

/// Bump when the report layout changes incompatibly; CI's
/// check_stats_json.py pins it.
/// v2: bug records gained "bundle" (forensics bundle path, "" when
/// disabled), and the summary gained "bundles"/"bundle_failures".
/// v3: the config echo gained "corpus_files"/"corpus_skipped" (multi-file
/// corpus loading) and the volatile section gained "survivability"
/// (watchdog timeouts, interrupted flag) — timeouts are wall-clock- or
/// budget-dependent in different modes, so they never enter the
/// deterministic section.
/// v4: the deterministic section gained "feedback" (enabled flag, epoch
/// length, epoch/coverage counters, per-rule fire table, final family
/// weights). Feedback state is merged at epoch barriers in worker order,
/// so the whole block is worker-count independent.
/// v5: the volatile section gained "trace" (flight-recorder ring
/// overwrites, total plus per-track) — ring overflow depends on capacity
/// and scheduling, never on the seed range, so the block is volatile by
/// construction.
/// v6: both sections gained "profile" (-profile cost attribution). The
/// deterministic side carries the merged top-K most-expensive-query table
/// — solver counters are a pure function of the canonical query key, and
/// the worker-order merge of per-worker trackers is exact (Profiler.h),
/// so -j1 == -jN holds. The volatile side carries the wall-clock split
/// per query, the sampling-profiler collapsed stacks and the shared-cache
/// shard heat. Both report {"enabled": false} when profiling is off.
/// v7: the volatile "survivability" block gained the degradation ladder —
/// "degraded" flag, "fanout" (supervised child count, 0 when off), and
/// "lost_shards" (exact per-shard lost-iteration accounting when a
/// supervised lease exhausted its retry budget) — and the volatile
/// section gained "fault_injection" (per-point call/trigger counters for
/// every armed -inject-fault point; {"armed": false} in production).
/// Lost work and injected faults are scheduling artifacts by definition,
/// so none of this can enter the deterministic section.
/// v8: the volatile profile's "sampling" block (interval, sample count,
/// sampled stacks) became "spans": {"stacks": [{"stack", "self_us"}]},
/// the exact self time folded per span stack under "w<i>;" roots.
/// "cache_shards" is empty under -fanout.
/// v9: each "stats" block carries "counters" only, plus "histograms" in
/// the volatile section; a third, always-empty object was dropped.
/// v10: the volatile profile lost "cache_shards": the shared verdict cache
/// is one LRU behind one lock, and its hits, misses and evictions are the
/// volatile "cache" block.
/// v11: "timeouts" moved from the volatile "survivability" block into the
/// deterministic "summary": the step budget is the only watchdog, and it
/// trips at the same point for the same seed. Timeout bundles count in
/// "bundles"/"bundle_failures" like every other bundle.
/// v12: each deterministic profile query carries "vars" and "clauses",
/// the size of the formula its solver received (0 when concrete-only).
constexpr unsigned RunReportSchemaVersion = 12;

/// Report metadata that is not part of FuzzStats or the registry.
struct RunReportConfig {
  /// "alive-mutate", "bench_campaign", ...
  std::string Tool;
  std::string Passes;
  uint64_t Iterations = 0;
  uint64_t BaseSeed = 0;
  unsigned MaxMutationsPerFunction = 0;
  /// Corpus files merged into the campaign module (deterministic: depends
  /// only on the command line and file contents).
  unsigned CorpusFiles = 1;
  /// Corpus files skipped as empty/unreadable/unparseable.
  unsigned CorpusSkipped = 0;
  /// Feedback-directed scheduling echo (deterministic: part of the
  /// campaign's identity, like the seed).
  bool FeedbackOn = false;
  unsigned FeedbackEpochLength = 0;
  /// Worker count (volatile section: -j4 vs -j1 reports must only differ
  /// there).
  unsigned Jobs = 1;
  /// Engine wall clock (volatile).
  double WallSeconds = 0;
  /// Campaign stopped before finishing its seed range (volatile; a resumed
  /// run that completes reports false).
  bool Interrupted = false;
  /// The degradation ladder (volatile): true when the campaign finished
  /// with known-lost work — a supervised shard exhausted its retry budget,
  /// or artifact writing was disabled after ENOSPC.
  bool Degraded = false;
  /// Supervised fan-out child count (-fanout; 0 when off).
  unsigned FanOut = 0;
  /// Exact lost-work accounting: (shard index, iterations never run)
  /// for every permanently-lost supervised lease.
  std::vector<std::pair<unsigned, uint64_t>> LostShards;
  /// Flight-recorder ring overwrites per track ((track name, dropped
  /// count) pairs; empty when tracing was off). Volatile: how many events
  /// a fixed-capacity ring overwrote depends on scheduling, not the seeds.
  std::vector<std::pair<std::string, uint64_t>> TraceDropped;
};

/// Writes the full JSON run report to \p OS. \p Profile may be null (or
/// disabled): both profile blocks then collapse to {"enabled": false}.
void writeRunReport(std::ostream &OS, const RunReportConfig &Config,
                    const FuzzStats &Stats,
                    const std::vector<BugRecord> &Bugs,
                    const StatRegistry &Registry,
                    const CampaignProfile *Profile = nullptr);

/// Writes the report to \p Path. \returns false (and fills \p Error) when
/// the file cannot be written.
bool writeRunReportFile(const std::string &Path,
                        const RunReportConfig &Config, const FuzzStats &Stats,
                        const std::vector<BugRecord> &Bugs,
                        const StatRegistry &Registry, std::string &Error,
                        const CampaignProfile *Profile = nullptr);

} // namespace alive

#endif // CORE_RUNREPORT_H
