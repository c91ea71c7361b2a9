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
///     range — the campaign config record, summary counters, the deterministic
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
/// v13: "config" is the campaign config record (campaignConfig, the one
/// bug bundles and checkpoints share) plus "iterations", "base_seed",
/// "corpus_files" and "corpus_skipped"; "seed" and "max_mutations" are
/// now "base_seed" and "max_mutations_per_function". The "feedback" block
/// lost its "enabled"/"epoch_length" copies (the record carries
/// "feedback"/"epoch_length") and is {} with feedback off.
constexpr unsigned RunReportSchemaVersion = 13;

/// Everything one run report says. CampaignEngine::runReport() fills it
/// from a finished campaign; a caller adds only what the engine cannot
/// know (the corpus counts).
struct RunReport {
  /// "alive-mutate", "bench_campaign", ...
  std::string Tool;
  /// The config echo: the campaign config record plus "iterations" and
  /// "base_seed" (the corpus counts below follow them).
  std::vector<ConfigField> Config;
  /// Corpus files merged into the campaign module, and those skipped as
  /// empty/unreadable/unparseable.
  unsigned CorpusFiles = 1;
  unsigned CorpusSkipped = 0;
  /// The merged stats; TotalSeconds is the report's wall clock.
  FuzzStats Stats;
  /// The bug list; the report's bug counts come from it, so a caller may
  /// report a filtered subset (bench_campaign's one-per-defect list).
  std::vector<BugRecord> Bugs;
  StatRegistry Registry;
  /// Both profile blocks collapse to {"enabled": false} when disabled.
  CampaignProfile Profile;
  /// Worker count (volatile: -j4 and -j1 reports differ only there).
  unsigned Jobs = 1;
  /// Campaign stopped before finishing its seed range (a resumed run that
  /// completes reports false).
  bool Interrupted = false;
  /// A supervised shard exhausted its retry budget.
  bool Degraded = false;
  /// Supervised fan-out child count (-fanout; 0 when off).
  unsigned FanOut = 0;
  /// (shard index, iterations never run) for every lost lease.
  std::vector<std::pair<unsigned, uint64_t>> LostShards;
  /// Flight-recorder ring overwrites per track ((track name, dropped
  /// count) pairs; empty when tracing was off).
  std::vector<std::pair<std::string, uint64_t>> TraceDropped;
};

/// Writes the full JSON run report to \p OS.
void writeRunReport(std::ostream &OS, const RunReport &R);

/// Writes the report to \p Path. \returns false (and fills \p Error) when
/// the file cannot be written.
bool writeRunReportFile(const std::string &Path, const RunReport &R,
                        std::string &Error);

} // namespace alive

#endif // CORE_RUNREPORT_H
