//===- core/CampaignEngine.h - Parallel sharded campaign engine -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine: runs the mutate -> optimize -> verify loop over the
/// seed range [BaseSeed, BaseSeed+Iterations) — or, without -n, over the
/// whole 64-bit offset space until the -t deadline — as one epoch loop with
/// two executors.
///
/// The epoch loop. J workers, each owning a private FuzzerLoop — its own
/// clone of the master module, its own RandomGenerator stream, PassManager,
/// bug-injection context view and FuzzStats — so workers share nothing
/// mutable and never synchronize on the hot path. Each epoch is sliced into
/// J contiguous shares, one per worker (campaignSlice):
///   - blind: a single epoch over the whole range, so a worker's slice is
///     its static partition; the campaign can stop and checkpoint at any
///     iteration boundary;
///   - feedback: epochs of Feedback.EpochLength offsets, each sliced
///     afresh; at the barrier the coverage deltas merge and the schedule
///     is recomputed, and stops and checkpoints happen only there.
/// One stop rule covers every campaign: a stop request (SIGINT/SIGTERM),
/// the stopAfterIterations test hook or the -t deadline. Partition, resume
/// validation, checkpoint cadence, the stop rule, the barrier and the
/// worker-order final merge exist once, for both executors.
///
/// Executors. Threads (the default, -j) run every worker's slice in place.
/// Under Survival.Fanout a core/Supervisor forks one child per slice
/// instead, with heartbeat deadlines, backoff restarts and crash
/// attribution (a seed that repeatedly kills its child is skipped, and the
/// next child records it through FuzzerLoop::recordKilledSeed). The child
/// is a copy-on-write copy of the parent's worker at the barrier: it runs
/// the same slice, checkpoints its shard (stats, bugs, counters, pending
/// coverage and -profile state) and exits, and the parent restores that
/// checkpoint into its worker before the barrier; the parent records no
/// result of its own. A lost lease is counted
/// exactly against its last readable checkpoint; it ends the campaign
/// degraded, and under feedback before that epoch's barrier, so the
/// checkpoint stays resumable. The parent never runs an iteration itself.
///
/// Progress: each worker's cursor (its next seed offset) is the one record
/// of how far the campaign got. Threads add one to the engine's done count
/// per iteration; -resume and -fanout derive it from the cursors (the
/// children store theirs in the supervisor's control page), so a restarted
/// child may move it back to its last checkpoint but never past -n.
/// liveSnapshot() reads only engine atomics.
///
/// Determinism: one iteration's outcome depends only on its seed and the
/// schedule frozen at its epoch's start (each iteration clones the master
/// afresh and reseeds the PRNG), so merging worker results in worker order
/// and sorting the bug list by seed yields a report byte-identical to the
/// sequential run, on either executor. A fresh feedback schedule consumes
/// the RNG stream exactly like blind. Each worker loop owns a private
/// SharedTVCache; a hit replays the byte-identical verdict the checker
/// would recompute, so only the hit/miss split varies with the worker
/// count. With -shared-tv-cache the engine instead owns one process-wide
/// cache that every worker queries on canonicalized keys, so the same
/// argument holds across workers. Under -fanout each child works on its
/// own copy of its worker's cache. The §III-A self-check/preprocessing
/// pass runs exactly once, on the master module; workers inherit the
/// surviving function set.
///
/// Flag coherence is checked once, in the constructor: configError() names
/// the first incoherent combination before any module is loaded.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_CAMPAIGNENGINE_H
#define CORE_CAMPAIGNENGINE_H

#include "core/FuzzerLoop.h"
#include "support/Timer.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace alive {

/// A point-in-time view of a running (or finished) campaign, produced by
/// CampaignEngine::liveSnapshot() and read by -progress. Every field is
/// copied out of the engine's relaxed atomics.
struct CampaignLiveSnapshot {
  bool Running = false;  ///< run() is currently between setup and join
  double Elapsed = 0;    ///< seconds since run() started
  uint64_t Done = 0;     ///< iterations completed, all workers
  /// The part of Done restored from a checkpoint by -resume: Done minus
  /// Restored is what this run has completed in Elapsed seconds.
  uint64_t Restored = 0;
  uint64_t Target = 0;   ///< planned iterations (0 = no -n: -t only)
  unsigned Workers = 0;
  /// This run's mutate/optimize/verify/overhead nanoseconds, summed over
  /// the worker threads (all 0 under -fanout, whose stage split lives in
  /// the children).
  uint64_t StageNanos[4] = {};
};

/// Worker \p I of \p J's share [Start + L*I/J, Start + L*(I+1)/J) of the L
/// offsets of the epoch [Start, min(Start + EpochLen, End)). 128-bit
/// products keep End = UINT64_MAX (no -n) from overflowing.
std::pair<uint64_t, uint64_t> campaignSlice(unsigned I, unsigned J,
                                            uint64_t Start, uint64_t EpochLen,
                                            uint64_t End);

/// Runs a fuzzing campaign across J workers with a deterministic
/// merge. With Jobs == 1 the result is identical to a plain FuzzerLoop run
/// (minus wall-clock); with Jobs == N the bug set stays byte-identical.
class CampaignEngine {
public:
  /// \p Jobs worker threads (0 is clamped to 1). Under -fanout the
  /// worker count is Opts.Survival.Fanout and \p Jobs is ignored.
  explicit CampaignEngine(const FuzzOptions &Opts, unsigned Jobs = 1);
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine &) = delete;
  CampaignEngine &operator=(const CampaignEngine &) = delete;

  /// Non-empty when the configuration is unusable: a bad pipeline or an
  /// incoherent flag combination (set by the constructor), or a resume
  /// that does not match its checkpoint (set by run()). An engine with a
  /// config error refuses to run.
  const std::string &configError() const { return ConfigError; }

  /// The worker count: threads, or -fanout's forked children.
  unsigned jobs() const { return Jobs; }

  /// Takes ownership of the master module and preprocesses it once
  /// (§III-A self-check included). \returns the testable function count.
  unsigned loadModule(std::unique_ptr<Module> M);

  /// Names of functions that survived preprocessing.
  std::vector<std::string> testableFunctions() const;

  /// Runs the campaign across the worker pool and merges the results.
  const FuzzStats &run();

  /// Asks the running campaign to stop at the next iteration boundary
  /// (the next epoch barrier under feedback; thread-safe; also honored by
  /// -fanout children via the shared control page). A checkpointing
  /// campaign writes a final snapshot first, so a stopped campaign is
  /// resumable.
  void requestStop() { StopReq.store(true, std::memory_order_relaxed); }

  /// Test hook: stop once \p N iterations have completed across all
  /// workers (0 = no early stop). Simulates a mid-campaign kill at a
  /// checkpointable boundary without signal plumbing.
  void stopAfterIterations(uint64_t N) {
    StopAfter.store(N, std::memory_order_relaxed);
  }

  /// True when the last run() ended before finishing its seed range
  /// (requestStop, stopAfterIterations, or -t cutting an -n campaign
  /// short; without -n the deadline is the end). Resume with
  /// Survival.Resume.
  bool interrupted() const { return Interrupted; }

  /// Non-fatal -fanout incident log ("" when clean): leases lost after
  /// exhausting their retries, or harvest failures. The campaign still
  /// completes with every other shard's results.
  const std::string &fanoutIncidents() const { return FanoutIncidents; }

  /// True when the last run() permanently lost at least one shard lease
  /// (-fanout: restart budget exhausted or results unwritable). The run
  /// report then carries `degraded: true` with exact lost-shard
  /// accounting, and alive-mutate exits 3 — a lost shard is never a
  /// silent gap in the merged results.
  bool degraded() const { return DegradedFlag; }

  /// (shard index, lost iteration count) for every permanently lost
  /// lease of the last run, in shard order. Empty when not degraded.
  const std::vector<std::pair<unsigned, uint64_t>> &lostShards() const {
    return LostShardsV;
  }

  const FuzzStats &stats() const { return Stats; }
  const std::vector<BugRecord> &bugs() const { return Bugs; }

  /// The merged telemetry of the finished campaign: master preprocessing
  /// plus every worker registry, merged with the commutative rule
  /// (counters and buckets sum) — so the deterministic class of stats is
  /// byte-identical for every worker count.
  const StatRegistry &registry() const { return Registry; }

  /// First worker's save-directory creation error, if any ("" when the
  /// directory came up fine). Reported once, engine-wide: every worker
  /// that hit it stopped retrying per-file writes.
  const std::string &saveDirError() const { return SaveDirError; }

  /// First worker's bundle-directory error, if any (same once-per-engine
  /// policy as saveDirError).
  const std::string &bundleError() const { return BundleError; }

  /// Writes the campaign's flight-recorder tracks — master preprocessing
  /// plus one per worker, all sharing one epoch — as Chrome trace-event
  /// JSON (loadable in Perfetto / about:tracing). Only meaningful after
  /// run() of a campaign with Opts.TraceEnabled; \returns false with
  /// \p Error filled on I/O failure or when no tracks were recorded.
  bool writeTrace(const std::string &Path, std::string &Error) const;

  /// Regenerates the mutant for \p Seed from the master module — the
  /// §III-E reproducibility path. Side-effect-free.
  std::unique_ptr<Module>
  makeMutant(uint64_t Seed,
             std::vector<std::string> *AppliedOut = nullptr) const;

  /// A point-in-time observer view of the campaign's progress. Safe to
  /// call from any thread at any time — before, during and after run().
  /// It reads only the engine's relaxed progress atomics, so it never
  /// perturbs the deterministic report.
  CampaignLiveSnapshot liveSnapshot() const;

  /// Per-track flight-recorder ring overwrites of the finished campaign
  /// ((track name, dropped count) pairs; empty when tracing was
  /// off). Feeds the run report's volatile "trace" block.
  std::vector<std::pair<std::string, uint64_t>> traceDropped() const;

  /// The finished campaign's cost-attribution profile (Opts.Profile):
  /// deterministic merged top-K queries plus the volatile span folds.
  /// Enabled=false when profiling was off.
  const CampaignProfile &profile() const { return Profile; }

private:
  /// The epoch loop behind every campaign (see the file comment): each
  /// worker runs a static contiguous slice of each epoch under the
  /// schedule frozen at its start, on a thread or in a supervised child;
  /// at a feedback barrier the coverage deltas merge in worker-index order
  /// (bitwise OR — commutative and associative, so the cumulative map is
  /// partition-independent) and the schedule is recomputed as a pure
  /// function of the cumulative maps. Sets ConfigError and returns early,
  /// before any worker thread or child starts, when resume state is
  /// invalid.
  void runEpochs(const std::vector<std::string> &Testable, Timer &Total);

  /// The final merged feedback state of a finished feedback campaign
  /// (used by -distill and the run report).
  FeedbackMap FinalFeedback;
  ScheduleState FinalSchedule;

public:
  const FeedbackMap &feedback() const { return FinalFeedback; }
  const ScheduleState &schedule() const { return FinalSchedule; }

private:

  FuzzOptions Opts;
  unsigned Jobs;
  std::string ConfigError;
  std::atomic<bool> StopReq{false};
  std::atomic<uint64_t> StopAfter{0};
  bool Interrupted = false;
  std::string FanoutIncidents;
  /// Degradation state of the last -fanout run (degraded()/lostShards()).
  bool DegradedFlag = false;
  std::vector<std::pair<unsigned, uint64_t>> LostShardsV;
  /// Preprocesses once, serves testableFunctions() and makeMutant();
  /// never iterates itself.
  std::unique_ptr<FuzzerLoop> MasterLoop;
  /// The process-wide canonicalized verdict cache (-shared-tv-cache);
  /// null unless enabled. Created once here and handed to every worker
  /// via FuzzOptions::SharedCache.
  std::unique_ptr<SharedTVCache> SharedCache;
  FuzzStats Stats;
  std::vector<BugRecord> Bugs;
  StatRegistry Registry;
  std::string SaveDirError;
  std::string BundleError;
  /// Flight-recorder tracks collected after the join (workers are
  /// destroyed with run()'s scope; their recorders live on here).
  std::vector<std::unique_ptr<TraceRecorder>> Traces;
  std::vector<std::string> TraceNames;
  /// The finished campaign's merged cost-attribution profile.
  CampaignProfile Profile;

  // --- Live progress: written by run(), read by liveSnapshot() ---

  /// Iterations completed. Worker threads add one per iteration; -fanout
  /// and -resume assign it from the workers' cursors (the one progress
  /// record, see runEpochs).
  std::atomic<uint64_t> TotalDone{0};
  /// The part of TotalDone a -resume restored.
  std::atomic<uint64_t> Restored{0};
  /// This run's stage nanoseconds; each thread adds its iteration's.
  std::atomic<uint64_t> StageNanos[4] = {};
  std::atomic<bool> Running{false};
  /// run()'s start on the steady clock, in its native ticks.
  std::atomic<std::chrono::steady_clock::rep> StartTicks{0};
};

} // namespace alive

#endif // CORE_CAMPAIGNENGINE_H
