//===- core/CampaignEngine.h - Parallel sharded campaign engine -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine: runs the mutate -> optimize -> verify loop over the
/// seed range [BaseSeed, BaseSeed+Iterations) on one of two paths.
///
/// Threads (the default). J worker threads, each owning a private
/// FuzzerLoop — its own clone of the master module, its own
/// RandomGenerator stream, PassManager, bug-injection context view and
/// FuzzStats — so workers share nothing mutable and never synchronize on
/// the hot path. One epoch loop serves every thread campaign:
///   - blind: a single epoch over the whole range; each worker's slice is
///     the static contiguous partition, and the campaign can stop and
///     checkpoint at any iteration boundary;
///   - feedback: epochs of Feedback.EpochLength offsets, each sliced
///     afresh; at the barrier the coverage deltas merge and the schedule
///     is recomputed, and stops and checkpoints happen only there;
///   - time-limited (Iterations == 0): a single unbounded epoch in which
///     workers draw offsets from a shared counter until the budget runs
///     out. The mutant count then depends on scheduling, but every
///     reported bug is still reproducible from its logged seed.
///
/// Processes (Survival.Fanout). Shard leases run in forked children under
/// core/Supervisor: optional RLIMIT_AS/RLIMIT_CPU, heartbeat deadlines,
/// backoff restarts, crash attribution (a seed that repeatedly kills its
/// child becomes a recorded crash bug and is skipped) and exact lost-work
/// accounting. Children hand their results back through the checkpoint
/// files; the parent stays single-threaded.
///
/// Determinism: one iteration's outcome depends only on its seed and the
/// schedule frozen at its epoch's start (each iteration clones the master
/// afresh and reseeds the PRNG), so merging worker results in worker order
/// and sorting the bug list by seed yields a report byte-identical to the
/// sequential run, on either path. A fresh feedback schedule consumes the
/// RNG stream exactly like blind. Each worker loop owns a private TVCache;
/// a hit replays the byte-identical verdict the checker would recompute,
/// so only the hit/miss split varies with the worker count. With
/// -shared-tv-cache the engine instead owns one process-wide SharedTVCache
/// that every worker queries on canonicalized keys, so the same argument
/// holds across workers. Under -fanout that cache is per child after the
/// fork (copy-on-write pages). The §III-A self-check/preprocessing pass
/// runs exactly once, on the master module; workers inherit the surviving
/// function set.
///
/// Flag coherence is checked once, in the constructor: configError() names
/// the first incoherent combination before any module is loaded.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_CAMPAIGNENGINE_H
#define CORE_CAMPAIGNENGINE_H

#include "core/FuzzerLoop.h"
#include "core/Observability.h"
#include "support/Timer.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alive {

/// A snapshot handed to the progress callback by the reporter thread.
struct CampaignProgress {
  uint64_t Done = 0;     ///< iterations completed so far, all workers
  uint64_t Target = 0;   ///< total iterations (0 when time-limited)
  double Elapsed = 0;    ///< seconds since run() started
  unsigned Workers = 0;  ///< number of worker threads
  double Rate = 0;       ///< iterations per second since run() started
  /// Estimated seconds to completion: from the rate for iteration-bounded
  /// campaigns, from the remaining budget for time-limited ones; negative
  /// when unknown (no completed iteration yet).
  double EtaSeconds = -1;
  /// Fraction of summed worker time spent per stage so far (0 when no
  /// stage time has been recorded yet). Shares sum to ~1.
  double MutateShare = 0;
  double OptimizeShare = 0;
  double VerifyShare = 0;
  double OverheadShare = 0;
};

/// Runs a fuzzing campaign across J worker threads with a deterministic
/// merge. With Jobs == 1 the result is identical to a plain FuzzerLoop run
/// (minus wall-clock); with Jobs == N the bug set stays byte-identical.
class CampaignEngine {
public:
  /// \p Jobs worker threads (0 is clamped to 1).
  explicit CampaignEngine(const FuzzOptions &Opts, unsigned Jobs = 1);
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine &) = delete;
  CampaignEngine &operator=(const CampaignEngine &) = delete;

  /// Non-empty when the configuration is unusable: a bad pipeline or an
  /// incoherent flag combination (set by the constructor), or a resume
  /// that does not match its checkpoint (set by run()). An engine with a
  /// config error refuses to run.
  const std::string &configError() const { return ConfigError; }

  unsigned jobs() const { return Jobs; }

  /// Takes ownership of the master module and preprocesses it once
  /// (§III-A self-check included). \returns the testable function count.
  unsigned loadModule(std::unique_ptr<Module> M);

  /// Names of functions that survived preprocessing.
  std::vector<std::string> testableFunctions() const;

  /// Installs a progress reporter: while run() executes, a monitor thread
  /// invokes \p Fn every \p IntervalSeconds (<= 0 disables reporting).
  void setProgress(double IntervalSeconds,
                   std::function<void(const CampaignProgress &)> Fn);

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
  /// (requestStop / stopAfterIterations). Resume with Survival.Resume.
  bool interrupted() const { return Interrupted; }

  /// Non-fatal -fanout incident log ("" when clean): leases lost after
  /// exhausting their retries, or harvest failures. The campaign still
  /// completes with every other shard's results.
  const std::string &fanoutIncidents() const { return FanoutIncidents; }

  /// True when the last run() permanently lost at least one shard lease
  /// (-fanout: retry budget exhausted or results unwritable). The run
  /// report then carries `degraded: true` with exact lost-shard
  /// accounting, and /healthz turns 503 — a lost shard is never a silent
  /// gap in the merged results.
  bool degraded() const { return DegradedFlag; }

  /// (shard index, lost iteration count) for every permanently lost
  /// lease of the last run, in shard order. Empty when not degraded.
  const std::vector<std::pair<unsigned, uint64_t>> &lostShards() const {
    return LostShardsV;
  }

  const FuzzStats &stats() const { return Stats; }
  const std::vector<BugRecord> &bugs() const { return Bugs; }

  /// The merged telemetry of the finished campaign: master preprocessing
  /// plus every worker registry, merged with the commutative rules
  /// (counters/buckets sum, gauges max) — so the deterministic class of
  /// stats is byte-identical for every worker count.
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

  /// Attaches the campaign-event stream: workers and the engine push
  /// bug-found / epoch-barrier / checkpoint / shard-restart instants into
  /// \p Q (bounded, drop-on-full — a slow observer never stalls the
  /// campaign). Call before run(); pass nullptr to detach.
  void setEventQueue(CampaignEventQueue *Q) { Events = Q; }

  /// A point-in-time observer view of the campaign: per-shard progress,
  /// merged registry snapshot, feedback state. Safe to call from any
  /// thread at any time — before, during and after run(). Strictly
  /// read-side (see Observability.h): it never perturbs the deterministic
  /// report.
  CampaignLiveSnapshot liveSnapshot() const;

  /// Per-track flight-recorder ring overwrites of the finished campaign
  /// ((track name, dropped count) pairs; empty when tracing was
  /// off). Feeds the run report's volatile "trace" block.
  std::vector<std::pair<std::string, uint64_t>> traceDropped() const;

  /// The finished campaign's cost-attribution profile (Opts.Profile):
  /// deterministic merged top-K queries plus the volatile sampling folds
  /// and cache shard heat. Enabled=false when profiling was off.
  const CampaignProfile &profile() const { return Profile; }

  /// A point-in-time profile for the live endpoints (/profile.json,
  /// /flamegraph.json): mid-run it snapshots the live workers' trackers
  /// and the sampler's current folds; after run() it returns the final
  /// merged profile. Safe from any thread, like liveSnapshot().
  CampaignProfile profileSnapshot() const;

private:
  /// The thread path: one epoch loop for blind, feedback and time-limited
  /// campaigns (see the file comment). Under feedback, every worker runs a
  /// static contiguous slice of each epoch under the schedule frozen at
  /// its start; at the barrier the coverage deltas merge in worker-index
  /// order (bitwise OR — commutative and associative, so the cumulative
  /// map is partition-independent) and the schedule is recomputed as a
  /// pure function of the cumulative maps. Sets ConfigError and returns
  /// early, before any worker thread starts, when resume state is invalid.
  void runThreads(const std::vector<std::string> &Testable, Timer &Total);

  /// The process path (Survival.Fanout): shard leases under a
  /// core/Supervisor control loop — heartbeat deadlines, retry with
  /// bounded exponential backoff, retry-then-skip crash attribution and
  /// lost-shard degradation accounting. The merged deterministic section
  /// is byte-identical to -j1 whenever no lease ends Lost.
  void runSupervised(const std::vector<std::string> &Testable, Timer &Total);

  /// Pins the campaign identity in \p Dir: writes meta.json for a fresh
  /// campaign, or verifies a resumed one against it. \p Shards is the
  /// effective worker (or lease) count. \returns false with ConfigError
  /// set on a mismatch or write failure.
  bool pinCheckpointIdentity(const std::string &Dir, unsigned Shards);

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
  std::atomic<uint64_t> TotalDone{0};
  bool Interrupted = false;
  std::string FanoutIncidents;
  /// Degradation state of the last -fanout run (degraded()/lostShards()).
  /// Atomic: run() resets it while a live observer's liveSnapshot() reads.
  std::atomic<bool> DegradedFlag{false};
  std::vector<std::pair<unsigned, uint64_t>> LostShardsV;
  /// Preprocesses once, serves testableFunctions() and makeMutant();
  /// never iterates itself.
  std::unique_ptr<FuzzerLoop> MasterLoop;
  /// The process-wide canonicalized verdict cache (-shared-tv-cache);
  /// null unless enabled. Created once here and handed to every worker
  /// via FuzzOptions::SharedCache.
  std::unique_ptr<SharedTVCache> SharedCache;
  double ProgressInterval = 0;
  std::function<void(const CampaignProgress &)> ProgressFn;
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
  /// The wall-clock sampler, alive only while workers run (guarded by
  /// LiveM for profileSnapshot()); its folds are moved into Profile at
  /// teardown.
  std::unique_ptr<SamplingProfiler> Sampler;
  /// Merges worker trackers (worker order) + sampler folds + shard heat
  /// into Profile after a run path joins its workers.
  void finishProfile(const std::vector<const QueryCostTracker *> &Trackers);
  /// That merge as a value (finishProfile and live snapshots share it).
  /// Caller holds LiveM.
  CampaignProfile
  mergedProfile(const std::vector<const QueryCostTracker *> &Trackers) const;

  // --- Live observability plane (observer-only; see Observability.h) ---

  /// One live shard as registered by a run path: borrowed pointers into
  /// run()-scoped worker state (or the -fanout heartbeat page). Valid
  /// only while registered — endLive() revokes them before the owners die.
  struct LiveShardRef {
    unsigned Index = 0;
    uint64_t Lo = 0, Hi = 0;
    const std::atomic<uint64_t> *Done = nullptr;
    /// The worker's loop, for registry/trace/stage-time reads; null for
    /// -fanout shards (their state lives in another process, and the
    /// heartbeat page carries no stage split).
    const FuzzerLoop *Loop = nullptr;
  };

  /// Opens the live window: run() is now between setup and join.
  void beginLive(bool Isolated, uint64_t Target, unsigned Workers,
                 const Timer *Clock);
  void addLiveShard(LiveShardRef R);
  /// Publishes feedback-barrier state to observers (engine thread only).
  void publishFeedbackLive(uint64_t Epochs, unsigned Bits,
                           const ScheduleState &Schedule);
  /// Closes the live window and revokes every shard ref. Idempotent —
  /// the run paths call it explicitly before borrowed state dies, and a
  /// scope guard repeats it on every exit path.
  void endLive();
  /// Streams one campaign event (no-op without a queue; never blocks).
  void emitEvent(CampaignEvent::Kind K, uint64_t Seed, unsigned Shard,
                 std::string Detail);

  CampaignEventQueue *Events = nullptr;
  /// Guards everything below it; liveSnapshot() copies out under it.
  mutable std::mutex LiveM;
  struct LiveState {
    bool Running = false;
    bool Isolated = false;
    uint64_t Target = 0;
    unsigned Workers = 0;
    const Timer *Clock = nullptr;
    std::vector<LiveShardRef> Shards;
    uint64_t FeedbackEpochs = 0;
    unsigned FeedbackBits = 0;
    std::vector<std::pair<std::string, uint32_t>> FamilyWeights;
  } Live;
  /// run() has completed at least once: snapshots switch from the master
  /// registry to the final merged one.
  bool HasRun = false;
};

} // namespace alive

#endif // CORE_CAMPAIGNENGINE_H
