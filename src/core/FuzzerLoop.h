//===- core/FuzzerLoop.h - In-process mutate/optimize/verify loop -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §III workflow, in one process: parse & preprocess (dropping
/// functions the validator cannot handle, §III-A), then loop: copy the
/// in-memory IR, mutate (§III-B), optimize (§III-C), refinement-check
/// (§III-D), discard and repeat (§III-E). Each mutant's PRNG seed is
/// logged so any mutant can be regenerated byte-for-byte; a mutant-saving
/// mode supports the slow-but-reproducible re-run workflow the paper
/// describes.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_FUZZERLOOP_H
#define CORE_FUZZERLOOP_H

#include "core/Feedback.h"
#include "core/Forensics.h"
#include "core/FunctionInfo.h"
#include "core/Mutator.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Profiler.h"
#include "tv/RefinementChecker.h"
#include "tv/SharedTVCache.h"

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace alive {

class CampaignEventQueue;

/// Campaign-survivability tunables (PR: crash containment, watchdog,
/// checkpoint/resume, quarantine). Everything here defaults to off so the
/// loop's baseline behavior — and the deterministic report section — is
/// unchanged unless a feature is explicitly enabled.
struct SurvivalOptions {
  /// Per-phase watchdog step budget (0 = no budget). Steps are abstract
  /// work units: one per pass-on-function invocation, one per solver
  /// conflict/decision, one per 64 interpreted instructions. The budget is
  /// re-armed at iteration start (covering mutate+optimize) and before
  /// each per-function refinement check, so budget trips are deterministic
  /// per seed even though the TV cache elides different checks per worker.
  uint64_t StepBudget = 0;
  /// Wall-clock backstop per iteration phase, in seconds (0 = off). Armed
  /// by the campaign engine's supervisor thread, not by the loop itself;
  /// inherently nondeterministic, so wall-clock timeouts are counted in
  /// volatile counters only.
  double WallTimeoutSeconds = 0;
  /// Contain SIGABRT/SIGFPE/SIGSEGV/... raised inside the optimizer
  /// pipeline in-process (SignalGuard.h) and record them as crash bugs.
  /// Off by default: amut-opt and unit tests rely on genuine aborts.
  bool SignalGuard = false;
  /// After this many watchdog timeouts on the same function's refinement
  /// check, back its checks off exponentially (0 = quarantine disabled).
  /// Per-worker state: enabling it can perturb the deterministic Verified
  /// count across worker counts — see DESIGN.md "Survivability".
  unsigned QuarantineThreshold = 0;
  /// RLIMIT_AS for -fanout children, in MiB (0 = inherit;
  /// -isolate-mem-mb).
  uint64_t IsolateMemMB = 0;
  /// RLIMIT_CPU for -fanout children, in seconds (0 = inherit;
  /// -isolate-cpu-s).
  uint64_t IsolateCpuSeconds = 0;
  /// Multi-process supervised fan-out (-fanout): partition the campaign
  /// into this many shard leases, each a forked child under heartbeat,
  /// retry-with-backoff and lost-shard supervision (core/Supervisor).
  /// 0 = off. Consumed by the campaign engine.
  unsigned Fanout = 0;
  /// Lease restart budget before a shard is declared lost (-retry-max).
  /// Checkpoint progress refills the budget.
  unsigned RetryMaxAttempts = 5;
  /// Bounded-exponential-backoff base delay between lease restarts, in
  /// seconds (-retry-base).
  double RetryBaseDelay = 0.05;
  /// Backoff cap, in seconds (-retry-cap).
  double RetryMaxDelay = 5.0;
  /// Wedge detector: a supervised child whose heartbeat tick stalls this
  /// long is killed and restarted (-lease-deadline; <= 0 disables).
  double LeaseHeartbeatSeconds = 30;
  /// Checkpoint directory ("" = checkpointing off). Consumed by the
  /// campaign engine.
  std::string CheckpointDir;
  /// Iterations between checkpoints (engine-level; 0 = default cadence).
  uint64_t CheckpointInterval = 0;
  /// Resume from CheckpointDir instead of starting fresh (engine-level).
  bool Resume = false;
};

/// Fuzzing configuration (mirrors alive-mutate's command line).
struct FuzzOptions {
  /// Pass pipeline to test ("O2", "instcombine", ...). Paper §III-C.
  std::string Passes = "O2";
  /// Number of mutants to generate (-n). 0 = unlimited (use TimeLimit).
  uint64_t Iterations = 1000;
  /// Wall-clock budget in seconds (-t). 0 = no limit.
  double TimeLimitSeconds = 0;
  /// Base PRNG seed; mutant i uses seed BaseSeed + i.
  uint64_t BaseSeed = 1;
  /// Mutation tunables.
  MutationOptions Mutation;
  /// Translation-validation tunables. TV.Token is owned by the loop: the
  /// constructor points it at the loop's watchdog token when one is armed
  /// (any caller-set value is overwritten).
  TVOptions TV;
  /// Survivability tunables (watchdog, signal guard, quarantine; the
  /// isolation/checkpoint fields are consumed by the campaign engine).
  SurvivalOptions Survival;
  /// Feedback-directed scheduling (rule coverage, seed energy, family
  /// weights). Off by default: the blind schedule — and its RNG stream —
  /// is then preserved bit-for-bit.
  FeedbackOptions Feedback;
  /// Directory for saving mutants ("" = do not save; fastest). §III-E.
  /// Created on first use if it does not exist.
  std::string SaveDir;
  /// Save every mutant (-saveAll) instead of only failing ones.
  bool SaveAll = false;
  /// Check every mutant with the verifier (validates the paper's "valid IR
  /// 100% of the time" claim; cheap).
  bool VerifyMutants = true;
  /// Run the §III-A translation-validation self-check during loadModule.
  /// The standalone mutator tool disables it (validation is the separate
  /// alive-tv step in the discrete pipeline).
  bool SelfCheckOnLoad = true;
  /// Skip the refinement check for functions no pass modified: the target
  /// is then byte-identical to the source, and identity refinement was
  /// already established by the load-time self-check. Escape hatch
  /// (-no-skip-unchanged) so the effect is measurable.
  bool SkipUnchanged = true;
  /// Entry capacity of the TV verdict cache — the loop's private one, or
  /// the process-wide shared one when UseSharedTVCache is set. 0 disables
  /// memoization entirely (-no-tv-cache).
  size_t TVCacheSize = TVCache::DefaultCapacity;
  /// Key the verdict cache on *canonicalized* pairs and share it across
  /// workers (-shared-tv-cache): structurally equal queries from any worker
  /// or mutation lineage share one verdict. On this path the checker runs
  /// on the canonical pair itself, so hits and fresh computations agree
  /// byte-for-byte and the deterministic report section stays -j
  /// independent; only the hit/miss counters are scheduling-dependent
  /// (volatile section). Off: each loop owns a one-shard cache keyed on the
  /// raw printed pair.
  bool UseSharedTVCache = false;
  /// The loop's verdict cache. Callers set it only with UseSharedTVCache:
  /// the campaign engine creates one shared cache and points every worker
  /// here. Otherwise the loop points it at a private one-shard cache of
  /// its own.
  SharedTVCache *SharedCache = nullptr;
  /// The seeded defects this campaign's compiler-under-test carries.
  /// Owned per campaign: concurrent campaigns cannot cross-contaminate.
  BugInjectionContext Bugs;
  /// When set, loadModule keeps exactly these functions (in module order)
  /// and skips the self-check — the campaign engine preprocesses once on
  /// the master module and hands each worker the surviving set.
  std::optional<std::vector<std::string>> OnlyFunctions;
  /// Directory for per-bug forensics bundles ("" = disabled). Every
  /// non-Correct outcome writes one self-contained bundle — manifest,
  /// original/mutant/optimized IR, applied-mutation trail, rendered
  /// counterexample, full config — replayable via alive-mutate -replay.
  /// Created on first use.
  std::string BugBundleDir;
  /// Attach a flight recorder to the loop: fixed-capacity ring of
  /// timestamped stage/family/pass spans, flushed as Chrome trace JSON.
  /// Near-zero cost when false (one pointer test per potential event).
  bool TraceEnabled = false;
  /// Event capacity of the ring; oldest events are overwritten when the
  /// campaign outruns it (flight-recorder semantics).
  size_t TraceCapacity = TraceRecorder::DefaultCapacity;
  /// Optional live campaign-event sink: every recorded bug pushes a
  /// bug-found instant (bounded queue, drop-on-full — the worker never
  /// blocks on a slow observer). Observer-only plumbing: consulted after
  /// the bug is already recorded, never on the deterministic path.
  CampaignEventQueue *Events = nullptr;
  /// This loop's worker/shard index, for attributing streamed events.
  unsigned WorkerIndex = 0;
  /// Cost-attribution profiling (-profile): per-query solver cost tracker
  /// plus the live span stack the sampling profiler reads. Enabling it
  /// implicitly attaches a flight recorder (span sites feed both).
  ProfileOptions Profile;
};

/// Which functions a mutant iteration actually mutated, and which
/// families fired — the attribution targets its coverage bitmap is
/// credited to.
struct MutationAttribution {
  std::vector<std::string> Functions;
  std::vector<MutationKind> Families;
};

/// One logged bug.
struct BugRecord {
  enum RecordKind { Miscompile, Crash };
  RecordKind Kind;
  std::string FunctionName;
  /// The PRNG seed that regenerates this mutant (paper §III-E).
  uint64_t MutantSeed;
  std::string Detail;
  /// For simulated crashes: the Table I issue id ("52884").
  std::string IssueId;
  /// Textual IR of the mutant module (captured on failure).
  std::string MutantIR;
  /// Path of this bug's forensics bundle ("" when bundle writing was
  /// disabled or the write failed). Cross-linked into the run report.
  std::string BundlePath;
};

/// Aggregated statistics of one campaign.
struct FuzzStats {
  uint64_t MutantsGenerated = 0;
  uint64_t MutationsApplied = 0;
  uint64_t Optimized = 0;
  /// Functions whose post-optimization verdict was established this
  /// campaign — via the checker or a cache hit, but not counting skips.
  uint64_t Verified = 0;
  /// Functions whose refinement check was skipped because the pipeline
  /// left them untouched. Deterministic per seed (unlike the cache
  /// counters, which depend on each worker's private history).
  uint64_t VerifySkipped = 0;
  /// TV verdict-cache traffic. Misses == actual checkRefinement calls
  /// when the cache is enabled. Hit/miss/eviction splits vary with the
  /// worker count (each worker warms its own cache); the verdicts — and
  /// therefore the bug report — do not.
  uint64_t TVCacheHits = 0;
  uint64_t TVCacheMisses = 0;
  uint64_t TVCacheEvictions = 0;
  uint64_t RefinementFailures = 0;
  uint64_t Crashes = 0;
  uint64_t Inconclusive = 0;
  uint64_t FunctionsDropped = 0;
  uint64_t InvalidMutants = 0; // must stay 0: the 100%-validity claim
  uint64_t MutantsSaved = 0;
  uint64_t SaveFailures = 0; // §III-E artifacts lost to I/O errors
  /// Forensics bundles written / lost to I/O errors. Timeout bundles are
  /// deliberately NOT counted here (they live in the volatile
  /// "survive.timeout.bundles" counter): wall-clock timeouts vary run to
  /// run, and this field feeds the deterministic report section.
  uint64_t BundlesWritten = 0;
  uint64_t BundleFailures = 0;
  /// Iterations (or per-function refinement checks) the watchdog cut
  /// short. Reported in the volatile section only: the wall-clock backstop
  /// makes this machine-dependent.
  uint64_t Timeouts = 0;
  double MutateSeconds = 0;
  double OptimizeSeconds = 0;
  double VerifySeconds = 0;
  /// Explicitly attributed non-stage time: module cloning, mutant
  /// validation, printing/saving, and loop bookkeeping. The invariant the
  /// run report asserts is MutateSeconds + OptimizeSeconds + VerifySeconds
  /// + OverheadSeconds == WorkerSeconds (within float tolerance) — the gap
  /// the old three-timer scheme left unattributed.
  double OverheadSeconds = 0;
  /// Summed worker loop wall time. Equal to TotalSeconds for a sequential
  /// run; for a -j N campaign it is the sum over workers (the denominator
  /// the stage-sum invariant holds against, unlike the engine's wall
  /// clock, which concurrent workers would overshoot N-fold).
  double WorkerSeconds = 0;
  double TotalSeconds = 0;
};

/// The in-process fuzzing engine.
///
/// The pass pipeline is built and validated exactly once, at construction:
/// an invalid Passes string is a hard configuration error (configError()),
/// never a silently-empty pipeline — and the per-iteration rebuild cost the
/// paper amortizes away is gone from the hot path.
class FuzzerLoop {
public:
  explicit FuzzerLoop(const FuzzOptions &Opts);
  ~FuzzerLoop();
  FuzzerLoop(const FuzzerLoop &) = delete;
  FuzzerLoop &operator=(const FuzzerLoop &) = delete;

  /// Non-empty when the configuration is unusable (unknown or empty pass
  /// pipeline, or — detected in run() — an unbounded campaign with neither
  /// an iteration count nor a time limit). A loop with a config error
  /// refuses to fuzz: run() and runIteration() are no-ops.
  const std::string &configError() const { return ConfigError; }

  /// Takes ownership of the module under test and preprocesses it:
  /// functions the validator cannot handle, or that fail their unmutated
  /// self-check, are dropped from the test list (paper §III-A).
  /// \returns the number of testable functions remaining.
  unsigned loadModule(std::unique_ptr<Module> M);

  /// The module under test (null before loadModule).
  const Module *module() const { return Master.get(); }

  /// Names of functions that survived preprocessing.
  std::vector<std::string> testableFunctions() const;

  /// Runs the campaign.
  const FuzzStats &run();

  /// Generates (only) the mutant module for \p Seed — the §III-E
  /// reproducibility path and the standalone-mutator building block.
  /// Side-effect-free: replaying a logged seed does not disturb the
  /// campaign's statistics.
  std::unique_ptr<Module>
  makeMutant(uint64_t Seed,
             std::vector<std::string> *AppliedOut = nullptr) const;

  /// As above, additionally recording the applied-mutation trail into
  /// \p TrailOut. Trail recording never consumes randomness, so the
  /// module is byte-identical to the untrailed regeneration.
  std::unique_ptr<Module> makeMutant(uint64_t Seed,
                                     MutationTrail &TrailOut) const;

  /// Runs one full mutate-optimize-verify iteration for \p Seed.
  void runIteration(uint64_t Seed);

  /// The forensic records of the most recent runIteration (cleared on
  /// entry): one per non-Correct outcome, in discovery order. Collected
  /// always — bundle writing persists them, -replay compares against
  /// them.
  const std::vector<ForensicRecord> &lastOutcomes() const { return Outcomes; }

  /// The loop's flight recorder (null unless Opts.TraceEnabled).
  TraceRecorder *trace() { return Trace.get(); }
  const TraceRecorder *trace() const { return Trace.get(); }

  /// Transfers recorder ownership — the campaign engine collects worker
  /// tracks after the join, outliving the workers themselves.
  std::unique_ptr<TraceRecorder> takeTrace() { return std::move(Trace); }

  /// Non-empty when the bundle directory could not be created: recorded
  /// once; each lost bundle still counts in BundleFailures.
  const std::string &bundleError() const { return BundleError; }

  /// True once bundle writing hit an out-of-space condition and was
  /// disabled for the rest of the run (the campaign keeps fuzzing; every
  /// elided bundle is counted under survive.degraded.bundle-skips).
  bool bundlesDegraded() const { return BundlesDegraded; }

  const FuzzStats &stats() const { return Stats; }
  const std::vector<BugRecord> &bugs() const { return Bugs; }

  /// The loop's watchdog token — non-null when a step budget or wall-clock
  /// backstop is configured. The campaign engine's supervisor thread reads
  /// the serial and CAS-cancels through this; everything else is
  /// loop-internal.
  CancellationToken *watchdog() {
    return WatchdogArmed ? &WatchdogToken : nullptr;
  }

  /// Checkpoint/resume support: overwrites the accumulated campaign state
  /// with a restored snapshot. Registry counters are restored separately
  /// through mutableRegistry() (latency histograms restart from zero — all
  /// volatile, so the deterministic report section is unaffected).
  void restoreState(const FuzzStats &S, std::vector<BugRecord> B) {
    Stats = S;
    Bugs = std::move(B);
  }
  StatRegistry &mutableRegistry() { return Registry; }

  /// Installs the epoch schedule (feedback mode). The engine owns the
  /// state and only mutates it while workers are joined; null restores
  /// the blind schedule.
  void setSchedule(const ScheduleState *S) { Schedule = S; }

  /// The coverage accumulated since the last takeFeedback() — the
  /// worker's epoch-local delta, merged by the engine in worker-index
  /// order at epoch boundaries (and snapshotted into checkpoints).
  const FeedbackMap &pendingFeedback() const { return PendingFB; }
  FeedbackMap takeFeedback() {
    FeedbackMap M = std::move(PendingFB);
    PendingFB.clear();
    return M;
  }
  void restoreFeedback(FeedbackMap M) { PendingFB = std::move(M); }

  /// The loop's telemetry registry: per-mutation-family, per-pass and
  /// per-TV-verdict counters plus stage/pass/query latency histograms.
  /// Private to this loop (share-nothing, like FuzzStats); the campaign
  /// engine merges worker registries after the join.
  const StatRegistry &registry() const { return Registry; }

  /// The per-worker top-K query cost tracker (null unless Opts.Profile is
  /// enabled). The engine merges worker trackers in worker order after
  /// the join; a live observer may snapshot it mid-run.
  const QueryCostTracker *queryCosts() const { return QueryCosts.get(); }

  /// Live per-stage wall seconds (mutate, optimize, verify, overhead): the
  /// sums of the stage.*.seconds histograms. Relaxed atomic reads, safe
  /// while the loop runs — the campaign engine's progress reporter and
  /// liveSnapshot() read them mid-run.
  std::array<double, 4> stageSeconds() const {
    return {HMutate->sum(), HOptimize->sum(), HVerify->sum(),
            HOverhead->sum()};
  }

  /// Non-empty when the save directory could not be created: the error is
  /// recorded once, here, and the loop stops attempting per-file writes
  /// into a directory that does not exist (each lost artifact still counts
  /// in SaveFailures).
  const std::string &saveDirError() const { return SaveDirError; }

private:
  std::unique_ptr<Module> makeMutantImpl(uint64_t Seed,
                                         std::vector<std::string> *AppliedOut,
                                         uint64_t &NumApplied,
                                         StatRegistry *Reg,
                                         MutationTrail *Trail = nullptr,
                                         TraceRecorder *TR = nullptr,
                                         MutationAttribution *Attr
                                         = nullptr) const;
  void saveMutant(const Module &M, uint64_t Seed, bool Failing);
  /// Writes one forensics bundle (lazily regenerating the seed's trail)
  /// and returns its path ("" when disabled or failed, with accounting).
  /// \p VolatileAccounting routes the written/failed counts to volatile
  /// registry counters instead of the deterministic FuzzStats fields —
  /// used for timeout bundles, which the wall-clock backstop makes
  /// nondeterministic.
  std::string writeBundle(const ForensicRecord &R, const Module *Mutant,
                          const Module *Optimized,
                          bool VolatileAccounting = false);
  /// Records one watchdog timeout: volatile counters, a Timeout forensic
  /// record (plus bundle), and a quarantine strike when \p Function names
  /// a refinement check.
  void recordTimeout(uint64_t Seed, const std::string &Function,
                     const char *Phase, const Module *Mutant,
                     const Module *Optimized);
  /// Records one optimizer crash of \p Source — a simulated OptimizerCrash
  /// or a fatal signal contained by the in-process guard: the crash
  /// counters, forensic and bug records, bundle, bug-found event
  /// \p EventSlug and failing-mutant save. \p TraceTag labels the trace
  /// instant.
  void recordCrash(uint64_t Seed, const Module &Source, std::string Detail,
                   std::string IssueId, const std::string &TraceTag,
                   const char *EventSlug);
  /// Streams a bug-found instant to Opts.Events (no-op when unset).
  /// Called after the bug is recorded; never blocks, never touches RNG.
  void noteBugEvent(uint64_t Seed, const char *Slug,
                    const std::string &Function);

  FuzzOptions Opts;
  /// The pipeline under test, built once at construction (§III-C).
  PassManager PM;
  /// The iteration watchdog (armed when Survival configures a step budget
  /// or a wall-clock backstop; idle otherwise). Owned here so TV, the
  /// pass manager and the interpreter all share one token per worker.
  CancellationToken WatchdogToken;
  bool WatchdogArmed = false;
  /// Per-function timeout quarantine (Survival.QuarantineThreshold > 0):
  /// strike counts and the seed until which the function's refinement
  /// checks are skipped.
  struct QuarantineState {
    unsigned Strikes = 0;
    uint64_t SkipUntilSeed = 0;
  };
  std::unordered_map<std::string, QuarantineState> Quarantine;
  /// The loop's own one-shard verdict cache, behind Opts.SharedCache when
  /// no shared cache was provided. Null when memoization is off or the
  /// engine's shared cache is in use.
  std::unique_ptr<SharedTVCache> OwnedCache;
  std::string ConfigError;
  bool SaveDirReady = false;
  std::string SaveDirError;
  std::unique_ptr<Module> Master;
  /// Preprocessed per-function info, by function name (level 2 of §III-B).
  std::vector<std::pair<std::string, std::unique_ptr<OriginalFunctionInfo>>>
      Preprocessed;
  FuzzStats Stats;
  std::vector<BugRecord> Bugs;
  /// Flight recorder (null when tracing is disabled — the spans then cost
  /// one pointer test each).
  std::unique_ptr<TraceRecorder> Trace;
  /// Non-Correct outcomes of the current/last iteration.
  std::vector<ForensicRecord> Outcomes;
  /// Per-worker top-K query cost tracker (null unless profiling).
  std::unique_ptr<QueryCostTracker> QueryCosts;
  std::string BundleError;
  /// Out-of-space degradation latch: set on the first ENOSPC-shaped
  /// bundle failure, after which writeBundle becomes a counted no-op.
  bool BundlesDegraded = false;
  /// Per-loop stat registry; cached histogram slots for the stage timers
  /// (set once in the constructor, so the hot loop never probes the map).
  StatRegistry Registry;
  Histogram *HMutate = nullptr;
  Histogram *HOptimize = nullptr;
  Histogram *HVerify = nullptr;
  Histogram *HOverhead = nullptr;
  Histogram *HIteration = nullptr;
  /// Feedback mode: the engine-owned epoch schedule (null = blind) and
  /// this worker's epoch-local coverage delta.
  const ScheduleState *Schedule = nullptr;
  FeedbackMap PendingFB;
};

} // namespace alive

#endif // CORE_FUZZERLOOP_H
