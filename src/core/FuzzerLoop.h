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

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace alive {

struct JSONValue;

/// The -fanout supervisor's one policy (core/Supervisor). Every field
/// has the campaign default; only tests shorten them.
struct SupervisorConfig {
  /// Child deaths (or failed forks) a lease survives before it is
  /// declared lost. Progress (a cursor ahead of where it stood at the
  /// previous death) resets the count, so only a lease dying in place
  /// runs out.
  unsigned RestartBudget = 5;
  /// Backoff before the first restart; it doubles per consecutive death.
  double FirstDelaySeconds = 0.05;
  /// A running lease whose beat tick stalls this long is a wedge suspect
  /// (killed unless it burned CPU meanwhile). <= 0 disables the check.
  double HeartbeatSeconds = 30;
};

/// Campaign-survivability tunables (crash containment, watchdog,
/// checkpoint/resume). Everything here defaults to off so the
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
  /// Contain SIGABRT/SIGFPE/SIGSEGV/... raised inside the optimizer
  /// pipeline in-process (SignalGuard.h) and record them as crash bugs.
  /// Off by default: amut-opt and unit tests rely on genuine aborts.
  bool SignalGuard = false;
  /// Multi-process supervised fan-out (-fanout): partition the campaign
  /// into this many shard leases, each a forked child under heartbeat,
  /// restart-with-backoff and lost-shard supervision (core/Supervisor).
  /// 0 = off. Consumed by the campaign engine.
  unsigned Fanout = 0;
  /// The -fanout supervisor's policy. Not on the command line.
  SupervisorConfig Supervision;
  /// Checkpoint directory ("" = checkpointing off). Consumed by the
  /// campaign engine.
  std::string CheckpointDir;
  /// Iterations between checkpoints (engine-level, no flag; 0 = 64).
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
  /// Deadline in seconds (-t); with Iterations, whichever comes first.
  /// run() also cuts short the query that is running when it passes.
  double TimeLimitSeconds = 0;
  /// Base PRNG seed; mutant i uses seed BaseSeed + i.
  uint64_t BaseSeed = 1;
  /// Mutation tunables.
  MutationOptions Mutation;
  /// Translation-validation tunables. TV.Token is owned by the loop: the
  /// constructor points it at the loop's watchdog token when one is armed
  /// (any caller-set value is overwritten).
  TVOptions TV;
  /// Survivability tunables (watchdog, signal guard; the
  /// fanout/checkpoint fields are consumed by the campaign engine).
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
  /// (volatile section). Off: each loop owns a private cache keyed on the
  /// raw printed pair.
  bool UseSharedTVCache = false;
  /// The loop's verdict cache. Callers set it only with UseSharedTVCache:
  /// the campaign engine creates one shared cache and points every worker
  /// here. Otherwise the loop points it at a private cache of its own.
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
  /// Cost-attribution profiling (-profile): per-query solver cost tracker
  /// plus the recorder's span folds. Enabling it implicitly attaches a
  /// flight recorder (span sites feed both).
  ProfileOptions Profile;
};

/// One member of the campaign config record: its key and its JSON text.
using ConfigField = std::pair<std::string, std::string>;

/// The campaign config record, its one writer: the settings that decide
/// what an iteration does, in record order. A bug bundle's manifest echoes
/// it for -replay; a checkpoint's meta.json pins it for -resume. Keys:
/// passes, max_mutations_per_function, value_source, enabled_kinds, tv,
/// skip_unchanged, step_budget, injected_bugs, feedback, epoch_length (0
/// with feedback off) and canonical_pairs (the checker ran on
/// canonicalized pairs: UseSharedTVCache with the cache on).
std::vector<ConfigField> campaignConfig(const FuzzOptions &O);

/// The one reader: sets \p O from a record. A missing key leaves its field
/// as it is, so an older record read into fresh options gets the defaults.
void readCampaignConfig(const JSONValue &J, FuzzOptions &O);

/// Writes \p Fields as a JSON object, members at indent \p Ind.
void writeConfigObject(std::ostream &OS, const std::vector<ConfigField> &Fields,
                       const std::string &Ind);

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
  /// Forensics bundles written / lost to I/O errors, timeout bundles
  /// included.
  uint64_t BundlesWritten = 0;
  uint64_t BundleFailures = 0;
  /// Iterations (or per-function refinement checks) the step budget cut
  /// short. Deterministic per seed and budget.
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

/// One FuzzStats member and its checkpoint key.
template <typename T> struct FuzzStatsField {
  const char *Name;
  T FuzzStats::*Member;
};

/// Every FuzzStats field, once: the checkpoint writer and reader and the
/// engine's merge walk these lists, so a new field is added here only.
/// The order is the checkpoint's key order.
inline constexpr FuzzStatsField<uint64_t> FuzzStatsCounters[] = {
    {"mutants_generated", &FuzzStats::MutantsGenerated},
    {"mutations_applied", &FuzzStats::MutationsApplied},
    {"optimized", &FuzzStats::Optimized},
    {"verified", &FuzzStats::Verified},
    {"verify_skipped", &FuzzStats::VerifySkipped},
    {"tv_cache_hits", &FuzzStats::TVCacheHits},
    {"tv_cache_misses", &FuzzStats::TVCacheMisses},
    {"tv_cache_evictions", &FuzzStats::TVCacheEvictions},
    {"refinement_failures", &FuzzStats::RefinementFailures},
    {"crashes", &FuzzStats::Crashes},
    {"inconclusive", &FuzzStats::Inconclusive},
    {"functions_dropped", &FuzzStats::FunctionsDropped},
    {"invalid_mutants", &FuzzStats::InvalidMutants},
    {"mutants_saved", &FuzzStats::MutantsSaved},
    {"save_failures", &FuzzStats::SaveFailures},
    {"bundles_written", &FuzzStats::BundlesWritten},
    {"bundle_failures", &FuzzStats::BundleFailures},
    {"timeouts", &FuzzStats::Timeouts},
};
inline constexpr FuzzStatsField<double> FuzzStatsSeconds[] = {
    {"mutate_seconds", &FuzzStats::MutateSeconds},
    {"optimize_seconds", &FuzzStats::OptimizeSeconds},
    {"verify_seconds", &FuzzStats::VerifySeconds},
    {"overhead_seconds", &FuzzStats::OverheadSeconds},
    {"worker_seconds", &FuzzStats::WorkerSeconds},
    {"total_seconds", &FuzzStats::TotalSeconds},
};

/// Credits the part of \p S's WorkerSeconds that no stage timer claimed
/// (loop bookkeeping between iterations) to OverheadSeconds, so the stage
/// sum meets WorkerSeconds exactly.
void settleOverhead(FuzzStats &S);

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

  /// Records \p Seed, whose optimizer run killed its -fanout child, as a
  /// crash bug without running the optimizer again: the mutate stage is
  /// replayed (under a signal guard) with runIteration's accounting, then
  /// recordCrash() logs the bug with \p Detail.
  void recordKilledSeed(uint64_t Seed, std::string Detail);

  /// The forensic records of the most recent runIteration (cleared on
  /// entry): one per non-Correct outcome, in discovery order. Collected
  /// always — bundle writing persists them, -replay compares against
  /// them.
  const std::vector<ForensicRecord> &lastOutcomes() const { return Outcomes; }

  /// The loop's flight recorder (null unless Opts.TraceEnabled or
  /// Opts.Profile.Enabled).
  TraceRecorder *trace() { return Trace.get(); }
  const TraceRecorder *trace() const { return Trace.get(); }

  /// Transfers recorder ownership — the campaign engine collects worker
  /// tracks after the join, outliving the workers themselves.
  std::unique_ptr<TraceRecorder> takeTrace() { return std::move(Trace); }

  /// Non-empty when the bundle directory could not be created: recorded
  /// once; each lost bundle still counts in BundleFailures.
  const std::string &bundleError() const { return BundleError; }

  const FuzzStats &stats() const { return Stats; }
  const std::vector<BugRecord> &bugs() const { return Bugs; }

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
  /// the join.
  QueryCostTracker *queryCosts() { return QueryCosts.get(); }
  const QueryCostTracker *queryCosts() const { return QueryCosts.get(); }

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
  /// The mutate stage of runIteration: the mutant of \p Seed, with its
  /// timer, trace span and mutation counters.
  std::unique_ptr<Module> mutateStage(uint64_t Seed,
                                      MutationAttribution *Attr);
  void saveMutant(const Module &M, uint64_t Seed, bool Failing);
  /// Writes one forensics bundle (lazily regenerating the seed's trail)
  /// and returns its path ("" when disabled or failed, with accounting).
  std::string writeBundle(const ForensicRecord &R, const Module *Mutant,
                          const Module *Optimized);
  /// Records one non-Correct outcome: writes its bundle and appends \p FR
  /// to lastOutcomes(). With \p BugKind set it is also a bug, built from
  /// \p FR and \p MutantIR, and \p Mutant is saved as failing (once per
  /// seed). \returns the bundle path.
  std::string recordOutcome(ForensicRecord FR, const Module *Mutant,
                            const Module *Optimized,
                            std::optional<BugRecord::RecordKind> BugKind = {},
                            std::string MutantIR = {});
  /// Records one watchdog timeout: its counters and a Timeout forensic
  /// record (plus bundle). \p Function names the refinement check that
  /// was cut, or is empty outside the verify stage.
  void recordTimeout(uint64_t Seed, const std::string &Function,
                     const char *Phase, const Module *Mutant,
                     const Module *Optimized);
  /// Records one optimizer crash of \p Source — a simulated OptimizerCrash,
  /// a fatal signal contained by the in-process guard, or a seed that
  /// killed its -fanout child (\p Source null when its mutant could not be
  /// regenerated): the crash counters, then recordOutcome(). \p TraceTag
  /// labels the trace instant.
  void recordCrash(uint64_t Seed, const Module *Source, std::string Detail,
                   std::string IssueId, const std::string &TraceTag);

  FuzzOptions Opts;
  /// The pipeline under test, built once at construction (§III-C).
  PassManager PM;
  /// The iteration watchdog (armed when Survival configures a step
  /// budget; idle otherwise). Owned here so TV, the pass manager and the
  /// interpreter all share one token per worker.
  CancellationToken WatchdogToken;
  /// The loop's own verdict cache, behind Opts.SharedCache when
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
