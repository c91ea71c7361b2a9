//===- core/CampaignEngine.cpp - Parallel sharded campaign engine ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"

#include "core/Checkpoint.h"
#include "core/Supervisor.h"
#include "parser/Printer.h"
#include "support/FaultPlane.h"
#include "support/SignalGuard.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

using namespace alive;

namespace {

/// The flag-coherence matrix: the first combination of options no run
/// path can honor, or "" when the configuration is coherent.
std::string coherenceError(const FuzzOptions &Opts) {
  const SurvivalOptions &SV = Opts.Survival;
  if (Opts.Iterations == 0 && Opts.TimeLimitSeconds <= 0)
    return "unbounded campaign: give -n=<count> or -t=<sec>";
  if (SV.Resume && SV.CheckpointDir.empty())
    return "-resume needs -checkpoint=<dir> naming the checkpoint directory "
           "of the interrupted campaign";
  if (Opts.TimeLimitSeconds > 0) {
    // A time budget has no reproducible seed schedule: no epoch to merge
    // at, no lease partition, no position to checkpoint. That includes -n
    // next to -t, where the bounded dispatch ignores the time limit.
    const char *Needs = Opts.Feedback.Enabled ? "-feedback"
                        : SV.Fanout           ? "-fanout"
                        : !SV.CheckpointDir.empty() ? "-checkpoint/-resume"
                                                    : nullptr;
    if (Needs)
      return std::string(Needs) +
             " needs an iteration-bounded campaign: replace -t=<sec> with "
             "-n=<count>";
  }
  if (SV.Fanout) {
    // Shard state lives in child processes the parent cannot epoch-merge,
    // trace or sample.
    if (Opts.Feedback.Enabled)
      return "-feedback cannot run with -fanout: supervised shards have no "
             "epoch barrier to merge coverage at";
    if (Opts.TraceEnabled)
      return "-trace-json cannot cross the -fanout process boundary: the "
             "flight recorder lives in shard memory";
    if (Opts.Profile.Enabled)
      return "-profile cannot cross the -fanout process boundary: the cost "
             "trackers and span stacks live in shard memory";
  }
  if (Opts.Feedback.Enabled && !Opts.BugBundleDir.empty())
    return "-feedback cannot run with -bug-bundles: bundle trails replay "
           "seeds without the schedule and would not match the failing "
           "mutant";
  return "";
}

} // namespace

CampaignEngine::CampaignEngine(const FuzzOptions &Opts, unsigned Jobs)
    : Opts(Opts), Jobs(std::max(1u, Jobs)) {
  // One cache for the whole campaign; every worker loop gets this pointer
  // through its copied FuzzOptions (without -shared-tv-cache each loop
  // makes its own). A caller-provided cache (Opts.SharedCache already set)
  // is kept instead, so one cache can outlive and span several engines —
  // the bench harness uses this to share verdicts across its per-file
  // campaigns.
  if (this->Opts.UseSharedTVCache && this->Opts.TVCacheSize > 0 &&
      !this->Opts.SharedCache) {
    SharedCache = std::make_unique<SharedTVCache>(this->Opts.TVCacheSize);
    this->Opts.SharedCache = SharedCache.get();
  }
  MasterLoop = std::make_unique<FuzzerLoop>(this->Opts);
  ConfigError = MasterLoop->configError();
  if (ConfigError.empty())
    ConfigError = coherenceError(this->Opts);
}

CampaignEngine::~CampaignEngine() = default;

unsigned CampaignEngine::loadModule(std::unique_ptr<Module> M) {
  // Preprocess (and §III-A self-check) once, on the master; workers
  // inherit the surviving function set instead of redoing the TV work —
  // and FunctionsDropped is counted exactly once, as in a sequential run.
  return MasterLoop->loadModule(std::move(M));
}

std::vector<std::string> CampaignEngine::testableFunctions() const {
  return MasterLoop->testableFunctions();
}

void CampaignEngine::setProgress(
    double IntervalSeconds, std::function<void(const CampaignProgress &)> Fn) {
  ProgressInterval = IntervalSeconds;
  ProgressFn = std::move(Fn);
}

std::unique_ptr<Module>
CampaignEngine::makeMutant(uint64_t Seed,
                           std::vector<std::string> *AppliedOut) const {
  return MasterLoop->makeMutant(Seed, AppliedOut);
}

bool CampaignEngine::writeTrace(const std::string &Path,
                                std::string &Error) const {
  if (Traces.empty()) {
    Error = "no trace recorded: campaign ran without tracing enabled";
    return false;
  }
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot write trace '" + Path + "'";
    return false;
  }
  std::vector<const TraceRecorder *> Tracks;
  for (const auto &T : Traces)
    Tracks.push_back(T.get());
  writeChromeTrace(Out, Tracks, TraceNames);
  Out.close();
  if (!Out) {
    Error = "I/O error writing trace '" + Path + "'";
    return false;
  }
  return true;
}

std::vector<std::pair<std::string, uint64_t>>
CampaignEngine::traceDropped() const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  for (size_t I = 0; I != Traces.size(); ++I)
    Out.emplace_back(I < TraceNames.size() ? TraceNames[I] : "",
                     Traces[I]->dropped());
  return Out;
}

void CampaignEngine::beginLive(bool Isolated, uint64_t Target,
                               unsigned Workers, const Timer *Clock) {
  std::lock_guard<std::mutex> Lock(LiveM);
  Live.Running = true;
  Live.Isolated = Isolated;
  Live.Target = Target;
  Live.Workers = Workers;
  Live.Clock = Clock;
  Live.Shards.clear();
  Live.FeedbackEpochs = 0;
  Live.FeedbackBits = 0;
  Live.FamilyWeights.clear();
}

void CampaignEngine::addLiveShard(LiveShardRef R) {
  std::lock_guard<std::mutex> Lock(LiveM);
  Live.Shards.push_back(std::move(R));
}

void CampaignEngine::publishFeedbackLive(uint64_t Epochs, unsigned Bits,
                                         const ScheduleState &Schedule) {
  std::lock_guard<std::mutex> Lock(LiveM);
  Live.FeedbackEpochs = Epochs;
  Live.FeedbackBits = Bits;
  Live.FamilyWeights.clear();
  for (size_t K = 0; K != Schedule.FamilyWeights.size(); ++K)
    Live.FamilyWeights.emplace_back(mutationKindName((MutationKind)K),
                                    Schedule.FamilyWeights[K]);
}

void CampaignEngine::endLive() {
  std::lock_guard<std::mutex> Lock(LiveM);
  if (Live.Running)
    HasRun = true;
  Live.Running = false;
  Live.Clock = nullptr;
  // Revoke the borrowed pointers: the workers (or the heartbeat page)
  // are about to be destroyed.
  Live.Shards.clear();
}

void CampaignEngine::emitEvent(CampaignEvent::Kind K, uint64_t Seed,
                               unsigned Shard, std::string Detail) {
  if (!Events)
    return;
  CampaignEvent E;
  E.K = K;
  E.Seed = Seed;
  E.Shard = Shard;
  E.Nanos = TraceRecorder::now();
  E.Detail = std::move(Detail);
  Events->push(std::move(E));
}

CampaignLiveSnapshot CampaignEngine::liveSnapshot() const {
  CampaignLiveSnapshot S;
  std::lock_guard<std::mutex> Lock(LiveM);
  S.Running = Live.Running;
  S.Isolated = Live.Isolated;
  S.Degraded = DegradedFlag;
  S.Workers = Live.Running ? Live.Workers : Jobs;
  S.Target = Live.Running ? Live.Target : Opts.Iterations;
  S.FeedbackEnabled = Opts.Feedback.Enabled;
  S.FeedbackEpochs = Live.FeedbackEpochs;
  S.FeedbackBits = Live.FeedbackBits;
  S.FamilyWeights = Live.FamilyWeights;
  if (Live.Running) {
    if (Live.Clock)
      S.Elapsed = Live.Clock->seconds();
    // Point-in-time, not linearizable: each shard's counters are relaxed
    // atomic loads, each registry snapshot is internally consistent
    // enough for monitoring (Telemetry.h documents the contract).
    S.Stats = MasterLoop->registry().snapshot();
    for (const LiveShardRef &R : Live.Shards) {
      ShardLiveState SS;
      SS.Index = R.Index;
      SS.Lo = R.Lo;
      SS.Hi = R.Hi;
      if (R.Done)
        SS.Done = R.Done->load(std::memory_order_relaxed);
      if (R.Loop) {
        std::array<double, 4> Stage = R.Loop->stageSeconds();
        for (unsigned I = 0; I != 4; ++I)
          SS.StageNanos[I] = (uint64_t)(Stage[I] * 1e9);
        SS.HasRegistry = true;
        S.Stats.merge(R.Loop->registry());
        if (const TraceRecorder *T = R.Loop->trace())
          SS.TraceDropped = T->dropped();
      }
      S.Done += SS.Done;
      S.Shards.push_back(std::move(SS));
    }
  } else {
    S.Done = TotalDone.load(std::memory_order_relaxed);
    // After a run: the final merged registry (every worker folded in).
    // Before the first: the master's preprocessing stats are all there is.
    S.Stats = HasRun ? Registry.snapshot() : MasterLoop->registry().snapshot();
  }
  return S;
}

CampaignProfile CampaignEngine::mergedProfile(
    const std::vector<const QueryCostTracker *> &Trackers) const {
  CampaignProfile P;
  P.Enabled = true;
  P.TopK = Opts.Profile.TopK;
  P.SamplingIntervalMs = Opts.Profile.SamplingIntervalMs;
  // Worker-order merge of the K-bounded trackers yields the exact global
  // top-K (Profiler.h has the proof sketch), so this block lands in the
  // report's deterministic section.
  QueryCostTracker Merged(Opts.Profile.TopK);
  for (const QueryCostTracker *T : Trackers)
    Merged.merge(*T);
  P.TopQueries = Merged.top();
  if (Sampler) {
    P.Collapsed = Sampler->collapsed();
    P.Samples = Sampler->samples();
  }
  if (SharedCache)
    P.CacheShards = SharedCache->shardHeat();
  return P;
}

void CampaignEngine::finishProfile(
    const std::vector<const QueryCostTracker *> &Trackers) {
  std::lock_guard<std::mutex> Lock(LiveM);
  if (Sampler)
    Sampler->stop();
  Profile = Opts.Profile.Enabled ? mergedProfile(Trackers) : CampaignProfile();
  Sampler.reset();
}

CampaignProfile CampaignEngine::profileSnapshot() const {
  std::lock_guard<std::mutex> Lock(LiveM);
  if (!Live.Running || !Opts.Profile.Enabled)
    return Profile;
  // Mid-run: the same merge over the live shards' trackers, a
  // point-in-time prefix of the final one.
  std::vector<const QueryCostTracker *> Trackers;
  for (const LiveShardRef &R : Live.Shards)
    if (R.Loop && R.Loop->queryCosts())
      Trackers.push_back(R.Loop->queryCosts());
  return mergedProfile(Trackers);
}

namespace {

/// One worker thread: a private FuzzerLoop over a private master-module
/// clone, plus the atomic counters the reporter thread reads.
struct Worker {
  std::unique_ptr<FuzzerLoop> Loop;
  unsigned Index = 0;
  /// The seed-offset range this worker's checkpoint covers: its static
  /// partition in a blind campaign, the whole range under feedback (every
  /// epoch is sliced afresh, so all cursors agree at each barrier), empty
  /// when time-limited.
  uint64_t Lo = 0, Hi = 0;
  /// Next seed offset to run; advanced by the worker, read by the
  /// checkpoint writer.
  std::atomic<uint64_t> Next{0};
  std::atomic<uint64_t> Done{0};
  /// Wall time this worker spent in its slices, summed over epochs.
  double LegSeconds = 0;
};

/// Sums every per-iteration counter and phase timer of \p From into
/// \p Into. TotalSeconds is deliberately excluded: summing wall-clock
/// across concurrent workers would double-count; the engine reports its
/// own wall time.
void accumulate(FuzzStats &Into, const FuzzStats &From) {
  Into.MutantsGenerated += From.MutantsGenerated;
  Into.MutationsApplied += From.MutationsApplied;
  Into.Optimized += From.Optimized;
  Into.Verified += From.Verified;
  Into.VerifySkipped += From.VerifySkipped;
  Into.TVCacheHits += From.TVCacheHits;
  Into.TVCacheMisses += From.TVCacheMisses;
  Into.TVCacheEvictions += From.TVCacheEvictions;
  Into.RefinementFailures += From.RefinementFailures;
  Into.Crashes += From.Crashes;
  Into.Inconclusive += From.Inconclusive;
  Into.FunctionsDropped += From.FunctionsDropped;
  Into.InvalidMutants += From.InvalidMutants;
  Into.MutantsSaved += From.MutantsSaved;
  Into.SaveFailures += From.SaveFailures;
  Into.BundlesWritten += From.BundlesWritten;
  Into.BundleFailures += From.BundleFailures;
  Into.Timeouts += From.Timeouts;
  Into.MutateSeconds += From.MutateSeconds;
  Into.OptimizeSeconds += From.OptimizeSeconds;
  Into.VerifySeconds += From.VerifySeconds;
  Into.OverheadSeconds += From.OverheadSeconds;
  // WorkerSeconds sums loop wall times across workers — the denominator
  // of the stage-sum invariant (the engine's own wall clock would be ~J
  // times smaller than the summed stage times).
  Into.WorkerSeconds += From.WorkerSeconds;
}

/// Closes one dispatch leg's books: the leg's wall time joins the
/// cumulative WorkerSeconds (checkpointed with the rest of FuzzStats, so
/// it keeps accumulating across resume legs), and whatever the stage
/// timers did not claim joins the overhead bucket — the stage-sum
/// invariant then holds for the cumulative numbers.
void settleWorkerSeconds(FuzzerLoop &Loop, double LegSeconds) {
  FuzzStats S = Loop.stats();
  S.WorkerSeconds += LegSeconds;
  double Staged = S.MutateSeconds + S.OptimizeSeconds + S.VerifySeconds +
                  S.OverheadSeconds;
  if (S.WorkerSeconds > Staged)
    S.OverheadSeconds += S.WorkerSeconds - Staged;
  Loop.restoreState(S, Loop.bugs());
}

/// A worker loop's options: the master's, minus the one-time
/// preprocessing, restricted to the surviving function set.
FuzzOptions workerOptions(const FuzzOptions &Opts,
                          const std::vector<std::string> &Testable,
                          unsigned Index) {
  FuzzOptions WOpts = Opts;
  WOpts.SelfCheckOnLoad = false;
  WOpts.OnlyFunctions = Testable;
  WOpts.WorkerIndex = Index;
  return WOpts;
}

/// A progress snapshot from raw counters. \p Stage (mutate, optimize,
/// verify, overhead seconds) may be null when no stage split is known.
CampaignProgress progressAt(uint64_t Done, uint64_t Target, double Elapsed,
                            unsigned Workers, double TimeLimit,
                            const double *Stage) {
  CampaignProgress P;
  P.Done = Done;
  P.Target = Target;
  P.Elapsed = Elapsed;
  P.Workers = Workers;
  if (P.Elapsed > 0)
    P.Rate = (double)P.Done / P.Elapsed;
  if (!Target)
    P.EtaSeconds = std::max(0.0, TimeLimit - P.Elapsed);
  else if (P.Rate > 0)
    P.EtaSeconds = (double)(P.Target - P.Done) / P.Rate;
  if (Stage) {
    double StageSum = Stage[0] + Stage[1] + Stage[2] + Stage[3];
    if (StageSum > 0) {
      P.MutateShare = Stage[0] / StageSum;
      P.OptimizeShare = Stage[1] / StageSum;
      P.VerifyShare = Stage[2] / StageSum;
      P.OverheadShare = Stage[3] / StageSum;
    }
  }
  return P;
}

/// The wall-clock backstop: polls each loop's watchdog serial a few times
/// per timeout period and CAS-cancels a token that sat on one serial for
/// longer than the timeout. Fires only through CancellationToken's
/// cancelIfStillOn, so a worker that advanced in the meantime is never
/// hit (and a stale hit is cleared by the next beginIteration anyway).
class WallClockSupervisor {
public:
  WallClockSupervisor(std::vector<FuzzerLoop *> WatchedLoops, double Timeout)
      : Loops(std::move(WatchedLoops)), Timeout(Timeout) {
    if (Loops.empty() || Timeout <= 0)
      return;
    Last.resize(Loops.size());
    Th = std::thread([this] { poll(); });
  }
  ~WallClockSupervisor() { stop(); }

  void stop() {
    if (!Th.joinable())
      return;
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    CV.notify_all();
    Th.join();
  }

private:
  struct Seen {
    uint64_t Serial = 0;
    std::chrono::steady_clock::time_point Since;
    bool Init = false;
  };

  void poll() {
    // The interval must genuinely subdivide the timeout or sub-interval
    // stalls are invisible: a floor of 5ms once made any timeout below
    // ~20ms a no-op (the serial always advanced between ticks). The
    // 100us floor bounds the busy-poll cost while keeping millisecond
    // backstops — the kind the tests use — honest.
    double PollSeconds = std::clamp(Timeout / 4, 0.0001, 0.05);
    std::unique_lock<std::mutex> Lock(M);
    while (!CV.wait_for(Lock, std::chrono::duration<double>(PollSeconds),
                        [this] { return Done; })) {
      auto Now = std::chrono::steady_clock::now();
      for (size_t I = 0; I != Loops.size(); ++I) {
        CancellationToken *T = Loops[I]->watchdog();
        if (!T)
          continue;
        uint64_t S = T->serial();
        if (!Last[I].Init || Last[I].Serial != S) {
          Last[I] = {S, Now, true};
          continue;
        }
        if (std::chrono::duration<double>(Now - Last[I].Since).count() >=
            Timeout) {
          T->cancelIfStillOn(S);
          // Re-arm: if the worker stays wedged despite the cancel (it
          // should not — every instrumented stage polls), fire again a
          // full period later rather than every poll tick.
          Last[I].Since = Now;
        }
      }
    }
  }

  std::vector<FuzzerLoop *> Loops;
  double Timeout;
  std::vector<Seen> Last;
  std::thread Th;
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
};

} // namespace

const FuzzStats &CampaignEngine::run() {
  if (!ConfigError.empty())
    return Stats;
  if (!MasterLoop->module()) {
    ConfigError = "no module loaded";
    return Stats;
  }

  Timer Total;
  const std::vector<std::string> Testable = MasterLoop->testableFunctions();
  Interrupted = false;
  FanoutIncidents.clear();
  DegradedFlag = false;
  LostShardsV.clear();
  TotalDone.store(0, std::memory_order_relaxed);
  // The merged results start from the master's preprocessing; each path
  // adds its workers' (or harvested shards') state on top.
  Stats = FuzzStats();
  Stats.FunctionsDropped = MasterLoop->stats().FunctionsDropped;
  Bugs.clear();
  SaveDirError.clear();
  BundleError.clear();
  Registry = StatRegistry();
  Registry.merge(MasterLoop->registry());
  Traces.clear();
  TraceNames.clear();

  const bool Fanout = Opts.Survival.Fanout != 0;
  emitEvent(CampaignEvent::Kind::CampaignStart, Opts.BaseSeed, 0,
            Fanout                  ? "fanout"
            : Opts.Feedback.Enabled ? "feedback"
            : Opts.Iterations == 0  ? "time-limited"
                                    : "blind");
  if (Fanout)
    runSupervised(Testable, Total);
  else
    runThreads(Testable, Total);
  if (!ConfigError.empty())
    return Stats;

  Stats.TotalSeconds = Total.seconds();
  emitEvent(CampaignEvent::Kind::CampaignEnd, 0, 0,
            DegradedFlag  ? "degraded"
            : Interrupted ? "interrupted"
                          : "completed");
  return Stats;
}

bool CampaignEngine::pinCheckpointIdentity(const std::string &Dir,
                                           unsigned Shards) {
  // The meta pins everything the seed schedule and the partition depend
  // on, so a stale or mismatched checkpoint is a config error, never a
  // silently-wrong merge.
  CheckpointMeta Cur;
  Cur.Passes = Opts.Passes;
  Cur.Iterations = Opts.Iterations;
  Cur.BaseSeed = Opts.BaseSeed;
  Cur.Jobs = Shards;
  Cur.MaxMutationsPerFunction = Opts.Mutation.MaxMutationsPerFunction;
  Cur.InjectBugs = !Opts.Bugs.empty();
  Cur.FeedbackOn = Opts.Feedback.Enabled;
  Cur.EpochLength =
      Cur.FeedbackOn ? std::max(1u, Opts.Feedback.EpochLength) : 0;
  Cur.ModuleHash = hashModuleText(printModule(*MasterLoop->module()));
  std::string Err;
  if (Opts.Survival.Resume) {
    CheckpointMeta Stored;
    if (!readCheckpointMeta(Dir, Stored, Err) ||
        !checkpointMetaMatches(Stored, Cur, Err)) {
      ConfigError = "cannot resume: " + Err;
      return false;
    }
  } else if (!writeCheckpointMeta(Dir, Cur, Err)) {
    ConfigError = Err;
    return false;
  }
  return true;
}

void CampaignEngine::runThreads(const std::vector<std::string> &Testable,
                                Timer &Total) {
  const SurvivalOptions &SV = Opts.Survival;
  const bool TimeLimited = Opts.Iterations == 0;
  const bool Feedback = Opts.Feedback.Enabled;
  const bool Checkpointing = !SV.CheckpointDir.empty();
  // Never spawn idle workers: with fewer iterations than threads the tail
  // workers would own empty slices.
  const unsigned J =
      TimeLimited ? Jobs : (unsigned)std::min<uint64_t>(Jobs, Opts.Iterations);
  // Blind and time-limited campaigns are one epoch over the whole range.
  const uint64_t End = TimeLimited ? UINT64_MAX : Opts.Iterations;
  const uint64_t EpochLen =
      Feedback ? std::max(1u, Opts.Feedback.EpochLength) : End;
  if (Checkpointing && !pinCheckpointIdentity(SV.CheckpointDir, J))
    return;

  // Declared before the workers: their loops point at the schedule.
  FeedbackMap Global;
  ScheduleState Schedule;
  uint64_t EpochStart = 0;

  // Build the workers up front on this thread (module cloning allocates
  // into per-module interning contexts; keep that serial and simple).
  std::vector<std::unique_ptr<Worker>> Workers;
  for (unsigned I = 0; I != J; ++I) {
    auto W = std::make_unique<Worker>();
    W->Index = I;
    if (!TimeLimited) {
      W->Lo = Feedback ? 0 : Opts.Iterations * I / J;
      W->Hi = Feedback ? Opts.Iterations : Opts.Iterations * (I + 1) / J;
    }
    W->Next.store(W->Lo, std::memory_order_relaxed);
    FuzzOptions WOpts = workerOptions(Opts, Testable, I);
    WOpts.Events = Events;
    W->Loop = std::make_unique<FuzzerLoop>(WOpts);
    W->Loop->setSchedule(Feedback ? &Schedule : nullptr);
    // Workers only fuzz the testable set — hand them a subset clone whose
    // non-testable functions are declaration stubs instead of paying a
    // full deep copy per worker (and per mutant inside the loop).
    W->Loop->loadModule(cloneModuleSubset(*MasterLoop->module(), Testable));
    Workers.push_back(std::move(W));
  }

  // Validate and restore all resume state before any thread (sampler,
  // backstop, reporter, worker) can observe the workers.
  if (SV.Resume) {
    std::string Err;
    if (Feedback) {
      FeedbackCheckpoint FC;
      if (!readFeedbackCheckpoint(SV.CheckpointDir, FC, Err)) {
        ConfigError = "cannot resume: " + Err;
        return;
      }
      Global = std::move(FC.Global);
      Schedule = std::move(FC.Schedule);
      EpochStart = FC.NextOffset;
      if (EpochStart > Opts.Iterations ||
          (EpochStart % EpochLen != 0 && EpochStart != Opts.Iterations)) {
        ConfigError = "cannot resume: feedback.json records offset " +
                      std::to_string(EpochStart) +
                      ", which is not an epoch boundary";
        return;
      }
    }
    for (auto &W : Workers) {
      WorkerCheckpoint WC;
      if (!readWorkerCheckpoint(SV.CheckpointDir, W->Index, WC, Err)) {
        ConfigError = "cannot resume: " + Err;
        return;
      }
      if (WC.Lo != W->Lo || WC.Hi != W->Hi) {
        ConfigError = "cannot resume: shard " + std::to_string(W->Index) +
                      " was checkpointed with a different seed partition";
        return;
      }
      if (Feedback && WC.Next != EpochStart) {
        ConfigError = "cannot resume: shard " + std::to_string(W->Index) +
                      " was checkpointed at a different epoch boundary";
        return;
      }
      restoreWorker(WC, *W->Loop);
      W->Next.store(WC.Next, std::memory_order_relaxed);
      if (!Feedback) {
        W->Done.store(WC.Next - WC.Lo, std::memory_order_relaxed);
        TotalDone.fetch_add(WC.Next - WC.Lo, std::memory_order_relaxed);
      }
    }
    if (Feedback)
      TotalDone.store(EpochStart, std::memory_order_relaxed);
  }

  // Open the live observer window now that every worker exists. The
  // guard sits after the Workers vector, so on every exit path the refs
  // are revoked before the workers they borrow from are destroyed.
  beginLive(/*Isolated=*/false, TimeLimited ? 0 : Opts.Iterations, J, &Total);
  for (auto &W : Workers)
    addLiveShard({W->Index, W->Lo, W->Hi, &W->Done, W->Loop.get()});
  struct LiveGuard {
    CampaignEngine *E;
    ~LiveGuard() { E->endLive(); }
  } LG{this};

  // The wall-clock sampler rides the workers' live span stacks for the
  // whole run window (barrier gaps just sample empty stacks). Created
  // under LiveM so profileSnapshot() never sees a half-built sampler.
  if (Opts.Profile.Enabled) {
    auto SP =
        std::make_unique<SamplingProfiler>(Opts.Profile.SamplingIntervalMs);
    for (auto &W : Workers)
      SP->attach("w" + std::to_string(W->Index), W->Loop->trace());
    SP->start();
    std::lock_guard<std::mutex> G(LiveM);
    Sampler = std::move(SP);
  }

  // The wall-clock backstop, when configured: one supervisor thread for
  // all workers (it only reads serials and CAS-writes cancel flags).
  std::vector<FuzzerLoop *> WatchedLoops;
  if (SV.WallTimeoutSeconds > 0)
    for (auto &W : Workers)
      WatchedLoops.push_back(W->Loop.get());
  WallClockSupervisor Backstop(std::move(WatchedLoops),
                               SV.WallTimeoutSeconds);

  // The reporter: wakes every ProgressInterval seconds and hands the
  // workers' aggregated atomic counters to the callback.
  std::mutex DoneMutex;
  std::condition_variable DoneCV;
  bool AllDone = false;
  std::thread Reporter;
  if (ProgressInterval > 0 && ProgressFn) {
    Reporter = std::thread([&] {
      std::unique_lock<std::mutex> Lock(DoneMutex);
      while (!DoneCV.wait_for(Lock,
                              std::chrono::duration<double>(ProgressInterval),
                              [&] { return AllDone; })) {
        double Stage[4] = {};
        for (const auto &W : Workers) {
          std::array<double, 4> WS = W->Loop->stageSeconds();
          for (unsigned S = 0; S != 4; ++S)
            Stage[S] += WS[S];
        }
        ProgressFn(progressAt(TotalDone.load(std::memory_order_relaxed),
                              TimeLimited ? 0 : Opts.Iterations,
                              Total.seconds(), J, Opts.TimeLimitSeconds,
                              Stage));
      }
    });
  }

  auto StopRequested = [&] {
    uint64_t After = StopAfter.load(std::memory_order_relaxed);
    return StopReq.load(std::memory_order_relaxed) ||
           (After && TotalDone.load(std::memory_order_relaxed) >= After);
  };
  auto CheckpointWorker = [&](Worker &W) {
    std::string Err;
    bool Ok = writeWorkerCheckpoint(
        SV.CheckpointDir,
        snapshotWorker(W.Index, W.Lo, W.Hi,
                       W.Next.load(std::memory_order_relaxed), *W.Loop),
        Err);
    ++W.Loop->mutableRegistry().counter(
        Ok ? "survive.checkpoint.writes" : "survive.checkpoint.failures",
        Volatility::Volatile);
    emitEvent(CampaignEvent::Kind::Checkpoint, 0, W.Index,
              Ok ? "ok" : "failed");
  };
  // Every worker's shard, plus the feedback state under feedback. Only
  // called with the workers parked (epoch barrier or after the join).
  auto CheckpointAll = [&] {
    for (auto &W : Workers)
      CheckpointWorker(*W);
    if (!Feedback)
      return;
    FeedbackCheckpoint FC{Global, Schedule, EpochStart};
    std::string Err;
    if (!writeFeedbackCheckpoint(SV.CheckpointDir, FC, Err))
      ++Workers[0]->Loop->mutableRegistry().counter(
          "survive.checkpoint.failures", Volatility::Volatile);
  };

  // A blind worker checkpoints on its own cadence and stops at any
  // iteration boundary. A feedback worker does neither mid-epoch: its
  // pending coverage would be lost, and an epoch is bounded work anyway.
  const uint64_t Interval =
      Checkpointing && !Feedback
          ? (SV.CheckpointInterval ? SV.CheckpointInterval : 64)
          : 0;
  std::atomic<uint64_t> SharedNext{0};
  auto RunSlice = [&](Worker &W, uint64_t SliceEnd) {
    Timer Leg;
    uint64_t Since = 0;
    for (;;) {
      uint64_t Off;
      if (TimeLimited) {
        if (Total.seconds() >= Opts.TimeLimitSeconds || StopRequested())
          break;
        Off = SharedNext.fetch_add(1, std::memory_order_relaxed);
      } else {
        Off = W.Next.load(std::memory_order_relaxed);
        if (Off == SliceEnd || (!Feedback && StopRequested()))
          break;
      }
      W.Loop->runIteration(Opts.BaseSeed + Off);
      W.Next.store(Off + 1, std::memory_order_relaxed);
      W.Done.fetch_add(1, std::memory_order_relaxed);
      TotalDone.fetch_add(1, std::memory_order_relaxed);
      if (Interval && ++Since >= Interval) {
        Since = 0;
        CheckpointWorker(W);
      }
    }
    W.LegSeconds += Leg.seconds();
  };

  while (EpochStart < End) {
    if (Feedback && StopRequested())
      break;
    const uint64_t EpochEnd = std::min(End, EpochStart + EpochLen);
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I != J; ++I) {
      Worker &W = *Workers[I];
      uint64_t SliceEnd = 0;
      if (!TimeLimited) {
        // Worker I runs [EpochStart + L*I/J, EpochStart + L*(I+1)/J). In
        // a blind campaign that is [Lo, Hi), and a resumed cursor may
        // already be past its start.
        const uint64_t L = EpochEnd - EpochStart;
        W.Next.store(std::max(EpochStart + L * I / J,
                              W.Next.load(std::memory_order_relaxed)),
                     std::memory_order_relaxed);
        SliceEnd = EpochStart + L * (I + 1) / J;
      }
      Threads.emplace_back(RunSlice, std::ref(W), SliceEnd);
    }
    for (std::thread &T : Threads)
      T.join();
    EpochStart = EpochEnd;
    if (!Feedback)
      continue;

    // The epoch barrier: merge the coverage deltas (the OR makes the
    // order irrelevant), then advance the schedule as a pure function of
    // the cumulative maps. Every worker is now done with the epoch.
    FeedbackMap Prev = Global;
    for (auto &W : Workers) {
      Global.merge(W->Loop->takeFeedback());
      W->Next.store(EpochStart, std::memory_order_relaxed);
    }
    Schedule.update(Prev, Global);
    publishFeedbackLive((EpochStart + EpochLen - 1) / EpochLen,
                        (unsigned)Global.Global.popcount(), Schedule);
    emitEvent(CampaignEvent::Kind::EpochBarrier, 0, 0,
              "offset " + std::to_string(EpochStart) + ", bits " +
                  std::to_string(Global.Global.popcount()));
    if (Checkpointing)
      CheckpointAll();
  }

  Backstop.stop();
  if (Reporter.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      AllDone = true;
    }
    DoneCV.notify_all();
    Reporter.join();
  }
  if (Sampler)
    Sampler->stop();
  endLive();

  for (auto &W : Workers)
    settleWorkerSeconds(*W->Loop, W->LegSeconds);
  // Final snapshot with the settled books: a stopped campaign resumes
  // from here, a finished one records Next == Hi.
  if (Checkpointing)
    CheckpointAll();

  // Deterministic merge in worker order; the seed sort below restores the
  // sequential bug order where slices interleave seeds across workers
  // (same-seed bugs come from one worker's list, which stable_sort keeps).
  // The flight-recorder tracks outlive the workers; they share one
  // process-global epoch, and their ring overwrites (volatile) are summed.
  auto KeepTrace = [&](std::unique_ptr<TraceRecorder> T, std::string Name) {
    Registry.counter("trace.dropped_events", Volatility::Volatile) +=
        T->dropped();
    Traces.push_back(std::move(T));
    TraceNames.push_back(std::move(Name));
  };
  if (auto T = MasterLoop->takeTrace())
    KeepTrace(std::move(T), "master");
  std::vector<const QueryCostTracker *> CostTrackers;
  for (const auto &W : Workers) {
    if (const QueryCostTracker *QT = W->Loop->queryCosts())
      CostTrackers.push_back(QT);
    accumulate(Stats, W->Loop->stats());
    Registry.merge(W->Loop->registry());
    if (SaveDirError.empty())
      SaveDirError = W->Loop->saveDirError();
    if (BundleError.empty())
      BundleError = W->Loop->bundleError();
    if (auto T = W->Loop->takeTrace())
      KeepTrace(std::move(T), "worker " + std::to_string(W->Index));
    const std::vector<BugRecord> &WB = W->Loop->bugs();
    Bugs.insert(Bugs.end(), WB.begin(), WB.end());
    if (W->Next.load(std::memory_order_relaxed) != W->Hi)
      Interrupted = true;
  }
  finishProfile(CostTrackers);
  std::stable_sort(Bugs.begin(), Bugs.end(),
                   [](const BugRecord &A, const BugRecord &B) {
                     return A.MutantSeed < B.MutantSeed;
                   });
  if (TimeLimited)
    Interrupted = StopReq.load(std::memory_order_relaxed);
  if (!Feedback)
    return;

  FinalFeedback = std::move(Global);
  FinalSchedule = std::move(Schedule);
  // Engine-level feedback counters, derived from the final state alone
  // (not incremented along the way) so a resumed campaign reports the
  // same numbers as an uninterrupted one.
  Registry.counter("feedback.epochs") = (EpochStart + EpochLen - 1) / EpochLen;
  Registry.counter("feedback.bits_covered") = FinalFeedback.Global.popcount();
  Registry.counter("feedback.functions_tracked") =
      FinalFeedback.PerFunction.size();
  for (size_t K = 0; K != FinalSchedule.FamilyWeights.size(); ++K)
    Registry.counter(std::string("feedback.weight.") +
                     mutationKindName((MutationKind)K)) =
        FinalSchedule.FamilyWeights[K];
}

void CampaignEngine::runSupervised(const std::vector<std::string> &Testable,
                                   Timer &Total) {
  const SurvivalOptions &SV = Opts.Survival;
  namespace fs = std::filesystem;

  // The checkpoint directory is the harvest channel: children persist
  // their state there, the parent merges from it (and a lost lease's last
  // checkpoint is still harvested — partial results are degraded, never
  // discarded). Without a user-provided directory, use (and afterwards
  // remove) a private one.
  std::string Dir = SV.CheckpointDir;
  const bool OwnDir = Dir.empty();
  if (OwnDir) {
    std::error_code EC;
    Dir = (fs::temp_directory_path(EC) /
           ("alive-mutate-fanout-" + std::to_string(getpid())))
              .string();
  }
  struct DirGuard {
    const std::string &Dir;
    bool Own;
    ~DirGuard() {
      std::error_code EC;
      if (Own)
        fs::remove_all(Dir, EC);
    }
  } DG{Dir, OwnDir};

  // The lease partition must match the checkpoint identity, so clamp the
  // fanout before writing the meta.
  const unsigned N =
      (unsigned)std::min<uint64_t>(std::max(1u, SV.Fanout), Opts.Iterations);
  if (!pinCheckpointIdentity(Dir, N))
    return;

  const uint64_t Interval = SV.CheckpointInterval ? SV.CheckpointInterval : 16;

  SupervisorConfig SC;
  SC.Fanout = N;
  SC.Iterations = Opts.Iterations;
  SC.Retry.MaxAttempts = SV.RetryMaxAttempts;
  SC.Retry.BaseDelaySeconds = SV.RetryBaseDelay;
  SC.Retry.MaxDelaySeconds = SV.RetryMaxDelay;
  SC.LeaseHeartbeatSeconds = SV.LeaseHeartbeatSeconds;

  Supervisor Sup(SC, [&](const Supervisor::ShardContext &Ctx) -> int {
    // ------- child: one lease, sequential, in a disposable process. The
    // address space is a copy-on-write snapshot of the parent, so the
    // preprocessed master module is already here.
    if (SV.IsolateMemMB) {
      rlimit R{SV.IsolateMemMB << 20, SV.IsolateMemMB << 20};
      setrlimit(RLIMIT_AS, &R);
    }
    if (SV.IsolateCpuSeconds) {
      rlimit R{SV.IsolateCpuSeconds, SV.IsolateCpuSeconds};
      setrlimit(RLIMIT_CPU, &R);
    }
    FuzzOptions WOpts = workerOptions(Opts, Testable, Ctx.Index);
    WOpts.Survival.Fanout = 0;
    // The process boundary IS the crash containment; an in-process guard
    // would only hide the signal from the parent's classifier. The event
    // queue lives in the parent's address space.
    WOpts.Survival.SignalGuard = false;
    WOpts.Events = nullptr;
    FuzzerLoop Loop(WOpts);
    Loop.loadModule(cloneModuleSubset(*MasterLoop->module(), Testable));
    uint64_t Cursor = Ctx.Lo;
    {
      WorkerCheckpoint WC;
      std::string Err;
      if (readWorkerCheckpoint(Dir, Ctx.Index, WC, Err) && WC.Lo == Ctx.Lo &&
          WC.Hi == Ctx.Hi) {
        restoreWorker(WC, Loop);
        Cursor = WC.Next;
      }
    }
    // First beat before the loop: module cloning and restore are done,
    // the wedge clock should measure iteration progress only.
    Ctx.Next->store(Cursor, std::memory_order_relaxed);
    Ctx.Beat->fetch_add(1, std::memory_order_relaxed);
    if (faultAt("supervisor.wedge")) {
      // Chaos hook: hang without beating until the wedge detector reaps
      // us (or the campaign stops).
      while (!Ctx.Stop->load(std::memory_order_relaxed))
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return 0;
    }
    // The parent cannot see into this address space, so the wall-clock
    // backstop runs as a thread of the child itself.
    WallClockSupervisor WallSup({&Loop}, SV.WallTimeoutSeconds);
    Timer Leg;
    uint64_t Since = 0;
    auto Checkpoint = [&](uint64_t Next) {
      std::string Err;
      return writeWorkerCheckpoint(
          Dir, snapshotWorker(Ctx.Index, Ctx.Lo, Ctx.Hi, Next, Loop), Err);
    };
    for (; Cursor != Ctx.Hi && !Ctx.Stop->load(std::memory_order_relaxed);
         ++Cursor) {
      // A skipped offset pinned a crash bug in the parent; it counts as
      // done but never runs again.
      bool Skip = std::find(Ctx.Skip->begin(), Ctx.Skip->end(), Cursor) !=
                  Ctx.Skip->end();
      if (!Skip) {
        Ctx.Cur->store(Cursor, std::memory_order_release);
        Loop.runIteration(Opts.BaseSeed + Cursor);
        Ctx.Cur->store(Supervisor::IdleOffset, std::memory_order_release);
      }
      Ctx.Next->store(Cursor + 1, std::memory_order_relaxed);
      Ctx.Done->fetch_add(1, std::memory_order_relaxed);
      Ctx.Beat->fetch_add(1, std::memory_order_relaxed);
      if (!Skip && ++Since >= Interval) {
        Since = 0;
        Checkpoint(Cursor + 1);
      }
    }
    settleWorkerSeconds(Loop, Leg.seconds());
    bool Ok = Checkpoint(Cursor);
    WallSup.stop();
    // Exit 3 = "results could not be written": the parent marks the
    // lease Lost instead of retrying forever.
    return Ok ? 0 : 3;
  });

  std::string InitErr;
  if (!Sup.init(InitErr)) {
    ConfigError = InitErr;
    return;
  }

  uint64_t ParentBundles = 0, ParentBundleFailures = 0;
  Sup.setCrashHook([&](unsigned I, uint64_t Off,
                       const std::string &Why) -> BugRecord {
    // The offset took the process down repeatedly: a crash bug of the
    // compiler-under-test. Record it from the parent side — the mutant
    // regenerates deterministically from its seed.
    uint64_t Seed = Opts.BaseSeed + Off;
    BugRecord B;
    B.Kind = BugRecord::Crash;
    B.MutantSeed = Seed;
    B.Detail = "optimizer process " + Why + " (supervised shard " +
               std::to_string(I) + ", contained by process isolation)";
    ForensicRecord FR;
    FR.K = ForensicRecord::Crash;
    FR.Seed = Seed;
    FR.VerdictSlug = "crash";
    FR.Detail = B.Detail;
    // Regenerating the mutant replays only the (signal-safe) mutator, but
    // guard anyway: the parent must survive whatever the child did not.
    int Sig = 0;
    bool Survived = runWithSignalGuard(
        [&] {
          MutationTrail Trail;
          std::unique_ptr<Module> Mutant = MasterLoop->makeMutant(Seed, Trail);
          B.MutantIR = printModule(*Mutant);
          if (!Opts.BugBundleDir.empty()) {
            BundleInputs In{Opts,         Testable, *MasterLoop->module(),
                            Mutant.get(), nullptr,  &Trail,
                            FR};
            std::string Err;
            B.BundlePath = writeBugBundle(Opts.BugBundleDir, In, Err);
            if (B.BundlePath.empty()) {
              ++ParentBundleFailures;
              if (BundleError.empty())
                BundleError = Err;
            } else {
              ++ParentBundles;
            }
          }
        },
        Sig);
    if (!Survived)
      B.Detail += "; mutant regeneration raised " +
                  std::string(signalName(Sig)) + " in the parent too";
    emitEvent(CampaignEvent::Kind::BugFound, Seed, I, "crash " + Why);
    return B;
  });

  Sup.setStopCheck([&](uint64_t DoneTotal) {
    TotalDone.store(DoneTotal, std::memory_order_relaxed);
    uint64_t After = StopAfter.load(std::memory_order_relaxed);
    return StopReq.load(std::memory_order_relaxed) ||
           (After && DoneTotal >= After);
  });
  if (ProgressInterval > 0 && ProgressFn)
    Sup.setTick(
        [&](uint64_t Done, double Elapsed) {
          ProgressFn(progressAt(Done, Opts.Iterations, Elapsed, N, 0,
                                /*Stage=*/nullptr));
        },
        ProgressInterval);

  // Live view over the supervisor's heartbeat page: Done counters only
  // (shard registries live in child processes).
  beginLive(/*Isolated=*/true, Opts.Iterations, N, &Total);
  for (unsigned I = 0; I != Sup.shards(); ++I)
    addLiveShard({I, Sup.shardLo(I), Sup.shardHi(I), Sup.doneCounter(I),
                  /*Loop=*/nullptr});
  struct LiveGuard {
    CampaignEngine *E;
    ~LiveGuard() { E->endLive(); }
  } LG{this};

  SupervisorOutcome SO = Sup.run(Total);
  endLive();
  if (!SO.Error.empty()) {
    ConfigError = SO.Error;
    return;
  }

  Registry.counter("survive.supervisor.restarts", Volatility::Volatile) +=
      SO.Restarts;
  Registry.counter("survive.supervisor.wedges", Volatility::Volatile) +=
      SO.Wedges;
  Registry.counter("survive.supervisor.fork_failures", Volatility::Volatile) +=
      SO.ForkFailures;
  Registry.counter("survive.supervisor.lease_extensions",
                   Volatility::Volatile) += SO.LeaseExtensions;

  auto NoteIncident = [&](const std::string &Msg) {
    if (!FanoutIncidents.empty())
      FanoutIncidents += "; ";
    FanoutIncidents += Msg;
  };

  // Harvest: every lease's last durable checkpoint, merged in lease order
  // like the thread path's workers, plus the parent-recorded crash bugs
  // spliced into each shard's list in seed order. Lost leases still
  // contribute whatever their last checkpoint holds — and exact
  // lost-iteration accounting is computed against that checkpoint, never
  // estimated.
  for (const ShardOutcome &S : SO.Shards) {
    WorkerCheckpoint WC;
    std::string Err;
    bool Read = readWorkerCheckpoint(Dir, S.Index, WC, Err) &&
                WC.Lo == S.Lo && WC.Hi == S.Hi;
    bool ShardLost = S.Lost;
    uint64_t LostIters = 0;
    if (ShardLost) {
      LostIters =
          Read ? S.Hi - std::min(std::max(WC.Next, S.Lo), S.Hi) : S.Hi - S.Lo;
    } else if (!Read) {
      // Lease finished but its results cannot be read back: a lost shard
      // by any other name. Count it the same way, never drop it silently.
      ShardLost = true;
      LostIters = S.Hi - S.Lo;
      NoteIncident("shard " + std::to_string(S.Index) +
                   " results lost: " + Err);
    }
    if (ShardLost) {
      DegradedFlag = true;
      LostShardsV.emplace_back(S.Index, LostIters);
      Interrupted = true;
      if (!S.Note.empty())
        NoteIncident(S.Note + " (" + std::to_string(LostIters) +
                     " iterations lost)");
    } else if (!S.Note.empty()) {
      NoteIncident(S.Note);
    }
    if (!Read)
      continue;
    accumulate(Stats, WC.Stats);
    StatRegistry Tmp;
    for (const WorkerCheckpoint::Counter &C : WC.Counters)
      Tmp.counter(C.Name, C.IsVolatile ? Volatility::Volatile
                                       : Volatility::Deterministic) = C.Value;
    Registry.merge(Tmp);
    std::vector<BugRecord> ShardBugs = WC.Bugs;
    ShardBugs.insert(ShardBugs.end(), S.CrashBugs.begin(), S.CrashBugs.end());
    std::stable_sort(ShardBugs.begin(), ShardBugs.end(),
                     [](const BugRecord &A, const BugRecord &B) {
                       return A.MutantSeed < B.MutantSeed;
                     });
    Bugs.insert(Bugs.end(), ShardBugs.begin(), ShardBugs.end());
    if (!ShardLost && WC.Next != WC.Hi)
      Interrupted = true;
    uint64_t NCrash = S.CrashBugs.size();
    if (NCrash) {
      Stats.Crashes += NCrash;
      Registry.counter("bug.crash") += NCrash;
    }
  }
  Stats.BundlesWritten += ParentBundles;
  Stats.BundleFailures += ParentBundleFailures;
  if (DegradedFlag) {
    uint64_t LostTotal = 0;
    for (const auto &LS : LostShardsV)
      LostTotal += LS.second;
    Registry.counter("survive.degraded.shards", Volatility::Volatile) +=
        LostShardsV.size();
    Registry.counter("survive.degraded.lost_iterations",
                     Volatility::Volatile) += LostTotal;
  }
}
