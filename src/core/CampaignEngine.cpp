//===- core/CampaignEngine.cpp - Parallel sharded campaign engine ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"

#include "core/Checkpoint.h"
#include "core/Supervisor.h"
#include "support/FaultPlane.h"
#include "support/Timer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

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
  // A lost lease is counted against the rest of its slice; without -n a
  // slice has no end to count to.
  if (SV.Fanout && Opts.Iterations == 0)
    return "-fanout needs an iteration-bounded campaign: add -n=<count> "
           "(-t=<sec> may stay as a deadline)";
  // The flight recorder's ring lives in child memory and is not part of
  // the shard checkpoint the parent restores.
  if (SV.Fanout && Opts.TraceEnabled)
    return "-trace-json cannot cross the -fanout process boundary: the "
           "flight recorder lives in shard memory";
  if (Opts.Feedback.Enabled && !Opts.BugBundleDir.empty())
    return "-feedback cannot run with -bug-bundles: bundle trails replay "
           "seeds without the schedule and would not match the failing "
           "mutant";
  return "";
}

} // namespace

CampaignEngine::CampaignEngine(const FuzzOptions &Opts, unsigned Jobs)
    : Opts(Opts),
      Jobs(Opts.Survival.Fanout ? Opts.Survival.Fanout : std::max(1u, Jobs)) {
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

std::pair<uint64_t, uint64_t> alive::campaignSlice(unsigned I, unsigned J,
                                                   uint64_t Start,
                                                   uint64_t EpochLen,
                                                   uint64_t End) {
  const unsigned __int128 L = std::min(End - Start, EpochLen);
  return {Start + (uint64_t)(L * I / J), Start + (uint64_t)(L * (I + 1) / J)};
}

unsigned CampaignEngine::loadModule(std::unique_ptr<Module> M) {
  // Preprocess (and §III-A self-check) once, on the master; workers
  // inherit the surviving function set instead of redoing the TV work —
  // and FunctionsDropped is counted exactly once, as in a sequential run.
  return MasterLoop->loadModule(std::move(M));
}

std::vector<std::string> CampaignEngine::testableFunctions() const {
  return MasterLoop->testableFunctions();
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

CampaignLiveSnapshot CampaignEngine::liveSnapshot() const {
  using Clock = std::chrono::steady_clock;
  CampaignLiveSnapshot S;
  // Point-in-time, not linearizable: every value is a relaxed atomic.
  S.Running = Running.load(std::memory_order_acquire);
  S.Done = TotalDone.load(std::memory_order_relaxed);
  S.Restored = Restored.load(std::memory_order_relaxed);
  S.Target = Opts.Iterations;
  // The workers that own a slice: never more than the planned iterations.
  S.Workers = S.Target ? (unsigned)std::min<uint64_t>(Jobs, S.Target) : Jobs;
  if (S.Running)
    S.Elapsed = std::chrono::duration<double>(
                    Clock::now().time_since_epoch() -
                    Clock::duration(StartTicks.load(std::memory_order_relaxed)))
                    .count();
  for (unsigned I = 0; I != 4; ++I)
    S.StageNanos[I] = StageNanos[I].load(std::memory_order_relaxed);
  return S;
}

namespace {

/// One worker: a private FuzzerLoop over a private master-module clone.
/// Threads run it in place; under -fanout a forked child runs a copy and
/// the parent restores the child's shard checkpoint into it.
struct Worker {
  std::unique_ptr<FuzzerLoop> Loop;
  unsigned Index = 0;
  /// The seed-offset range this worker's checkpoint covers: its static
  /// partition in a blind campaign, the whole range under feedback (every
  /// epoch is sliced afresh, so all cursors agree at each barrier).
  uint64_t Lo = 0, Hi = 0;
  /// Next seed offset to run: the worker's record of progress. Only the
  /// worker's own thread touches it, or the engine while the workers are
  /// parked.
  uint64_t Next = 0;
  /// Wall time this worker spent in its slices, summed over epochs.
  double LegSeconds = 0;
};

/// The loop's mutate/optimize/verify/overhead seconds.
std::array<double, 4> stageSeconds(const FuzzStats &S) {
  return {S.MutateSeconds, S.OptimizeSeconds, S.VerifySeconds,
          S.OverheadSeconds};
}

/// Sums every per-iteration counter and phase timer of \p From into
/// \p Into. TotalSeconds is deliberately excluded: summing wall-clock
/// across concurrent workers would double-count; the engine reports its
/// own wall time. WorkerSeconds does sum — the denominator of the
/// stage-sum invariant (the engine's own wall clock would be ~J times
/// smaller than the summed stage times).
void accumulate(FuzzStats &Into, const FuzzStats &From) {
  for (const auto &F : FuzzStatsCounters)
    Into.*F.Member += From.*F.Member;
  for (const auto &F : FuzzStatsSeconds)
    if (F.Member != &FuzzStats::TotalSeconds)
      Into.*F.Member += From.*F.Member;
}

/// Closes one dispatch leg's books: the leg's wall time joins the
/// cumulative WorkerSeconds (checkpointed with the rest of FuzzStats, so
/// it keeps accumulating across resume legs), and settleOverhead credits
/// whatever the stage timers did not claim to the overhead bucket.
void settleWorkerSeconds(FuzzerLoop &Loop, double LegSeconds) {
  FuzzStats S = Loop.stats();
  S.WorkerSeconds += LegSeconds;
  settleOverhead(S);
  Loop.restoreState(S, Loop.bugs());
}

/// A worker loop's options: the master's, minus the one-time
/// preprocessing, restricted to the surviving function set.
FuzzOptions workerOptions(const FuzzOptions &Opts,
                          const std::vector<std::string> &Testable) {
  FuzzOptions WOpts = Opts;
  WOpts.SelfCheckOnLoad = false;
  WOpts.OnlyFunctions = Testable;
  // Under -fanout the process boundary IS the crash containment; an
  // in-process guard would only hide the signal from the supervisor.
  if (Opts.Survival.Fanout)
    WOpts.Survival.SignalGuard = false;
  return WOpts;
}

/// The campaign's profile from its parked workers, in worker order. The
/// K-bounded trackers merge to the exact global top-K (Profiler.h has the
/// proof sketch), so that table lands in the report's deterministic
/// section; each worker's span folds go under its "w<i>" root.
CampaignProfile mergeProfile(const FuzzOptions &Opts,
                             const std::vector<std::unique_ptr<Worker>> &Ws) {
  CampaignProfile P;
  if (!Opts.Profile.Enabled)
    return P;
  P.Enabled = true;
  P.TopK = Opts.Profile.TopK;
  QueryCostTracker Merged(Opts.Profile.TopK);
  for (const auto &W : Ws) {
    Merged.merge(*W->Loop->queryCosts());
    const std::string Root = "w" + std::to_string(W->Index) + ";";
    for (const auto &[Stack, Nanos] : W->Loop->trace()->spanFolds())
      P.SpanSelfNanos[Root + Stack] += Nanos;
  }
  P.TopQueries = Merged.top();
  return P;
}

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
  Restored.store(0, std::memory_order_relaxed);
  for (std::atomic<uint64_t> &N : StageNanos)
    N.store(0, std::memory_order_relaxed);
  StartTicks.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                   std::memory_order_relaxed);
  // The merged results start from the master's preprocessing; the epoch
  // loop adds its workers' state on top.
  Stats = FuzzStats();
  Stats.FunctionsDropped = MasterLoop->stats().FunctionsDropped;
  Bugs.clear();
  SaveDirError.clear();
  BundleError.clear();
  Registry = StatRegistry();
  Registry.merge(MasterLoop->registry());
  Traces.clear();
  TraceNames.clear();

  runEpochs(Testable, Total);
  if (!ConfigError.empty())
    return Stats;

  Stats.TotalSeconds = Total.seconds();
  return Stats;
}

void CampaignEngine::runEpochs(const std::vector<std::string> &Testable,
                               Timer &Total) {
  namespace fs = std::filesystem;
  const SurvivalOptions &SV = Opts.Survival;
  const bool Feedback = Opts.Feedback.Enabled;
  const bool Fanout = SV.Fanout != 0;

  // Under -fanout the checkpoint directory is also the harvest channel:
  // children leave their shard state there and the parent restores it.
  // Without a user-provided directory, use (and afterwards remove) a
  // private one.
  std::string Dir = SV.CheckpointDir;
  const bool OwnDir = Fanout && Dir.empty();
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
  const bool Checkpointing = !Dir.empty();

  // Without -n the campaign runs the whole offset space until its -t
  // deadline; at -j1 that is offsets 0, 1, 2, ... as under -n.
  const uint64_t End = Opts.Iterations ? Opts.Iterations : UINT64_MAX;
  // Never spawn idle workers: with fewer iterations than workers the tail
  // workers would own empty slices.
  const unsigned J = (unsigned)std::min<uint64_t>(Jobs, End);
  // A blind campaign is one epoch over the whole range, so there a
  // worker's slice is its static partition.
  const uint64_t EpochLen =
      Feedback ? std::max(1u, Opts.Feedback.EpochLength) : End;
  auto SliceOf = [&](unsigned I, uint64_t Start) {
    return campaignSlice(I, J, Start, EpochLen, End);
  };
  // meta.json pins what the seeds, the partition and each outcome depend
  // on: a mismatched checkpoint is a config error, never a wrong merge.
  if (std::string Err;
      Checkpointing &&
      !pinCheckpointIdentity(Dir, Opts, J, *MasterLoop->module(), Err)) {
    ConfigError = SV.Resume ? "cannot resume: " + Err : Err;
    return;
  }

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
    std::tie(W->Lo, W->Hi) =
        Feedback ? std::make_pair(uint64_t(0), End) : SliceOf(I, 0);
    W->Next = W->Lo;
    W->Loop = std::make_unique<FuzzerLoop>(workerOptions(Opts, Testable));
    W->Loop->setSchedule(Feedback ? &Schedule : nullptr);
    // Workers only fuzz the testable set — hand them a subset clone whose
    // non-testable functions are declaration stubs instead of paying a
    // full deep copy per worker (and per mutant inside the loop).
    W->Loop->loadModule(cloneModuleSubset(*MasterLoop->module(), Testable));
    Workers.push_back(std::move(W));
  }

  // The one reader of shard checkpoints (-resume, a restarted child, the
  // -fanout harvest): the shard must cover this worker's partition.
  auto ReadShard = [&](const Worker &W, WorkerCheckpoint &WC,
                       std::string &Err) {
    if (!readWorkerCheckpoint(Dir, W.Index, WC, Err))
      return false;
    if (WC.Lo == W.Lo && WC.Hi == W.Hi)
      return true;
    Err = "shard " + std::to_string(W.Index) +
          " was checkpointed with a different seed partition";
    return false;
  };
  // Restores W's shard checkpoint if it is ahead of W's cursor and inside
  // the slice ending at SliceEnd: how a restarted child continues its
  // predecessor and how the parent harvests a child. \returns false with
  // Err set when the shard cannot be read.
  auto AdoptShard = [&](Worker &W, uint64_t SliceEnd, std::string &Err) {
    WorkerCheckpoint WC;
    if (!ReadShard(W, WC, Err))
      return false;
    if (WC.Next > W.Next && WC.Next <= SliceEnd) {
      restoreWorker(WC, *W.Loop);
      W.Next = WC.Next;
    }
    return true;
  };

  // Validate and restore all resume state before any thread (worker, live
  // observer) or child can observe the workers.
  if (SV.Resume) {
    std::string Err;
    if (Feedback) {
      FeedbackCheckpoint FC;
      if (!readFeedbackCheckpoint(Dir, FC, Err)) {
        ConfigError = "cannot resume: " + Err;
        return;
      }
      Global = std::move(FC.Global);
      Schedule = std::move(FC.Schedule);
      EpochStart = FC.NextOffset;
      if (EpochStart > End ||
          (EpochStart % EpochLen != 0 && EpochStart != End)) {
        ConfigError = "cannot resume: feedback.json records offset " +
                      std::to_string(EpochStart) +
                      ", which is not an epoch boundary";
        return;
      }
    }
    for (auto &W : Workers) {
      WorkerCheckpoint WC;
      if (!ReadShard(*W, WC, Err)) {
        ConfigError = "cannot resume: " + Err;
        return;
      }
      // Under feedback a shard sits at the last barrier or, when a -fanout
      // campaign ended mid-epoch (a lost lease, a killed parent), inside
      // its slice of the next epoch with that slice's coverage pending.
      auto [SliceLo, SliceHi] = SliceOf(W->Index, EpochStart);
      if (Feedback && WC.Next != EpochStart &&
          (WC.Next < SliceLo || WC.Next > SliceHi)) {
        ConfigError = "cannot resume: shard " + std::to_string(W->Index) +
                      " was checkpointed at a different epoch boundary";
        return;
      }
      restoreWorker(WC, *W->Loop);
      W->Next = WC.Next;
    }
  }

  // The one progress record is each worker's cursor. The campaign has done
  // every finished epoch plus each worker's share of its slice of the
  // current one (a blind campaign's one epoch starts at 0 and its slices
  // are the static partition). A cursor still short of its slice (parked
  // at the last barrier, or a -fanout slot an earlier epoch left behind)
  // adds nothing.
  auto DoneAt = [&](auto CursorOf) {
    uint64_t Done = EpochStart;
    for (const auto &W : Workers) {
      const uint64_t SliceLo = SliceOf(W->Index, EpochStart).first;
      Done += std::max<uint64_t>(CursorOf(*W), SliceLo) - SliceLo;
    }
    return Done;
  };
  auto Parked = [](const Worker &W) { return W.Next; };
  TotalDone.store(DoneAt(Parked), std::memory_order_relaxed);
  Restored.store(TotalDone.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);

  // The one stop rule: a stop request (SIGINT/SIGTERM), the test hook's
  // iteration count, or the -t deadline, whichever comes first.
  auto PastDeadline = [&] {
    return Opts.TimeLimitSeconds > 0 &&
           Total.seconds() >= Opts.TimeLimitSeconds;
  };
  auto StopRequested = [&] {
    uint64_t After = StopAfter.load(std::memory_order_relaxed);
    return StopReq.load(std::memory_order_relaxed) ||
           (After && TotalDone.load(std::memory_order_relaxed) >= After) ||
           PastDeadline();
  };
  auto CheckpointWorker = [&](Worker &W) {
    std::string Err;
    bool Ok = writeWorkerCheckpoint(
        Dir, snapshotWorker(W.Index, W.Lo, W.Hi, W.Next, *W.Loop), Err);
    ++W.Loop->mutableRegistry().counter(
        Ok ? "survive.checkpoint.writes" : "survive.checkpoint.failures",
        Volatility::Volatile);
    return Ok;
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
    if (!writeFeedbackCheckpoint(Dir, FC, Err))
      ++Workers[0]->Loop->mutableRegistry().counter(
          "survive.checkpoint.failures", Volatility::Volatile);
  };
  // A fresh campaign's first snapshot: from here on the directory holds
  // only this campaign's shards, whatever an earlier one left there.
  if (Checkpointing && !SV.Resume)
    CheckpointAll();

  // A blind worker checkpoints on its own cadence and stops at any
  // iteration boundary. A feedback worker does neither mid-epoch: its
  // pending coverage would be lost, and an epoch is bounded work anyway.
  const uint64_t Interval =
      Checkpointing && !Feedback
          ? (SV.CheckpointInterval ? SV.CheckpointInterval : 64)
          : 0;
  // One worker's share of an epoch: offsets [W.Next, SliceEnd). A -fanout
  // child passes its lease: the stop flag, the heartbeat, the cursor and
  // the offset in flight then live in the supervisor's control page, and
  // an offset that already killed its predecessors is recorded as a crash
  // bug instead of run again.
  auto RunSlice = [&](Worker &W, uint64_t SliceEnd,
                      const Supervisor::ShardContext *Lease) {
    Timer Leg;
    uint64_t Since = 0;
    for (;;) {
      const uint64_t Off = W.Next;
      if (Off == SliceEnd ||
          (!Feedback && (Lease ? Lease->Stop->load(std::memory_order_relaxed)
                               : StopRequested())))
        break;
      const std::array<double, 4> Before = stageSeconds(W.Loop->stats());
      if (Lease && Lease->Skip->count(Off)) {
        W.Loop->recordKilledSeed(
            Opts.BaseSeed + Off,
            "optimizer process " + Lease->Skip->at(Off) +
                " (supervised shard " + std::to_string(Lease->Index) +
                ", contained by process isolation)");
      } else {
        if (Lease)
          Lease->Cur->store(Off, std::memory_order_release);
        W.Loop->runIteration(Opts.BaseSeed + Off);
        if (Lease)
          Lease->Cur->store(Supervisor::IdleOffset, std::memory_order_release);
      }
      W.Next = Off + 1;
      const std::array<double, 4> After = stageSeconds(W.Loop->stats());
      for (unsigned I = 0; I != 4; ++I)
        StageNanos[I].fetch_add((uint64_t)((After[I] - Before[I]) * 1e9),
                                std::memory_order_relaxed);
      TotalDone.fetch_add(1, std::memory_order_relaxed);
      if (Lease) {
        Lease->Next->store(W.Next, std::memory_order_relaxed);
        Lease->Beat->fetch_add(1, std::memory_order_relaxed);
      }
      if (Interval && ++Since >= Interval) {
        Since = 0;
        CheckpointWorker(W);
      }
    }
    W.LegSeconds += Leg.seconds();
  };

  // The -fanout executor: one supervised lease per worker slice, run by a
  // forked copy of the parent, whose barrier state is already in memory.
  std::unique_ptr<Supervisor> Sup;
  if (Fanout) {
    Sup = std::make_unique<Supervisor>(
        SV.Supervision, [&](const Supervisor::ShardContext &Ctx) -> int {
          // ------- child: runs its worker's slice, checkpoints the shard
          // and exits.
          Worker &W = *Workers[Ctx.Index];
          // A restart continues from its predecessor's checkpoint, which
          // may be behind the cursor the predecessor published.
          std::string Err;
          AdoptShard(W, Ctx.Hi, Err);
          Ctx.Next->store(W.Next, std::memory_order_relaxed);
          // First beat after the restore: the wedge clock should measure
          // iteration progress only.
          Ctx.Beat->fetch_add(1, std::memory_order_relaxed);
          if (faultAt("supervisor.wedge")) {
            // Chaos hook: hang without beating until the wedge detector
            // reaps us (or the campaign stops).
            while (!Ctx.Stop->load(std::memory_order_relaxed))
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
            return 0;
          }
          RunSlice(W, Ctx.Hi, &Ctx);
          settleWorkerSeconds(*W.Loop, W.LegSeconds);
          W.LegSeconds = 0;
          // Exit 3 = "results could not be written": the parent marks the
          // lease Lost instead of retrying forever.
          return CheckpointWorker(W) ? 0 : 3;
        });
    std::string InitErr;
    if (!Sup->init(J, InitErr)) {
      ConfigError = InitErr;
      return;
    }
    // A child's published cursor is never behind its worker's here; one
    // left by an earlier epoch's child is, and then the worker's counts.
    Sup->setStopCheck([&] {
      TotalDone.store(DoneAt([&](const Worker &W) {
                        return std::max(W.Next, Sup->cursor(W.Index));
                      }),
                      std::memory_order_relaxed);
      return !Feedback && StopRequested();
    });
  }

  auto NoteIncident = [&](const std::string &Msg) {
    if (!FanoutIncidents.empty())
      FanoutIncidents += "; ";
    FanoutIncidents += Msg;
  };
  // Runs one epoch's slices as leases, then restores each child's shard
  // checkpoint into its worker. A lost lease keeps whatever its last
  // readable checkpoint holds, and its loss is counted exactly against
  // that.
  auto RunLeases = [&](const std::vector<uint64_t> &SliceEnd) {
    std::vector<LeaseSlice> Slices;
    for (auto &W : Workers) {
      uint64_t From = W->Next;
      if (From != SliceEnd[W->Index])
        Slices.push_back({W->Index, From, SliceEnd[W->Index]});
    }
    SupervisorOutcome SO = Sup->run(Slices, Total);
    Registry.counter("survive.supervisor.restarts", Volatility::Volatile) +=
        SO.Restarts;
    Registry.counter("survive.supervisor.wedges", Volatility::Volatile) +=
        SO.Wedges;
    Registry.counter("survive.supervisor.fork_failures",
                     Volatility::Volatile) += SO.ForkFailures;
    Registry.counter("survive.supervisor.lease_extensions",
                     Volatility::Volatile) += SO.LeaseExtensions;
    for (const ShardOutcome &S : SO.Shards) {
      Worker &W = *Workers[S.Index];
      std::string Err;
      const bool Read = AdoptShard(W, SliceEnd[S.Index], Err);
      // A lease that finished but whose results cannot be read back is a
      // lost shard by any other name: count it, never drop it silently.
      if (!S.Lost && !Read)
        NoteIncident("shard " + std::to_string(S.Index) +
                     " results lost: " + Err);
      if (S.Lost || !Read) {
        const uint64_t Missing = SliceEnd[S.Index] - W.Next;
        DegradedFlag = true;
        LostShardsV.emplace_back(S.Index, Missing);
        if (!S.Note.empty())
          NoteIncident(S.Note + " (" + std::to_string(Missing) +
                       " iterations lost)");
      } else if (!S.Note.empty()) {
        NoteIncident(S.Note);
      }
    }
    TotalDone.store(DoneAt(Parked), std::memory_order_relaxed);
  };

  Running.store(true, std::memory_order_release);
  while (EpochStart < End) {
    if (Feedback && StopRequested())
      break;
    const uint64_t EpochEnd = std::min(End, EpochStart + EpochLen);
    std::vector<uint64_t> SliceEnd(J, 0);
    for (auto &W : Workers) {
      // A resumed cursor may already be past its slice's start.
      auto [Lo, Hi] = SliceOf(W->Index, EpochStart);
      W->Next = std::max(Lo, W->Next);
      SliceEnd[W->Index] = Hi;
    }
    if (Sup) {
      RunLeases(SliceEnd);
    } else {
      std::vector<std::thread> Threads;
      for (auto &W : Workers)
        Threads.emplace_back(RunSlice, std::ref(*W), SliceEnd[W->Index],
                             nullptr);
      for (std::thread &T : Threads)
        T.join();
    }
    // A blind campaign is one epoch. A feedback epoch left unfinished by a
    // lost -fanout lease ends the campaign before its barrier; the
    // checkpoint keeps it resumable.
    if (!Feedback || std::any_of(Workers.begin(), Workers.end(), [&](auto &W) {
          return W->Next != SliceEnd[W->Index];
        }))
      break;
    EpochStart = EpochEnd;

    // The epoch barrier: merge the coverage deltas (the OR makes the
    // order irrelevant), then advance the schedule as a pure function of
    // the cumulative maps. Every worker is now done with the epoch.
    FeedbackMap Prev = Global;
    for (auto &W : Workers) {
      Global.merge(W->Loop->takeFeedback());
      W->Next = EpochStart;
    }
    Schedule.update(Prev, Global);
    if (Checkpointing)
      CheckpointAll();
  }

  Running.store(false, std::memory_order_release);

  for (auto &W : Workers)
    settleWorkerSeconds(*W->Loop, W->LegSeconds);
  // Final snapshot with the settled books: a stopped campaign resumes
  // from here, a finished one records Next == Hi.
  if (Checkpointing)
    CheckpointAll();

  // Before the loop below takes the workers' recorders.
  Profile = mergeProfile(Opts, Workers);
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
  for (const auto &W : Workers) {
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
    if (W->Next != W->Hi)
      Interrupted = true;
  }
  std::stable_sort(Bugs.begin(), Bugs.end(),
                   [](const BugRecord &A, const BugRecord &B) {
                     return A.MutantSeed < B.MutantSeed;
                   });
  // Without -n the deadline is the campaign's planned end, not a cut.
  if (!Opts.Iterations && PastDeadline())
    Interrupted = false;
  if (DegradedFlag) {
    uint64_t LostTotal = 0;
    for (const auto &LS : LostShardsV)
      LostTotal += LS.second;
    Registry.counter("survive.degraded.shards", Volatility::Volatile) +=
        LostShardsV.size();
    Registry.counter("survive.degraded.lost_iterations",
                     Volatility::Volatile) += LostTotal;
  }
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
