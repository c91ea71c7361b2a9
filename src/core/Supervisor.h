//===- core/Supervisor.h - Multi-process shard lease supervisor -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process executor behind -fanout=N: a control loop with real lease
/// management. The engine slices each epoch across its workers and hands
/// the Supervisor one *lease* per non-empty slice; the Supervisor forks
/// one child per lease and owns everything that can go wrong on the
/// process boundary:
///
///   - **Heartbeats.** Every child publishes (current offset, done count,
///     beat tick) into a MAP_SHARED control page. A running
///     lease whose beat tick stops advancing for HeartbeatSeconds is
///     a wedge *suspect* — but silence alone cannot distinguish a wedge
///     (deadlock, hung syscall) from one legitimately long solver query
///     on an oversubscribed host, so the detector consults the child's
///     CPU clock (/proc/<pid>/stat): meaningful CPU progress over the
///     silent window extends the lease; a child that sat idle through it
///     is *wedged* — SIGKILLed, and the death treated like any other (the
///     restarted child resumes from its checkpoint).
///
///   - **Restarts.** A dead or wedged child is restarted after
///     FirstDelaySeconds, doubling per consecutive death, until its lease
///     has died RestartBudget times (SupervisorConfig, the one policy).
///     Progress resets the count: only a shard that keeps dying *without
///     advancing* exhausts it.
///
///   - **Crash attribution.** A death with a seed in flight is retried
///     first — an externally killed child (chaos fault, OOM killer) must
///     not perturb the deterministic report. Only when the *same* offset
///     takes the process down SeedDeathThreshold (2) times does it join
///     the lease's skip list, with the death's description; the restarted
///     child records it as a crash instead of running it again.
///
///   - **Degradation, never silence.** A lease whose budget is exhausted
///     (or whose results cannot be written) becomes *Lost*; the engine
///     counts its exact missing iterations from the shard's last
///     checkpoint, the run report flags `degraded: true` and alive-mutate
///     exits 3.
///
/// Determinism: the merged deterministic report section is byte-identical
/// to -j1 whenever no lease ends Lost — restarts, backoff and external
/// kills only cost wall clock, never outcomes.
///
/// The Supervisor is deliberately generic: it knows processes, leases,
/// heartbeats and restarts, but not fuzzing or partitions. The child's work
/// is a ShardBody callback (run after fork, returns the exit code) that
/// CampaignEngine wires to the same worker slice its threads run; the
/// child records the skipped offsets' crash bugs itself, so they reach
/// the parent in the shard checkpoint like every other result.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_SUPERVISOR_H
#define CORE_SUPERVISOR_H

#include "core/FuzzerLoop.h"
#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace alive {

/// One lease of an epoch: shard \p Index runs seed offsets [Lo, Hi).
struct LeaseSlice {
  unsigned Index = 0;
  uint64_t Lo = 0, Hi = 0;
};

/// Final accounting for one shard lease.
struct ShardOutcome {
  unsigned Index = 0;
  /// Lease permanently lost: restart budget exhausted or results
  /// unwritable.
  bool Lost = false;
  /// Human-readable incident note ("" when clean).
  std::string Note;
};

/// What the control loop observed over one run().
struct SupervisorOutcome {
  uint64_t Restarts = 0;        ///< child respawns (all causes)
  uint64_t Wedges = 0;          ///< heartbeat-deadline kills
  uint64_t ForkFailures = 0;    ///< failed/injected fork attempts
  uint64_t LeaseExtensions = 0; ///< beat-silent children spared for CPU progress
  /// One outcome per lease, in the order run() was given them.
  std::vector<ShardOutcome> Shards;
};

/// Forks, watches, restarts and accounts shard leases.
class Supervisor {
public:
  /// The idle sentinel a child stores in Cur between iterations.
  static constexpr uint64_t IdleOffset = ~0ull;
  /// Same offset killing the process this many times => the child skips
  /// it and records a crash bug. The first death retries the seed, so an
  /// external kill cannot perturb the deterministic report.
  static constexpr unsigned SeedDeathThreshold = 2;

  /// Offsets attributed as crashes, each with its last death ("killed by
  /// SIGSEGV").
  using SkipList = std::map<uint64_t, std::string>;

  /// The child's view of its lease: the slice to run, offsets to skip
  /// (previously attributed crashes), and its slots in the shared
  /// control page. All pointers live in the MAP_SHARED page except Skip
  /// (copy-on-write snapshot of the parent's list at fork time).
  struct ShardContext {
    unsigned Index = 0;
    uint64_t Lo = 0, Hi = 0;
    const SkipList *Skip = nullptr;
    /// Offset in flight (IdleOffset between iterations). Release-stored
    /// by the child, acquire-read by the parent's crash attributor.
    std::atomic<uint64_t> *Cur = nullptr;
    /// The shard's done counter (see doneCounter()); the child bumps it
    /// once per finished iteration.
    std::atomic<uint64_t> *Done = nullptr;
    /// Liveness tick: bump at least once per iteration (and once at
    /// body start); the wedge detector watches it.
    std::atomic<uint64_t> *Beat = nullptr;
    /// Cooperative stop flag, set by the parent.
    const std::atomic<uint32_t> *Stop = nullptr;
  };

  /// Runs in the forked child; its return value becomes the exit code.
  /// Exit 0 = lease complete (or cooperatively stopped) with results
  /// written; exit 3 = results could not be written (lease => Lost).
  using ShardBody = std::function<int(const ShardContext &)>;

  /// Polled each loop turn with the campaign-wide done count; returning
  /// true raises the cooperative stop flag (children checkpoint + exit 0).
  using StopCheck = std::function<bool(uint64_t DoneTotal)>;

  Supervisor(SupervisorConfig C, ShardBody Body);
  ~Supervisor();
  Supervisor(const Supervisor &) = delete;
  Supervisor &operator=(const Supervisor &) = delete;

  /// Maps the control page with one heartbeat slot per shard. \returns
  /// false with \p Error filled when the page cannot be mapped. Must
  /// succeed before run().
  bool init(unsigned Shards, std::string &Error);

  /// Shard \p I's done counter in the control page: iterations finished
  /// by its children, for the engine's -progress refs and the stop check.
  /// The engine seeds it with the shard's harvested total before each
  /// run(). Valid between init() and destruction.
  std::atomic<uint64_t> *doneCounter(unsigned I);

  void setStopCheck(StopCheck S) { ShouldStop = std::move(S); }

  /// Runs one lease per slice to completion: every lease Done or Lost.
  /// Shards keep their restart counts from earlier runs. \p Total is the
  /// campaign wall clock (backoff deadlines are expressed against it).
  SupervisorOutcome run(const std::vector<LeaseSlice> &Slices, Timer &Total);

private:
  struct Lease {
    enum class State { Pending, Running, Done, Lost };
    unsigned Index = 0;
    uint64_t Lo = 0, Hi = 0;
    State St = State::Pending;
    pid_t Pid = -1;
    /// Deaths (and failed forks) since the last progress; the next
    /// restart waits FirstDelaySeconds << Restarts.
    unsigned Restarts = 0;
    /// Backoff gate: do not respawn before this Total.seconds() stamp.
    double RestartAt = 0;
    /// Wedge detection: last beat tick observed and when it changed.
    uint64_t LastBeat = 0;
    double LastBeatAt = 0;
    /// Child CPU seconds at the last beat (or lease extension): the wedge
    /// detector's second signal. A beat-silent child that keeps burning
    /// CPU is mid-solver-query, not wedged.
    double CpuAtBeat = 0;
    /// Done count at the previous death, for progress-based budget refill.
    uint64_t DoneAtDeath = 0;
    /// True when the parent itself sent SIGKILL (wedge or injected chaos
    /// kill): the death must not be attributed to the seed in flight.
    bool KilledByUs = false;
    /// Per-offset death counts driving the retry-then-skip policy.
    std::map<uint64_t, unsigned> DeathsAt;
    /// Offsets attributed as crashes; the respawned child records them.
    SkipList Skip;
    std::string Note;
  };

  bool spawn(Lease &L, double Now);
  /// Counts one death or failed fork of \p L: schedules its restart, or
  /// marks it lost once the budget is spent. \returns true on restart.
  bool backOff(Lease &L, double Now, const std::string &Why);
  void markLost(Lease &L, const std::string &Why);
  void appendNote(Lease &L, const std::string &Msg);

  SupervisorConfig Cfg;
  ShardBody Body;
  StopCheck ShouldStop;

  /// The MAP_SHARED control page: Control block + one HeartbeatSlot per
  /// shard (layout in Supervisor.cpp).
  void *Page = nullptr;
  size_t PageSize = 0;
  /// One lease per shard; run() re-aims them at each epoch's slices.
  std::vector<Lease> Leases;
};

} // namespace alive

#endif // CORE_SUPERVISOR_H
