//===- core/Observability.h - Live campaign observation types --*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared types of the live observability plane: streamed campaign
/// events with their bounded MPSC queue, and the point-in-time snapshot a
/// running CampaignEngine exposes to observer threads.
///
/// The plane is strictly *observer-only*: everything here is read-side.
/// Workers push events through a non-blocking bounded queue (a full queue
/// drops the event and counts the drop — a slow or absent observer can
/// never stall an iteration), and the engine's live snapshot reads only
/// relaxed atomics and mutex-guarded registry structure. Nothing on this
/// path touches a RandomGenerator or any state serialized into the
/// deterministic report section, which is how -j1 == -jN byte-identity
/// and -resume byte-equality survive having a metrics server attached.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_OBSERVABILITY_H
#define CORE_OBSERVABILITY_H

#include "support/Telemetry.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace alive {

/// One campaign instant worth streaming to a live observer.
struct CampaignEvent {
  enum class Kind : uint8_t {
    CampaignStart,
    BugFound,     ///< any recorded bug: miscompile, crash, invalid, timeout
    EpochBarrier, ///< a feedback epoch merged and rescheduled
    Checkpoint,   ///< a checkpoint snapshot hit disk
    ShardRestart, ///< a -fanout child died and was restarted
    CampaignEnd,
  };

  Kind K = Kind::BugFound;
  uint64_t Seed = 0;     ///< mutant seed (bug events; 0 = n/a)
  unsigned Shard = 0;    ///< originating worker/shard index
  uint64_t Nanos = 0;    ///< TraceRecorder::now() at emission
  std::string Detail;    ///< kind-specific: verdict slug, function, epoch...
};

/// The SSE event name for \p K ("bug-found", "epoch-barrier", ...).
const char *campaignEventName(CampaignEvent::Kind K);

/// A bounded multi-producer single-consumer event queue. push() never
/// blocks beyond a short mutex critical section and never waits for the
/// consumer: when the ring is full the event is dropped and counted.
/// Producers are campaign workers (bug sites, checkpoint lambdas); the
/// single consumer is the metrics server's tick, which drains in batches.
class CampaignEventQueue {
public:
  explicit CampaignEventQueue(size_t Capacity = 1024);

  /// Enqueues \p E. \returns false (and counts a drop) when full.
  bool push(CampaignEvent E);

  /// Moves every queued event into \p Out (appending), oldest first.
  /// \returns the number of events drained.
  size_t drain(std::vector<CampaignEvent> &Out);

  /// Events dropped because the queue was full.
  uint64_t dropped() const {
    return Dropped.load(std::memory_order_relaxed);
  }
  /// Events ever accepted (each gets a monotonically increasing sequence
  /// number, used as the SSE event id).
  uint64_t accepted() const {
    return Accepted.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return Cap; }

private:
  const size_t Cap;
  mutable std::mutex M;
  std::vector<CampaignEvent> Ring; ///< [Head, Head+Size) mod Cap
  size_t Head = 0;
  size_t Size = 0;
  std::atomic<uint64_t> Accepted{0};
  std::atomic<uint64_t> Dropped{0};
};

/// Live per-shard progress as seen by an observer thread.
struct ShardLiveState {
  unsigned Index = 0;
  uint64_t Lo = 0, Hi = 0;  ///< seed-offset slice (Hi == 0: dynamic/unknown)
  uint64_t Done = 0;        ///< iterations completed
  uint64_t StageNanos[4] = {}; ///< mutate/optimize/verify/overhead
  uint64_t TraceDropped = 0;   ///< flight-recorder ring overwrites so far
  bool HasRegistry = false; ///< false for -fanout (out-of-process) shards
};

/// A point-in-time view of a running (or finished) campaign. Produced by
/// CampaignEngine::liveSnapshot(); every field is copied out, so readers
/// hold no locks while rendering.
struct CampaignLiveSnapshot {
  bool Running = false;      ///< run() is currently between setup and join
  double Elapsed = 0;        ///< seconds since run() started
  uint64_t Done = 0;         ///< iterations completed, all shards
  uint64_t Target = 0;       ///< planned iterations (0 = time-limited)
  unsigned Workers = 0;
  bool Isolated = false;     ///< shards are child processes
  /// The campaign permanently lost a shard lease (-fanout retry budget
  /// exhausted): /healthz reports 503 until a clean run replaces this.
  bool Degraded = false;
  std::vector<ShardLiveState> Shards;
  /// Merged registry view: the engine's own registry plus a snapshot of
  /// every live worker registry (always safe: worker stat values are
  /// relaxed atomics, map structure is mutex-guarded).
  StatRegistry Stats;
  /// Feedback state published at the last epoch barrier (all zero when
  /// -feedback is off or no barrier has completed yet).
  bool FeedbackEnabled = false;
  uint64_t FeedbackEpochs = 0;
  unsigned FeedbackBits = 0; ///< cumulative coverage bits set
  std::vector<std::pair<std::string, uint32_t>> FamilyWeights;
};

} // namespace alive

#endif // CORE_OBSERVABILITY_H
