//===- core/Checkpoint.h - Campaign checkpoint/resume ----------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Periodic campaign checkpoints: enough state to kill a campaign at any
/// iteration boundary and resume it such that the completed run's
/// *deterministic* report section is byte-identical to an uninterrupted
/// run. That works because the loop is seed-deterministic — mutant i is a
/// pure function of BaseSeed + i — so the only "RNG state" a worker needs
/// is its next seed. Everything else in a checkpoint is accumulated
/// output: FuzzStats, the bug list, the registry counters and, under
/// -profile, the query cost tracker and the span folds.
///
/// Layout: <dir>/meta.json (campaign identity: the config record, seed
/// range, job count and module hash — resume refuses a checkpoint taken
/// under different inputs) plus one <dir>/shard-<i>.json per worker.
/// Writes are atomic (tmp file + rename), so a kill mid-checkpoint leaves
/// the previous consistent snapshot in place.
///
/// Doubles (stage seconds) round-trip through JSON as their raw IEEE-754
/// bit patterns in uint64 fields — the repo's integer-exact JSON parser
/// then restores them bit-for-bit, which decimal formatting would not.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_CHECKPOINT_H
#define CORE_CHECKPOINT_H

#include "core/FuzzerLoop.h"

#include <map>
#include <string>
#include <vector>

namespace alive {

/// Bump when the checkpoint layout changes incompatibly; resume refuses
/// other versions rather than guessing. v2 added the feedback pins to the
/// meta and the <dir>/feedback.json state file; v3 added each shard's
/// pending coverage; v4 added each shard's -profile state; v5 made the
/// meta the campaign config record (campaignConfig) plus the seed range,
/// the shard count and the module hash.
constexpr unsigned CheckpointSchemaVersion = 5;

/// One worker's resumable state.
struct WorkerCheckpoint {
  unsigned Index = 0;
  /// Static seed-offset partition [Lo, Hi) this worker owns.
  uint64_t Lo = 0, Hi = 0;
  /// Next seed offset to run (== Hi when the worker finished).
  uint64_t Next = 0;
  FuzzStats Stats;
  /// Feedback coverage not yet merged at an epoch barrier: empty at every
  /// barrier, the finished slice's delta in a -fanout child's checkpoint.
  FeedbackMap Pending;
  std::vector<BugRecord> Bugs;
  /// Registry counters with their volatility, name-ordered.
  struct Counter {
    std::string Name;
    uint64_t Value = 0;
    bool IsVolatile = false;
  };
  std::vector<Counter> Counters;
  /// -profile state (both empty when profiling is off): the cost
  /// tracker's queries and the recorder's self nanoseconds per span stack.
  std::vector<QueryCost> Queries;
  std::map<std::string, uint64_t> SpanFolds;
};

/// Pins the campaign identity in <dir>/meta.json: \p O's config record
/// plus -n, the base seed, \p Jobs (the effective worker or lease count)
/// and a hash of \p M's printed text (fnv1a64, ShortFnvBasis). A fresh
/// campaign writes it; under O.Survival.Resume the stored record is read
/// into a FuzzOptions, written out again and compared key by key with
/// this one. \returns false with \p Error set on an I/O failure, another
/// schema version, or the first key that differs ("checkpoint mismatch:
/// -step-budget was 0, resuming with 50").
bool pinCheckpointIdentity(const std::string &Dir, const FuzzOptions &O,
                           unsigned Jobs, const Module &M, std::string &Error);

/// Writes shard-<Index>.json under \p Dir. Atomic.
bool writeWorkerCheckpoint(const std::string &Dir, const WorkerCheckpoint &W,
                           std::string &Error);

/// Reads shard-<Index>.json. \returns false with \p Error set on any
/// problem (a missing shard file is an error: resume needs all of them).
bool readWorkerCheckpoint(const std::string &Dir, unsigned Index,
                          WorkerCheckpoint &W, std::string &Error);

/// Captures a worker loop's current state into a WorkerCheckpoint.
WorkerCheckpoint snapshotWorker(unsigned Index, uint64_t Lo, uint64_t Hi,
                                uint64_t Next, const FuzzerLoop &Loop);

/// Restores a snapshot into a worker loop (stats, bugs, registry counters,
/// pending coverage, and the cost tracker and span folds when the loop
/// profiles).
void restoreWorker(const WorkerCheckpoint &W, FuzzerLoop &Loop);

/// Feedback-mode campaign state, checkpointed only at epoch boundaries
/// (worker pending maps are empty there, so the global map plus the
/// schedule and the next epoch's first offset are the complete state).
struct FeedbackCheckpoint {
  FeedbackMap Global;
  ScheduleState Schedule;
  /// First seed offset of the next epoch (== Iterations when finished).
  uint64_t NextOffset = 0;
};

/// Writes <dir>/feedback.json. Atomic.
bool writeFeedbackCheckpoint(const std::string &Dir,
                             const FeedbackCheckpoint &F, std::string &Error);

/// Reads <dir>/feedback.json. \returns false with \p Error set when
/// missing or malformed — a feedback-mode resume needs it.
bool readFeedbackCheckpoint(const std::string &Dir, FeedbackCheckpoint &F,
                            std::string &Error);

} // namespace alive

#endif // CORE_CHECKPOINT_H
