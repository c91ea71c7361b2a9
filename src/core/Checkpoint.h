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
/// Layout: <dir>/meta.json (campaign identity: pipeline, seed range, job
/// count, step budget, module hash — resume refuses a checkpoint taken
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
/// pending coverage; v4 added each shard's -profile state.
constexpr unsigned CheckpointSchemaVersion = 4;

/// Campaign identity, pinned at checkpoint time and verified at resume:
/// resuming under a different module, pipeline, seed range or job count
/// would silently produce a report that matches neither run.
struct CheckpointMeta {
  std::string Passes;
  uint64_t Iterations = 0;
  uint64_t BaseSeed = 0;
  unsigned Jobs = 0;
  unsigned MaxMutationsPerFunction = 0;
  bool InjectBugs = false;
  /// Feedback-mode identity: the schedule (and therefore every mutant
  /// after the first epoch) depends on both, so resuming under a
  /// different feedback configuration is a mismatch.
  bool FeedbackOn = false;
  unsigned EpochLength = 0;
  /// Which checks time out and which functions are verified at all: a
  /// run resumed under another step budget or skip rule would merge two
  /// configurations' outcomes. A meta written without them reads as the
  /// defaults (0 and true).
  uint64_t StepBudget = 0;
  bool SkipUnchanged = true;
  /// fnv1a64 (ShortFnvBasis) of the preprocessed master module's printed
  /// text.
  uint64_t ModuleHash = 0;
};

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

/// Writes meta.json under \p Dir (created if missing). Atomic.
bool writeCheckpointMeta(const std::string &Dir, const CheckpointMeta &M,
                         std::string &Error);

/// Reads and validates meta.json. \returns false with \p Error set when
/// missing, malformed, or a different schema version.
bool readCheckpointMeta(const std::string &Dir, CheckpointMeta &M,
                        std::string &Error);

/// Compares a resume-time meta against the stored one; fills \p Error
/// with the first mismatch ("checkpoint was taken with -j 4, resuming
/// with -j 2") when they differ.
bool checkpointMetaMatches(const CheckpointMeta &Stored,
                           const CheckpointMeta &Current, std::string &Error);

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
