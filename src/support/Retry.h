//===- support/Retry.h - Bounded exponential backoff policy ----*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The restart policy shared by everything that respawns a failed child:
/// bounded exponential backoff with deterministic jitter. A RetryPolicy is
/// plain configuration; a RetryState tracks one retry sequence (a shard
/// lease) and hands out delays. Jitter draws from a
/// private splitmix64 stream keyed by (policy seed, stream tag), so two
/// identically-configured supervisors back off on identical schedules —
/// chaos runs stay reproducible — while distinct leases still de-correlate.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_RETRY_H
#define SUPPORT_RETRY_H

#include <cstdint>
#include <string>

namespace alive {

/// Backoff configuration. Delays double per attempt from Base, capped at
/// Max, with +/- JitterFraction deterministic jitter.
struct RetryPolicy {
  unsigned MaxAttempts = 5;      ///< budget before the caller gives up
  double BaseDelaySeconds = 0.05;
  double MaxDelaySeconds = 5.0;
  double JitterFraction = 0.1;   ///< delay *= 1 +/- this
  uint64_t JitterSeed = 0x243F6A8885A308D3ULL;
};

/// One retry sequence under a policy.
class RetryState {
public:
  explicit RetryState(const RetryPolicy &Policy, uint64_t StreamTag = 0);

  /// True once the attempt budget is spent.
  bool exhausted() const { return Attempts >= Policy.MaxAttempts; }

  /// Records one failure and \returns the delay to wait before the next
  /// attempt (bounded exponential + deterministic jitter).
  double nextDelaySeconds();

  /// Attempts consumed so far.
  unsigned attempts() const { return Attempts; }

  /// The supervised work made real progress: refill the budget (a child
  /// that advances its checkpoint should never run out of restarts from
  /// ancient, unrelated failures).
  void noteProgress() { Attempts = 0; }

private:
  RetryPolicy Policy;
  unsigned Attempts = 0;
  uint64_t Stream = 0;
};

/// Human-readable one-liner ("5 attempts, 0.05s..5s backoff, 10% jitter")
/// for config echo and error messages.
std::string describeRetryPolicy(const RetryPolicy &Policy);

} // namespace alive

#endif // SUPPORT_RETRY_H
