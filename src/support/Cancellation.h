//===- support/Cancellation.h - Cooperative iteration watchdog --*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The survivability layer's cancellation primitive: a cooperative token
/// threaded through the pass manager, the interpreter and the refinement
/// checker so a hung iteration becomes a recorded Timeout outcome instead
/// of a wedged campaign.
///
/// Two triggers, deliberately separate:
///   - a *step budget*: the instrumented stages consume abstract steps
///     (interpreter instructions, solver conflicts, pass sweeps) and the
///     token trips when the per-iteration budget is exhausted. The trip
///     point is deterministic per seed — step-budget timeouts reproduce
///     exactly, across runs and across worker counts;
///   - a *wall-clock deadline*: beginIteration may also arm a deadline,
///     and consume()/cancelled() trip once it has passed. The clock is
///     read on every ClockCadence-th poll only, so a deadline costs the
///     hot paths one counter increment per poll. Inherently
///     nondeterministic — the engine keeps wall-clock timeout counts out
///     of the deterministic report section.
///
/// Only the owning thread touches a token: every trigger is evaluated
/// inside its own polls, so no other thread ever needs to reach in.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_CANCELLATION_H
#define SUPPORT_CANCELLATION_H

#include <chrono>
#include <cstdint>

namespace alive {

/// One worker's cancellation state, reset per iteration.
class CancellationToken {
public:
  enum class Reason : uint32_t {
    None = 0,
    StepBudget = 1, ///< deterministic: the per-iteration step budget ran out
    WallClock = 2,  ///< nondeterministic: the wall-clock deadline passed
  };

  /// Polls (consume/cancelled calls) between two reads of the clock while
  /// a deadline is armed.
  static constexpr unsigned ClockCadence = 16;

  /// Starts a new iteration: resets the step counter and the cancel flag,
  /// sets the step budget (0 = unlimited) and arms a deadline
  /// \p WallSeconds from now (0 = none).
  void beginIteration(uint64_t Budget, double WallSeconds = 0) {
    StepBudget = Budget;
    StepsUsed = 0;
    Flag = Reason::None;
    Polls = 0;
    HasDeadline = WallSeconds > 0;
    if (HasDeadline)
      Deadline = Clock::now() +
                 std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(WallSeconds));
  }

  /// Consumes \p N steps. \returns true when the token is (now) cancelled —
  /// callers unwind cooperatively. A budget that runs out trips before
  /// the deadline is consulted.
  bool consume(uint64_t N = 1) {
    if (Flag != Reason::None)
      return true;
    if (StepBudget) {
      StepsUsed += N;
      if (StepsUsed > StepBudget) {
        Flag = Reason::StepBudget;
        return true;
      }
    }
    return pastDeadline();
  }

  bool cancelled() const { return Flag != Reason::None || pastDeadline(); }

  Reason reason() const { return Flag; }

private:
  using Clock = std::chrono::steady_clock;

  /// Trips the token with WallClock when this poll is a clock poll and the
  /// deadline has passed.
  bool pastDeadline() const {
    if (!HasDeadline || ++Polls % ClockCadence != 0 ||
        Clock::now() < Deadline)
      return false;
    Flag = Reason::WallClock;
    return true;
  }

  uint64_t StepsUsed = 0;
  uint64_t StepBudget = 0;
  Clock::time_point Deadline;
  bool HasDeadline = false;
  // Mutable: cancelled() is a const poll that may trip the deadline.
  mutable unsigned Polls = 0;
  mutable Reason Flag = Reason::None;
};

/// Installs \p Token as the calling thread's ambient cancellation token for
/// the scope's lifetime (mirrors BugContextScope): deep callees that take
/// no token parameter — e.g. the fault-injection test passes — cooperate
/// via currentCancellationToken().
class CancellationScope {
public:
  explicit CancellationScope(CancellationToken *Token);
  ~CancellationScope();
  CancellationScope(const CancellationScope &) = delete;
  CancellationScope &operator=(const CancellationScope &) = delete;

private:
  CancellationToken *Prev;
};

/// The calling thread's ambient token (null outside any scope).
CancellationToken *currentCancellationToken();

} // namespace alive

#endif // SUPPORT_CANCELLATION_H
