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
/// One trigger, a *step budget*: the instrumented stages consume abstract
/// steps (interpreter instructions, solver conflicts, pass sweeps) and the
/// token trips when the per-iteration budget is exhausted. The trip point
/// is a pure function of the seed and the budget, so every timeout
/// reproduces exactly, across runs and across worker counts. A hang that
/// never polls the token escapes it; under -fanout the supervisor's lease
/// deadline catches that one.
///
/// A standalone loop's -t deadline also lives here (setDeadline), so that
/// the end of the campaign cuts a running query short instead of waiting
/// it out. It is no watchdog: a deadline stop ends the campaign and is
/// never recorded as a timeout, so timeouts stay deterministic.
///
/// Only the owning thread touches a token.
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
  /// Starts a new iteration: resets the step counter and the cancel flag
  /// and sets the step budget (0 = unlimited).
  void beginIteration(uint64_t Budget) {
    StepBudget = Budget;
    StepsUsed = 0;
    Cancelled = DeadlinePassed;
  }

  /// Arms a wall-clock deadline \p Seconds from now, or disarms it when
  /// \p Seconds <= 0. It outlives beginIteration: once it has passed, the
  /// token stays cancelled and deadlinePassed() says why. consume() reads
  /// the clock every ClockCadence calls.
  void setDeadline(double Seconds) {
    HasDeadline = Seconds > 0;
    DeadlinePassed = false;
    if (HasDeadline)
      Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(Seconds));
  }

  /// Consumes \p N steps. \returns true when the token is (now) cancelled —
  /// callers unwind cooperatively.
  bool consume(uint64_t N = 1) {
    if (Cancelled)
      return true;
    if (StepBudget) {
      StepsUsed += N;
      Cancelled = StepsUsed > StepBudget;
    }
    if (HasDeadline && ++Polls % ClockCadence == 0 &&
        Clock::now() >= Deadline)
      Cancelled = DeadlinePassed = true;
    return Cancelled;
  }

  bool cancelled() const { return Cancelled; }
  bool deadlinePassed() const { return DeadlinePassed; }

private:
  using Clock = std::chrono::steady_clock;
  static constexpr uint64_t ClockCadence = 16;

  uint64_t StepsUsed = 0;
  uint64_t StepBudget = 0;
  bool Cancelled = false;
  bool HasDeadline = false;
  bool DeadlinePassed = false;
  uint64_t Polls = 0;
  Clock::time_point Deadline;
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
