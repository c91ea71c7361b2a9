//===- support/SignalGuard.h - In-process fatal-signal containment -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Best-effort in-process containment of fatal signals for the campaign's
/// survivability layer: run a callable and, if it raises SIGABRT / SIGFPE /
/// SIGILL / SIGBUS / SIGSEGV on the calling thread, long-jump back to the
/// call site instead of dying. This is the cheap fallback used when -fanout
/// (real child-process containment) is off.
///
/// Hard limitations, by construction:
///   - the jump skips destructors between the signal point and the call
///     site: memory and locks held by the interrupted code leak. The
///     fuzzing loop only guards the optimizer pipeline and abandons the
///     mutant afterwards, so the leak is bounded and the campaign state
///     stays coherent — but this is NOT a general-purpose recovery tool;
///   - the interrupted data structures (the mutant module) must be treated
///     as torn and never touched again;
///   - signals on *other* threads, stack overflow, and heap corruption
///     that re-faults inside the handler still kill the process — that is
///     what -fanout is for.
///
/// A signal arriving while no guard is armed on the thread re-raises with
/// the default disposition, so guarded binaries keep their normal
/// crash-and-core behavior outside the guarded region.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_SIGNALGUARD_H
#define SUPPORT_SIGNALGUARD_H

#include <functional>

namespace alive {

/// Runs \p Fn with the fatal-signal guard armed on the calling thread.
/// \returns true when Fn completed (or threw — C++ exceptions propagate
/// normally); false when a fatal signal was contained, with the signal
/// number in \p SigOut. Reentrant per thread (guards nest); thread-safe.
bool runWithSignalGuard(const std::function<void()> &Fn, int &SigOut);

/// "SIGSEGV" etc. for the signals the guard handles; "signal <n>" otherwise.
const char *signalName(int Sig);

} // namespace alive

#endif // SUPPORT_SIGNALGUARD_H
