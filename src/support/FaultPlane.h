//===- support/FaultPlane.h - Deterministic fault injection ----*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seed-driven fault-injection plane. Every syscall-shaped
/// edge the campaign touches is wrapped in a named *fault point*
/// (checkpoint.write, supervisor.fork, corpus.read, ...). In production
/// nothing is armed and faultAt() is a single relaxed atomic load. Under
/// test, a `-inject-fault=<point>:<spec>[,<point>:<spec>...]` flag arms
/// points:
///
///   <point>:nth:<N>    fail exactly the Nth call (1-based), once
///   <point>:every:<K>  fail every Kth call
///   <point>:p:<P>      fail each call with probability P, driven by a
///                      dedicated splitmix64 stream derived from the fault
///                      seed and the point name — campaign RandomGenerator
///                      state is never touched, so arming faults cannot
///                      perturb which mutants a campaign generates.
///
/// Per-point call and trigger counters are kept for every armed point and
/// surfaced in the volatile run-report block, so a chaos run
/// can assert "the fault actually fired N times" instead of hoping.
///
/// The plane is process-global and fork-inherited: a child forked by the
/// supervisor sees the same armed table. Counter state is
/// per-process after the fork (children do not write back), which the
/// supervisor exploits by evaluating child-kill faults in the parent.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_FAULTPLANE_H
#define SUPPORT_FAULTPLANE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace alive {

/// One splitmix64 step. The standalone PRNG used for fault-probability
/// streams and retry jitter — deliberately NOT RandomGenerator, so the
/// robustness machinery can never consume campaign randomness.
inline uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Observable accounting for one armed fault point.
struct FaultPointCounters {
  std::string Point;
  std::string Spec;      ///< the armed spec, as parsed ("nth:3", "p:0.25")
  uint64_t Calls = 0;    ///< times the guarded edge was reached
  uint64_t Triggers = 0; ///< times the fault fired
};

/// The process-global fault-injection table.
class FaultPlane {
public:
  static FaultPlane &instance();

  /// Parses and arms a comma-separated `<point>:<spec>` list. Unknown
  /// point names and malformed specs are config errors (\returns false,
  /// fills \p Error). Arming replaces any previous table.
  bool arm(const std::string &SpecList, std::string &Error);

  /// Disarms every point and zeroes all counters.
  void reset();

  /// Reseeds the probability streams (before arm(); default is fixed, so
  /// two identically-armed processes draw identical fault sequences).
  void setSeed(uint64_t Seed);

  /// Reached a guarded edge. Counts the call and decides whether the
  /// fault fires. Unarmed points always return false (and are not
  /// counted: only armed points carry counters).
  bool shouldFail(const char *Point);

  /// Fast path: anything armed at all?
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Counter snapshot for every armed point, in arm order.
  std::vector<FaultPointCounters> counters() const;

  /// Every fault point the codebase defines, for arm()-time validation
  /// and the DESIGN.md fault-model table.
  static const std::vector<std::string> &knownPoints();

private:
  FaultPlane() = default;

  struct Point {
    std::string Name;
    std::string Spec;
    enum class Mode { Nth, Every, Prob } M = Mode::Nth;
    uint64_t N = 0;      ///< nth / every-k parameter
    double P = 0;        ///< probability parameter
    uint64_t Stream = 0; ///< splitmix64 state (Prob mode)
    uint64_t Calls = 0;
    uint64_t Triggers = 0;
  };

  std::atomic<bool> Armed{false};
  mutable std::mutex M;
  std::vector<Point> Points;
  uint64_t Seed = 0x2545F4914F6CDD1DULL;
};

/// The one call sites make: `if (faultAt("checkpoint.write")) ...fail...`.
/// Free of any cost when nothing is armed.
inline bool faultAt(const char *Point) {
  FaultPlane &F = FaultPlane::instance();
  return F.armed() && F.shouldFail(Point);
}

} // namespace alive

#endif // SUPPORT_FAULTPLANE_H
