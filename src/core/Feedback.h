//===- core/Feedback.h - Rule-coverage feedback & scheduling ---*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The feedback-directed scheduling subsystem: per-iteration rule-coverage
/// bitmaps (which rewrite rules fired during optimize, plus the TV verdict
/// class), accumulated into per-function / per-family / global coverage
/// maps, and an AFL-style schedule derived from them.
///
/// Determinism contract (the whole design hangs on it):
///   - an iteration's bitmap is a pure function of its seed — rule firing
///     is seed-pure, and a timed-out iteration contributes nothing: its
///     pipeline or verify loop was cut off by the step budget, so its
///     bits would describe the budget rather than the pipeline under
///     test, and the budget would steer the schedule;
///   - workers accumulate into private FeedbackMaps and the engine merges
///     them in worker-index order at epoch boundaries; the merge is a
///     bitwise OR — commutative and associative — so any worker partition
///     yields the same cumulative map and -j1 == -jN holds;
///   - the schedule (per-function energy, per-family weights) is
///     recomputed at each epoch boundary as a pure function of the
///     previous and the newly merged cumulative maps, and is frozen for
///     the whole next epoch. No per-iteration scheduling decision ever
///     depends on worker-local state.
///
/// Energy/weight formulas (documented in DESIGN.md):
///   - energy E_f in [1, 8], initially 8. An epoch where f's cumulative
///     bitmap gains bits resets E_f = 8 and the dry-streak to 0; a dry
///     epoch increments the streak and sets E_f = max(1, 8 >> streak).
///     Gating consumes no RNG: f is mutated at seed s iff
///     (splitmix64(s ^ fnv1a64(f)) & 7) < E_f, so E_f == 8 always mutates.
///   - family weight w_k in [1, 16], initially 8: doubled (capped) after
///     an epoch where the family's cumulative bitmap gained bits, halved
///     (floored) otherwise. The weighted pick replaces the uniform pick
///     inside Mutator only when feedback is on.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_FEEDBACK_H
#define CORE_FEEDBACK_H

#include "core/Mutator.h"
#include "opt/RuleIDs.h"
#include "support/Hash.h"

#include <array>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace alive {

struct JSONValue;

/// Campaign-level feedback configuration (part of FuzzOptions).
struct FeedbackOptions {
  /// Master switch: off preserves the blind schedule bit-for-bit.
  bool Enabled = false;
  /// Global seed offsets per epoch; the schedule is frozen within one.
  unsigned EpochLength = 256;
};

/// One iteration's (or one accumulated set's) coverage: a bit per rewrite
/// rule plus a bit per TV verdict class.
struct CoverageBitmap {
  /// Verdict-class bits appended after the rule bits. Timeouts are
  /// deliberately not represented — see the determinism contract.
  enum VerdictBit {
    VB_Correct = 0,
    VB_Incorrect,
    VB_Inconclusive,
    VB_Crash,
    NumVerdictBits
  };
  static constexpr unsigned NumBits =
      (unsigned)RuleID::NumRules + (unsigned)NumVerdictBits;
  static constexpr unsigned NumWords = (NumBits + 63) / 64;

  uint64_t Words[NumWords] = {};

  /// ORs in the raw rule words a RuleCoverageScope collected.
  void addRuleWords(const uint64_t *RW) {
    for (unsigned I = 0; I != NumRuleWords && I != NumWords; ++I)
      Words[I] |= RW[I];
  }
  void setVerdict(VerdictBit V) { set((unsigned)RuleID::NumRules + V); }
  void set(unsigned Bit) { Words[Bit >> 6] |= (uint64_t)1 << (Bit & 63); }
  bool test(unsigned Bit) const {
    return (Words[Bit >> 6] >> (Bit & 63)) & 1;
  }

  void orWith(const CoverageBitmap &O) {
    for (unsigned I = 0; I != NumWords; ++I)
      Words[I] |= O.Words[I];
  }
  /// Bits set in this bitmap that \p Base lacks.
  unsigned newBits(const CoverageBitmap &Base) const;
  unsigned popcount() const;
  bool empty() const;
  bool subsetOf(const CoverageBitmap &O) const;
  bool operator==(const CoverageBitmap &O) const;
};

/// Accumulated coverage, attributable three ways: per mutated function,
/// per mutation family, and globally. Merging is a bitwise OR on every
/// slot — commutative and associative.
struct FeedbackMap {
  std::map<std::string, CoverageBitmap> PerFunction;
  std::array<CoverageBitmap, (size_t)MutationKind::NumKinds> PerFamily{};
  CoverageBitmap Global;

  /// Credits one iteration's bitmap to the functions it mutated and the
  /// families that fired.
  void addIteration(const CoverageBitmap &Cov,
                    const std::vector<std::string> &Functions,
                    const std::vector<MutationKind> &Families);
  void merge(const FeedbackMap &O);
  bool empty() const;
  void clear();

  /// Serializes as a JSON object (stable layout: name-ordered function
  /// keys, family keys in enum order, words as exact decimal integers).
  void writeJSON(std::ostream &OS, const std::string &Indent = "") const;
  /// Inverse of writeJSON. \returns false with \p Error set on malformed
  /// input (unknown keys are ignored for forward compatibility).
  static bool readJSON(const JSONValue &V, FeedbackMap &Out,
                       std::string &Error);

  bool operator==(const FeedbackMap &O) const;
};

/// The schedule derived from merged coverage at epoch boundaries.
struct ScheduleState {
  static constexpr uint32_t MaxEnergy = 8;
  static constexpr uint32_t MinEnergy = 1;
  static constexpr uint32_t MaxWeight = 16;
  static constexpr uint32_t MinWeight = 1;
  static constexpr uint32_t InitWeight = 8;

  /// Per-function energy (absent key => MaxEnergy) and dry-epoch streak
  /// (absent => 0). Both serialized: the streak is not derivable from the
  /// coverage maps alone.
  std::map<std::string, uint32_t> Energy;
  std::map<std::string, uint32_t> Dry;
  std::array<uint32_t, (size_t)MutationKind::NumKinds> FamilyWeights;

  ScheduleState() { FamilyWeights.fill(InitWeight); }

  uint32_t energyFor(const std::string &Fn) const {
    auto It = Energy.find(Fn);
    return It == Energy.end() ? MaxEnergy : It->second;
  }

  /// Applies one epoch transition: \p Prev is the cumulative map before
  /// the epoch's merge, \p Merged the one after. Pure function of its
  /// arguments (plus the streak state), so every worker count computes
  /// the same schedule. \returns the number of globally novel bits.
  uint64_t update(const FeedbackMap &Prev, const FeedbackMap &Merged);

  void writeJSON(std::ostream &OS, const std::string &Indent = "") const;
  static bool readJSON(const JSONValue &V, ScheduleState &Out,
                       std::string &Error);

  bool operator==(const ScheduleState &O) const;
};

/// The deterministic energy gate: whether function \p Fn is mutated at
/// iteration seed \p Seed under schedule \p S. Consumes no RNG, so
/// skipping a function leaves the mutant of every other function
/// untouched. Null schedule (blind mode) always mutates.
inline bool scheduleAllowsMutation(const ScheduleState *S,
                                   const std::string &Fn, uint64_t Seed) {
  if (!S)
    return true;
  uint32_t E = S->energyFor(Fn);
  if (E >= ScheduleState::MaxEnergy)
    return true;
  return (splitmix64(Seed ^ fnv1a64(Fn)) & 7) < E;
}

} // namespace alive

#endif // CORE_FEEDBACK_H
