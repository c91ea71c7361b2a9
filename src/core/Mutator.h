//===- core/Mutator.h - The alive-mutate mutation engine -------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's mutation engine (§IV): nine structured mutation families
/// that always produce verifier-valid IR. "When running alive-mutate, we
/// select a subset of applicable mutations and perform them sequentially"
/// (§IV-I). Every random decision flows through the seedable generator so
/// any mutant can be regenerated from its logged seed (§III-E).
///
//===----------------------------------------------------------------------===//

#ifndef CORE_MUTATOR_H
#define CORE_MUTATOR_H

#include "core/FunctionInfo.h"
#include "core/ValueSource.h"
#include "support/RandomGenerator.h"
#include "support/Telemetry.h"
#include "support/TraceRecorder.h"

#include <array>
#include <string>
#include <vector>

namespace alive {

/// The mutation families of paper §IV.
enum class MutationKind : unsigned {
  Attributes, ///< §IV-A toggle function/parameter attributes
  Inline,     ///< §IV-B inline a function other than the intended callee
  RemoveCall, ///< §IV-C remove a void call
  Shuffle,    ///< §IV-D shuffle a dependence-free instruction range
  Arith,      ///< §IV-E opcode/operand-swap/flag/constant mutations
  Use,        ///< §IV-F replace an SSA use with a dominating random value
  Move,       ///< §IV-G move an instruction, repairing broken uses
  Bitwidth,   ///< §IV-H change bitwidths along one use-tree path
  NumKinds
};

const char *mutationKindName(MutationKind K);

/// One applied mutation, as recorded for forensics: which family fired,
/// in which function, at which site (the anchor instruction or block),
/// and what it did to the operands. Purely descriptive — recording never
/// draws on the RNG, so a trailed and an untrailed replay of the same
/// seed produce byte-identical mutants (§III-E).
struct MutationTrailEntry {
  MutationKind Kind;
  std::string Function;
  /// The anchor the mutation fired at ("%a", "call @g", "block #2"); may
  /// be empty when a family has no single anchor.
  std::string Site;
  /// Operand-level description of the change ("operand #1 %x -> 7").
  std::string Detail;
};

/// The applied-mutation trail of one mutant, in application order.
using MutationTrail = std::vector<MutationTrailEntry>;

/// Mutation configuration.
struct MutationOptions {
  /// Maximum number of mutations applied per function per round (§IV-I).
  unsigned MaxMutationsPerFunction = 3;
  ValueSourceOptions ValueSource;
  /// Kinds eligible for selection (all by default).
  std::vector<MutationKind> EnabledKinds;

  MutationOptions() {
    for (unsigned K = 0; K != (unsigned)MutationKind::NumKinds; ++K)
      EnabledKinds.push_back((MutationKind)K);
  }
};

/// Applies random mutations to functions of a module.
class Mutator {
public:
  /// \p Stats (optional) receives per-family telemetry: every apply()
  /// outcome increments "mutation.<family>.applied" or ".rejected".
  /// Deterministic per seed, so merged campaign counts are worker-count
  /// independent. The §III-E seed-replay path passes null — replay must
  /// not disturb campaign statistics.
  /// \p Trace (optional) receives one flight-recorder span per apply()
  /// attempt, named by family with the function as detail.
  Mutator(RandomGenerator &RNG, const MutationOptions &Opts,
          StatRegistry *Stats = nullptr, TraceRecorder *Trace = nullptr);

  /// Attaches a trail sink: every successful apply() appends one entry
  /// (family, site, operands). Null detaches. Trail formatting happens
  /// only while a sink is attached, and never consumes randomness.
  void setTrail(MutationTrail *T) { Trail = T; }

  /// Attaches per-family selection weights (indexed by MutationKind, one
  /// slot per kind, minimum effective weight 1). Null restores the
  /// uniform pick — and the exact RNG stream of the blind schedule, which
  /// feedback-off runs rely on. The array must outlive the mutator or the
  /// next setFamilyWeights call.
  void setFamilyWeights(const uint32_t *W) { Weights = W; }

  /// Applies one specific mutation kind to \p MI (if applicable).
  /// \returns true when the function changed.
  bool apply(MutationKind K, MutantInfo &MI);

  /// §IV-I: applies a random subset (1..MaxMutationsPerFunction) of
  /// applicable mutations sequentially. \returns the kinds that actually
  /// fired, in order.
  std::vector<MutationKind> mutateFunction(MutantInfo &MI);

private:
  bool applyImpl(MutationKind K, MutantInfo &MI);
  /// One enabled kind: uniform draw (blind), or weight-proportional when
  /// setFamilyWeights installed an array. Requires non-empty EnabledKinds.
  MutationKind pickKind();
  /// True while a trail sink is attached: the family implementations skip
  /// all description formatting otherwise (hot-path cost is one branch).
  bool wantNote() const { return Trail != nullptr; }
  /// Stages the in-flight mutation's site/operand description; apply()
  /// commits it to the trail when the mutation fires.
  void note(std::string Site, std::string Detail);
  bool mutateAttributes(MutantInfo &MI);
  bool mutateInline(MutantInfo &MI);
  bool mutateRemoveCall(MutantInfo &MI);
  bool mutateShuffle(MutantInfo &MI);
  bool mutateArith(MutantInfo &MI);
  bool mutateUse(MutantInfo &MI);
  bool mutateMove(MutantInfo &MI);
  bool mutateBitwidth(MutantInfo &MI);

  RandomGenerator &RNG;
  MutationOptions Opts;
  /// Cached per-family counter slots (null members when telemetry is off):
  /// apply() must not pay a map probe per attempt.
  struct FamilyCounters {
    uint64_t *Applied = nullptr;
    uint64_t *Rejected = nullptr;
  };
  std::array<FamilyCounters, (size_t)MutationKind::NumKinds> Family;
  TraceRecorder *Trace = nullptr;
  MutationTrail *Trail = nullptr;
  /// Optional per-family selection weights (feedback mode); null = uniform.
  const uint32_t *Weights = nullptr;
  /// Pending note of the in-flight applyImpl (valid only while Trail set).
  std::string PendingSite, PendingDetail;
};

} // namespace alive

#endif // CORE_MUTATOR_H
