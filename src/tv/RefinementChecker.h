//===- tv/RefinementChecker.h - Translation validation ---------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Alive2 substitute: checks that a target function refines a source
/// function. Refinement holds when, for every input:
///
///   - if the source has undefined behavior, anything is allowed;
///   - otherwise the target must not have UB, and
///   - if the source returns poison the target may return anything;
///   - otherwise the target must return the same non-poison value (and,
///     for memory functions, leave refining contents in escaped memory).
///
/// Two proof paths:
///   1. symbolic — loop-free, memory-free integer functions are encoded as
///      bit-vector terms (value + poison wires + a UB accumulator) and the
///      negated refinement condition goes to the CDCL SAT solver; UNSAT is
///      a proof over all inputs, SAT yields a counterexample that is then
///      CONFIRMED by concrete interpretation (guarding against the
///      freeze/undef encoding approximations);
///   2. concrete — functions with memory, vectors, pointers or loops are
///      checked by bounded enumeration: exhaustive when the input domain is
///      small, seeded sampling with corner values otherwise (the documented
///      bounded substitution for Alive2's SMT memory model).
///
//===----------------------------------------------------------------------===//

#ifndef TV_REFINEMENTCHECKER_H
#define TV_REFINEMENTCHECKER_H

#include "ir/Interpreter.h"
#include "ir/Module.h"
#include "smt/SatSolver.h"
#include "support/Cancellation.h"
#include "support/Telemetry.h"
#include "tv/FunctionEncoder.h"

#include <string>
#include <vector>

namespace alive {

class SolveMemo;

enum class TVVerdict {
  Correct,      ///< refinement proven (symbolic) / no violation (bounded)
  Incorrect,    ///< confirmed counterexample — a miscompilation
  Unsupported,  ///< outside the checker's domain ("Alive2 error")
  Inconclusive, ///< budget exhausted or unconfirmed model
};

const char *tvVerdictName(TVVerdict V);

/// Checker configuration.
struct TVOptions {
  /// SAT conflict budget per query (0 = unlimited). Mirrors Alive2's SMT
  /// timeout: queries past the budget fall back to concrete sampling.
  uint64_t SolverConflictBudget = 150000;
  /// Number of sampled trials on the concrete path.
  unsigned ConcreteTrials = 48;
  /// Enumerate exhaustively when the summed argument width is at most this
  /// many bits.
  unsigned ExhaustiveBits = 14;
  /// Interpreter fuel per trial.
  uint64_t Fuel = 200000;
  /// Base seed for sampled trials.
  uint64_t Seed = 0xA11CE;
  /// Optional iteration watchdog, threaded into the solver and the
  /// interpreter. Not part of the verdict: TVCache::makeKey deliberately
  /// excludes it (a cancelled check is never cached).
  CancellationToken *Token = nullptr;
};

/// Result of one refinement check.
struct TVResult {
  TVVerdict Verdict = TVVerdict::Unsupported;
  /// Human-readable detail (counterexample or unsupported reason).
  std::string Detail;
  /// Counterexample argument values for an Incorrect verdict: exactly one
  /// entry per function parameter, in parameter order, with the full lane
  /// structure (vector args keep every lane, poison args/lanes are marked
  /// poison). Replaying the list through amut-tv therefore lines up with
  /// the parameter list — earlier versions dropped poison and vector
  /// arguments, silently misaligning the remaining values.
  std::vector<ConcVal> CounterExample;
  /// True when concrete interpretation decided the verdict — either the
  /// bounded-enumeration path, or the concrete replay that confirms a
  /// symbolic counterexample model.
  bool UsedConcretePath = false;
  /// Solver statistics (symbolic path only).
  SatSolver::Stats SolverStats;
  /// Wall-clock split of the symbolic path: term construction + bit
  /// blasting vs. the SAT search itself. Wall-clock, so volatile — and a
  /// cache hit replays the *first* computation's numbers, which is exactly
  /// what cost attribution wants (the price of the query, paid once). A
  /// solve-memo hit replays SolveSeconds only; its EncodeSeconds is this
  /// check's term encoding and key.
  double EncodeSeconds = 0;
  double SolveSeconds = 0;
};

/// A telemetry slug for \p R: "correct", "incorrect",
/// "unsupported.<reason>" or "inconclusive.<reason>" — the per-verdict
/// breakdown key used by the run report. Deterministic per (Src, Tgt,
/// Opts), so counting slugs per established verdict (cache hits included)
/// is worker-count independent.
std::string tvVerdictReason(const TVResult &R);

/// Checks whether \p Tgt refines \p Src. The functions must have identical
/// signatures (same argument count/types and return type).
///
/// \p Stats (optional) receives query telemetry: "tv.query.symbolic" /
/// "tv.query.concrete" invocation counts with matching ".seconds" latency
/// histograms, solver effort counters, and "tv.symbolic.fallback" for
/// budget-exhausted degradations to the concrete path. All volatile: they
/// count actual checker invocations, which the TV verdict cache elides
/// differently per worker.
///
/// \p Memo (optional) is consulted between the term encoding and the
/// bit-blast. A hit skips the bit-blast and the SAT search and runs the
/// rest on this pair: the model replay, the budget-stop fallback, and the
/// watchdog steps the search would have taken. It still counts as one
/// symbolic query with the stored solver stats, plus one
/// "tv.solver.memo-hits"; "tv.solve.seconds" records real searches only.
/// The result equals a fresh check's.
TVResult checkRefinement(const Function &Src, const Function &Tgt,
                         const TVOptions &Opts = TVOptions(),
                         StatRegistry *Stats = nullptr,
                         SolveMemo *Memo = nullptr);

/// True when \p A and \p B have the same return and argument types,
/// compared by name: each module owns its own type objects.
bool signaturesMatch(const Function &A, const Function &B);

/// Self-check used by the fuzzing loop's preprocessing step: verifies the
/// checker can process \p F at all and that F refines itself. Mirrors the
/// paper's "drop functions Alive2 cannot handle" filtering (§III-A).
/// On the concrete path it runs only F, and stops at the first trial where
/// F completes: with one deterministic function on both sides, that trial
/// is already a decisive no-violation. F is Inconclusive only when no trial
/// completes, exactly as checkRefinement(F, clone of F) would report.
TVResult checkSelfRefinement(const Function &F,
                             const TVOptions &Opts = TVOptions());

/// The symbolic path's query for (Src, Tgt): the shared argument encodings
/// and the width-1 violation term, which is 1 exactly on the inputs (and
/// freeze choices) that refute refinement. Both functions must be
/// symbolically supported and have identical signatures.
struct SymbolicQuery {
  std::vector<EncodedValue> Args;
  TermRef Violation = nullptr;
};
SymbolicQuery encodeRefinementQuery(TermBuilder &B, const Function &Src,
                                    const Function &Tgt);

} // namespace alive

#endif // TV_REFINEMENTCHECKER_H
