//===- core/Forensics.h - Per-bug forensics bundles ------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-bug forensics bundles: every non-Correct outcome of the fuzzing
/// loop can be persisted as a self-contained directory — the original
/// module, the mutant before and after optimization, the applied-mutation
/// trail, the rendered counterexample and the full campaign configuration
/// — sufficient to re-run the exact mutate/optimize/verify iteration on a
/// machine that has only the bundle. `alive-mutate -replay <bundle>`
/// does exactly that and exits 0 only when the recorded verdict (and
/// counterexample) reproduces.
///
/// The bundle layout (manifest schema version 1):
///
///   <dir>/bundle-s<seed>-<function|crash|invalid>/
///     manifest.json   record, config echo, mutation trail, file map
///     original.ll     the full preprocessed master module
///     mutant.ll       the mutant before optimization (TV "source")
///     optimized.ll    after the pipeline (absent for crash bundles)
///
/// Every bundle, timeout bundles included, is a pure function of (module,
/// config, seed), so -j1 and -jN campaigns write byte-identical bundles.
///
//===----------------------------------------------------------------------===//

#ifndef CORE_FORENSICS_H
#define CORE_FORENSICS_H

#include "core/Mutator.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alive {

struct FuzzOptions;
class Module;

/// Bump when manifest.json changes incompatibly; -replay and CI's
/// check_artifacts.py pin it.
constexpr unsigned BundleManifestSchemaVersion = 1;

/// One non-Correct outcome of a fuzzing iteration, in the textual form
/// the bundle manifest persists (and -replay compares against). The loop
/// collects these for every iteration — cheap, strings only — whether or
/// not bundle writing is enabled, so a replayed iteration can be compared
/// field-for-field with the record in a manifest.
struct ForensicRecord {
  enum Kind {
    InvalidMutant, ///< the mutator emitted verifier-invalid IR (must not happen)
    Crash,         ///< a seeded optimizer defect aborted the pipeline
    Verdict,       ///< a per-function TV verdict other than Correct
    Timeout        ///< the iteration watchdog cut the iteration short
  };
  Kind K = Verdict;
  uint64_t Seed = 0;
  /// The failing function; empty for whole-module outcomes (crashes).
  std::string Function;
  /// tvVerdictReason slug for Verdict records; "crash"/"invalid-mutant"
  /// otherwise.
  std::string VerdictSlug;
  std::string Detail;
  /// For crashes: the simulated defect's Table I issue id ("52884").
  std::string IssueId;
  /// Rendered counterexample table (tv/Counterexample.h); empty unless
  /// the verdict carried concrete inputs.
  std::string CounterExample;
};

/// "invalid-mutant" / "crash" / "verdict" / "timeout".
const char *forensicKindName(ForensicRecord::Kind K);

/// Everything one bundle write needs. All pointers/references must stay
/// valid for the duration of the writeBugBundle call only.
struct BundleInputs {
  const FuzzOptions &Opts;
  /// The function set that survived preprocessing — replay pins it via
  /// FuzzOptions::OnlyFunctions so the iteration sees the same module.
  const std::vector<std::string> &TestableFunctions;
  const Module &Original;
  /// The mutant before optimization (the TV "source").
  const Module *Mutant = nullptr;
  /// After the pipeline; null when optimization crashed.
  const Module *Optimized = nullptr;
  /// The applied-mutation trail for Record.Seed; null writes an empty
  /// trail (still a valid bundle).
  const MutationTrail *Trail = nullptr;
  const ForensicRecord &Record;
};

/// Writes one bundle under \p Dir (created if missing). \returns the
/// bundle directory path, or "" with \p Error filled on I/O failure.
/// Deterministic: same inputs, same bytes, same path.
std::string writeBugBundle(const std::string &Dir, const BundleInputs &In,
                           std::string &Error);

/// The outcome of replaying one bundle.
struct ReplayResult {
  /// True when the recorded outcome reproduced exactly: the regenerated
  /// mutant is byte-identical, the trail matches, and the re-run
  /// iteration produced the recorded verdict/detail/counterexample.
  bool Ok = false;
  /// Why not (unreadable bundle, config error, or the first mismatch).
  std::string Error;
  // Echo of the manifest, for reporting.
  uint64_t Seed = 0;
  std::string Kind;
  std::string Function;
  std::string ExpectedVerdict;
  /// What the replay actually produced ("" when the outcome vanished).
  std::string ActualVerdict;
};

/// Re-runs the iteration a bundle records — parse original.ll, rebuild
/// the FuzzOptions from the manifest's config echo, regenerate the mutant
/// from the recorded seed, optimize, verify — and compares every recorded
/// field. Side-effect-free (runs in a private loop; writes nothing).
ReplayResult replayBundle(const std::string &BundleDir);

} // namespace alive

#endif // CORE_FORENSICS_H
