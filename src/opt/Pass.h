//===- opt/Pass.h - Pass framework -----------------------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The optimizer's pass framework: function passes, a pass manager with
/// fixed-point iteration, and a registry that resolves "-passes=..." names
/// and the -O1/-O2 pipelines (paper §III-C: "a sequence of built-in passes
/// ... or a canned sequence of passes such as -O1 or -O3").
///
//===----------------------------------------------------------------------===//

#ifndef OPT_PASS_H
#define OPT_PASS_H

#include "ir/Module.h"
#include "opt/BugInjection.h"
#include "support/Telemetry.h"

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace alive {

class CancellationToken;
class TraceRecorder;

/// A function transformation pass.
class Pass {
public:
  virtual ~Pass() = default;

  /// The pass's registry name ("instcombine", "gvn", ...).
  virtual std::string getName() const = 0;

  /// Transforms \p F. \returns true when the function changed.
  virtual bool runOnFunction(Function &F) = 0;
};

/// Names of the functions some pass reported modifying during a pipeline
/// run. Passes already compute changed-ness per function to drive the
/// fixpoint loop; the pass manager surfaces it here instead of collapsing
/// it into one module-wide bool, so the fuzzing loop can skip the
/// refinement check for functions the pipeline never touched.
using ChangedFunctionSet = std::unordered_set<std::string>;

/// Runs a pipeline of passes over every definition in a module.
class PassManager {
public:
  void add(std::unique_ptr<Pass> P) { Passes.push_back(std::move(P)); }
  unsigned size() const { return (unsigned)Passes.size(); }

  /// Binds this pipeline to a campaign's bug-injection context: it is
  /// installed as the thread's ambient context for the duration of run().
  /// \p Ctx must outlive the PassManager. A null context (the default)
  /// leaves the caller's ambient context in effect instead.
  void setBugContext(const BugInjectionContext *Ctx) { BugCtx = Ctx; }
  const BugInjectionContext *bugContext() const { return BugCtx; }

  /// Attaches a telemetry registry (null detaches). Each run() sweep then
  /// records, per pass: "pass.<name>.invocations" (function-level runs)
  /// and "pass.<name>.changed" (runs that modified the function) — both
  /// deterministic per seed — plus a "pass.<name>.seconds" wall-time
  /// histogram per module sweep. \p Stats must outlive the PassManager.
  void setTelemetry(StatRegistry *Stats);

  /// Attaches a flight recorder (null detaches): each run() sweep then
  /// records one span per pass, named "pass.<name>", covering the pass's
  /// whole-module sweep. \p Trace must outlive the PassManager. Disabled
  /// cost is one pointer test per pass per sweep.
  void setTrace(TraceRecorder *Trace);

  /// Attaches an iteration watchdog (null detaches). run() then consumes
  /// one token step per pass-on-function invocation, installs the token as
  /// the thread's ambient token so long-running pass bodies can cooperate,
  /// and stops sweeping once the token trips — runToFixpoint likewise
  /// stops iterating. A cancelled run() still returns its accumulated
  /// changed flag; the caller decides what a cut-off pipeline means.
  /// \p Token must outlive the PassManager.
  void setCancellation(CancellationToken *Token) { Watchdog = Token; }

  /// Runs every pass once, in order, on every function definition.
  /// When \p ChangedOut is non-null, the names of modified functions are
  /// added to it. \returns true when anything changed.
  bool run(Module &M, ChangedFunctionSet *ChangedOut = nullptr);

  /// Runs the pipeline repeatedly until a fixed point (or \p MaxIter).
  /// \p ChangedOut (optional) accumulates the union of per-function
  /// changes across all fixpoint iterations.
  bool runToFixpoint(Module &M, unsigned MaxIter = 4,
                     ChangedFunctionSet *ChangedOut = nullptr);

private:
  std::vector<std::unique_ptr<Pass>> Passes;
  const BugInjectionContext *BugCtx = nullptr;
  CancellationToken *Watchdog = nullptr;
  StatRegistry *Stats = nullptr;
  /// Cached stat slots, parallel to Passes (rebuilt lazily when passes are
  /// added after setTelemetry): the hot loop must not probe the registry
  /// map per pass per sweep.
  struct PassTelemetry {
    uint64_t *Invocations = nullptr;
    uint64_t *Changed = nullptr;
    Histogram *Seconds = nullptr;
  };
  std::vector<PassTelemetry> PassStats;
  TraceRecorder *Trace = nullptr;
  /// Interned "pass.<name>" span labels, parallel to Passes (rebuilt
  /// lazily, like PassStats): span events outlive the pass objects, so
  /// the labels must live in the recorder, not here.
  std::vector<const char *> PassTraceNames;
};

/// Creates a pass by registry name; null for unknown names.
std::unique_ptr<Pass> createPassByName(const std::string &Name);

/// All registered pass names.
std::vector<std::string> allPassNames();

/// Parses a pipeline description: comma-separated pass names, or the
/// pseudo-names "O1"/"O2" (also accepted with a leading '-').
/// \returns false and fills \p Error on unknown names.
bool buildPipeline(const std::string &Desc, PassManager &PM,
                   std::string &Error);

// Factories for the individual passes.
std::unique_ptr<Pass> createInstSimplifyPass();
std::unique_ptr<Pass> createInstCombinePass();
std::unique_ptr<Pass> createConstantFoldPass();
std::unique_ptr<Pass> createDCEPass();
std::unique_ptr<Pass> createGVNPass();
std::unique_ptr<Pass> createSimplifyCFGPass();
std::unique_ptr<Pass> createReassociatePass();
std::unique_ptr<Pass> createSROAPass();
std::unique_ptr<Pass> createVectorCombinePass();
std::unique_ptr<Pass> createInferAlignmentPass();
std::unique_ptr<Pass> createMoveAutoInitPass();
std::unique_ptr<Pass> createLoweringPass();

// Fault-injection passes (TestPasses.cpp) for exercising the campaign's
// survivability machinery: never part of O1/O2, only reachable by naming
// them in -passes=.
std::unique_ptr<Pass> createTestSlowPass();
std::unique_ptr<Pass> createTestCrashPass();
std::unique_ptr<Pass> createTestAbortPass();

} // namespace alive

#endif // OPT_PASS_H
