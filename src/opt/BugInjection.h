//===- opt/BugInjection.h - Seeded Table I defects -------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registry of the 33 seeded optimizer defects reproducing Table I of
/// the paper. Each defect is keyed by its LLVM issue ID, planted in the
/// pass that models the buggy LLVM component, and individually enableable.
/// Miscompilation seeds weaken a transformation's precondition (the
/// translation validator then catches the unsound rewrite on the right
/// mutant); crash seeds raise a simulated optimizer abort.
///
/// Simulated aborts use a C++ exception (OptimizerCrash) so the in-process
/// fuzzing campaign can observe a "crash" and keep running; the real tool's
/// process would die on the assertion and be restarted. This is the one
/// deliberate deviation from the no-exceptions LLVM rule, confined to the
/// crash-simulation path.
///
//===----------------------------------------------------------------------===//

#ifndef OPT_BUGINJECTION_H
#define OPT_BUGINJECTION_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace alive {

/// The 33 Table I defects.
enum class BugId : unsigned {
  // Miscompilations (19).
  PR53252, ///< InstCombine: didn't update predicate in canonicalizeClampLike
  PR50693, ///< InstCombine: missing simplification of opposite shifts of -1
  PR53218, ///< NewGVN: must merge IR flags of removed instruction into leader
  PR55003, ///< AArch64: shl/ashr/shl of undef shifts combined wrongly
  PR55201, ///< AArch64: disguised rotate must apply LHSMask/RHSMask
  PR55129, ///< AArch64: zero-width bitfield extract must emit 0
  PR55271, ///< multiple backends: missing freeze in ISD::ABS expansion
  PR55284, ///< AArch64: or+and miscompile in GlobalISel
  PR55287, ///< AArch64: urem+udiv miscompile in GlobalISel
  PR55296, ///< multiple backends: promoted bits not cleared before urem
  PR55342, ///< AArch64: sext/zext selection in promoted constant
  PR55484, ///< multiple backends: wrong match in MatchBSwapHWordLow
  PR55490, ///< AArch64: another sext/zext selection in promoted constant
  PR55627, ///< AArch64: refine sext/zext selection
  PR55833, ///< AArch64: tryBitfieldExtractOp vs isDef32 conflict
  PR58109, ///< AArch64: wrong code for usub.sat
  PR58321, ///< AArch64: miscompilation of a frozen poison
  PR58431, ///< AArch64: wrong G_ZEXT selection in GISel
  PR59836, ///< InstCombine: peephole precondition too weak ((zext a)*(zext b))
  // Crashes (14).
  PR52884, ///< InstCombine: thwarted by both nuw and nsw on the add
  PR51618, ///< NewGVN: PHI nodes with undef input
  PR56377, ///< VectorCombine: shuffle for extract-extract pattern
  PR56463, ///< InstCombine: calling a function with a bad signature
  PR56945, ///< ConstantFolding: dyn_cast<ConstantInt> fails on poison
  PR56968, ///< InstSimplify: uncovered condition detecting a poison shift
  PR56981, ///< ConstantFolding: assertion is too strong
  PR58423, ///< AArch64: CSEMIIRBuilder reuses removed instructions
  PR58425, ///< AArch64: udiv did not reach the legalizer
  PR59757, ///< TargetLibraryInfo: signature for printf is wrong
  PR64687, ///< AlignmentFromAssumptions: missing corner case
  PR64661, ///< MoveAutoInit: assertion is too strong
  PR72035, ///< SROA: wrong code in AllocaSliceRewriter
  PR72034, ///< VectorCombine: wrong code in scalarizeVPIntrinsic
};

/// Static description of one seeded defect (one Table I row).
struct BugInfo {
  BugId Id;
  const char *IssueId;     ///< "53252"
  const char *Component;   ///< "InstCombine", "AArch64 backend", ...
  const char *Status;      ///< "fixed" / "open"
  bool IsCrash;            ///< crash vs miscompilation
  const char *Description; ///< Table I description text
};

/// The full Table I, in the paper's order.
const std::vector<BugInfo> &bugTable();

/// Looks up a bug's static info.
const BugInfo &bugInfo(BugId Id);

/// The pass pipeline that exercises a Table I component most directly
/// (the paper likewise ran both -O2 and single passes, §G-1): "gvn" for
/// NewGVN, "lowering" for the backend and library-info rows.
const char *componentPipeline(const char *Component);

/// Per-campaign injection configuration: the set of seeded defects the
/// simulated compiler-under-test carries. Defaults to all defects disabled
/// (the optimizer is then correct and every TV check must pass).
///
/// This is a value type — every campaign (FuzzerLoop, CampaignEngine
/// worker, test) owns its own copy, so two concurrent campaigns can never
/// cross-contaminate each other's enabled defects, and a context that is
/// not mutated while passes run is safe to share across worker threads.
class BugInjectionContext {
public:
  BugInjectionContext() = default;
  BugInjectionContext(std::initializer_list<BugId> Ids) {
    for (BugId Id : Ids)
      enable(Id);
  }

  void enable(BugId Id) { Mask |= bit(Id); }
  void disable(BugId Id) { Mask &= ~bit(Id); }
  void enableAll();
  void disableAll() { Mask = 0; }
  bool isEnabled(BugId Id) const { return (Mask & bit(Id)) != 0; }
  bool empty() const { return Mask == 0; }

  friend bool operator==(const BugInjectionContext &A,
                         const BugInjectionContext &B) {
    return A.Mask == B.Mask;
  }

private:
  static uint64_t bit(BugId Id) { return uint64_t(1) << unsigned(Id); }
  uint64_t Mask = 0; // one bit per BugId; Table I has 33 rows
};

/// Installs \p Ctx as the calling thread's ambient bug context for the
/// scope's lifetime (restoring the previous one on exit). The deep pass
/// helpers query the ambient context through isBugEnabled(); PassManager
/// installs its campaign's context around every pipeline run, so each
/// worker thread sees exactly its own campaign's defects.
class BugContextScope {
public:
  explicit BugContextScope(const BugInjectionContext *Ctx);
  ~BugContextScope();
  BugContextScope(const BugContextScope &) = delete;
  BugContextScope &operator=(const BugContextScope &) = delete;

private:
  const BugInjectionContext *Prev;
};

/// The calling thread's ambient bug context (null when none is installed).
const BugInjectionContext *activeBugContext();

/// True when \p Id is enabled in the calling thread's ambient context.
bool isBugEnabled(BugId Id);

/// RAII helper for tests: a single-defect context installed as the calling
/// thread's ambient context for the guard's lifetime.
class ScopedBug {
public:
  explicit ScopedBug(BugId Id) : Ctx{Id}, Scope(&Ctx) {}

private:
  BugInjectionContext Ctx;
  BugContextScope Scope;
};

/// A simulated optimizer abort (assertion failure / segfault stand-in).
struct OptimizerCrash {
  BugId Id;
  std::string What;
};

/// Raises a simulated crash for \p Id (only call when the bug is enabled).
[[noreturn]] void optimizerCrash(BugId Id, const std::string &What);

} // namespace alive

#endif // OPT_BUGINJECTION_H
