//===- opt/BugInjection.cpp - Seeded Table I defects ------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/BugInjection.h"

#include <cassert>
#include <map>
#include <string>

using namespace alive;

const std::vector<BugInfo> &alive::bugTable() {
  static const std::vector<BugInfo> Table = {
      {BugId::PR53252, "53252", "InstCombine", "fixed", false,
       "didn't update predicate in function 'canonicalizeClampLike'"},
      {BugId::PR50693, "50693", "InstCombine", "fixed", false,
       "missing a simplification of the opposite shifts of -1"},
      {BugId::PR53218, "53218", "NewGVN", "fixed", false,
       "need to merge IR flags of the removed instruction into the leader"},
      {BugId::PR55003, "55003", "AArch64 backend", "fixed", false,
       "need to combine GSIL, GASHR, GSIL of undef shifts to undef"},
      {BugId::PR55201, "55201", "AArch64 backend", "fixed", false,
       "when matching a disguised rotate by constant should apply "
       "LHSMask/RHSmask"},
      {BugId::PR55129, "55129", "AArch64 backend", "fixed", false,
       "zero-width bitfield extracts to emit 0"},
      {BugId::PR55271, "55271", "multiple backends", "fixed", false,
       "missing a freeze to ISD::ABS expansion"},
      {BugId::PR55284, "55284", "AArch64 backend", "fixed", false,
       "an or+and miscompile within GlobalISel"},
      {BugId::PR55287, "55287", "AArch64 backend", "fixed", false,
       "an urem+udiv miscompilation within GlobalISel"},
      {BugId::PR55296, "55296", "multiple backends", "fixed", false,
       "didn't clear promoted bits before urem on shift amount"},
      {BugId::PR55342, "55342", "AArch64 backend", "fixed", false,
       "sext and zext selection in promoted constant"},
      {BugId::PR55484, "55484", "multiple backends", "fixed", false,
       "wrong match in in MatchBSwapHWordLow"},
      {BugId::PR55490, "55490", "AArch64 backend", "fixed", false,
       "another sext and zext selection in promoted constant"},
      {BugId::PR55627, "55627", "AArch64 backend", "fixed", false,
       "refine sext and zext selection"},
      {BugId::PR55833, "55833", "AArch64 backend", "fixed", false,
       "conflict between the selection code in tryBitfieldExtractOp and "
       "isDef32"},
      {BugId::PR58109, "58109", "AArch64 backend", "fixed", false,
       "wrong code generation in usub.sat"},
      {BugId::PR58321, "58321", "AArch64 backend", "open", false,
       "miscompilation of a frozen poison"},
      {BugId::PR58431, "58431", "AArch64 backend", "fixed", false,
       "wrong GZEXT selection GISel"},
      {BugId::PR59836, "59836", "InstCombine", "fixed", false,
       "precondition of a peephole optimization is too weak"},
      {BugId::PR52884, "52884", "InstCombine", "fixed", true,
       "analysis got thwarted by having both \"nuw\" and \"nsw\" on the add"},
      {BugId::PR51618, "51618", "newGVN", "open", true,
       "PHI nodes with undef input"},
      {BugId::PR56377, "56377", "VectorCombine", "fixed", true,
       "created shuffle for extract-extract pattern on scalable vector"},
      {BugId::PR56463, "56463", "InstCombine", "fixed", true,
       "calling a function with a bad signature"},
      {BugId::PR56945, "56945", "ConstantFolding", "fixed", true,
       "the dyn_cast to a ConstantInt would fail with a poison input"},
      {BugId::PR56968, "56968", "InstSimplify", "fixed", true,
       "uncovered condition in detecting a poison shift"},
      {BugId::PR56981, "56981", "ConstantFolding", "fixed", true,
       "assertion is too strong"},
      {BugId::PR58423, "58423", "AArch64 backend", "fixed", true,
       "CSEMIIRBuilder reuse removed instructions"},
      {BugId::PR58425, "58425", "AArch64 backend", "fixed", true,
       "udiv did not reach the legalizer"},
      {BugId::PR59757, "59757", "TargetLibraryInfo", "fixed", true,
       "signature for printf is wrong"},
      {BugId::PR64687, "64687", "AlignmentFromAssumptions", "fixed", true,
       "missing a corner case"},
      {BugId::PR64661, "64661", "MoveAutoInit", "fixed", true,
       "the assertion is too strong"},
      {BugId::PR72035, "72035", "SROA", "open", true,
       "wrong code in AllocaSliceRewriter"},
      {BugId::PR72034, "72034", "VectorCombine", "fixed", true,
       "wrong code in scalarizeVPItrinsic"},
  };
  return Table;
}

const BugInfo &alive::bugInfo(BugId Id) {
  for (const BugInfo &B : bugTable())
    if (B.Id == Id)
      return B;
  assert(false && "unknown bug id");
  return bugTable().front();
}

const char *alive::componentPipeline(const char *Component) {
  static const std::map<std::string, const char *> Map = {
      {"InstCombine", "instsimplify,constfold,instcombine,dce"},
      {"NewGVN", "gvn"},
      {"newGVN", "gvn"},
      {"VectorCombine", "vector-combine"},
      {"ConstantFolding", "constfold"},
      {"InstSimplify", "instsimplify"},
      {"AlignmentFromAssumptions", "infer-alignment"},
      {"MoveAutoInit", "move-auto-init"},
      {"SROA", "sroa"}};
  auto It = Map.find(Component);
  // AArch64 backend, multiple backends, TargetLibraryInfo.
  return It == Map.end() ? "lowering" : It->second;
}

// The 33 BugIds must fit the context's 64-bit mask.
static_assert(unsigned(BugId::PR72034) < 64, "BugId overflows context mask");

void BugInjectionContext::enableAll() {
  for (const BugInfo &B : bugTable())
    enable(B.Id);
}

namespace {
/// The ambient per-thread context. Thread-local so concurrent campaign
/// workers each see only their own campaign's defects.
thread_local const BugInjectionContext *ActiveBugCtx = nullptr;
} // namespace

BugContextScope::BugContextScope(const BugInjectionContext *Ctx)
    : Prev(ActiveBugCtx) {
  ActiveBugCtx = Ctx;
}

BugContextScope::~BugContextScope() { ActiveBugCtx = Prev; }

const BugInjectionContext *alive::activeBugContext() { return ActiveBugCtx; }

bool alive::isBugEnabled(BugId Id) {
  return ActiveBugCtx && ActiveBugCtx->isEnabled(Id);
}

void alive::optimizerCrash(BugId Id, const std::string &What) {
  assert(isBugEnabled(Id) && "crash raised for a disabled bug");
  throw OptimizerCrash{Id, What};
}
