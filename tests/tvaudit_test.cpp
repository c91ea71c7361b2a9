//===- tests/tvaudit_test.cpp - Exhaustive audit of symbolic TV queries ---===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Audits the symbolic validator's solver layer on the queries a campaign
/// really asks. The Table I near-miss seeds, each through its component's
/// pipeline with its own defect enabled, and a slice of the generated
/// corpus are mutated and optimized as a campaign would. Every distinct
/// symbolic query whose violation term has few enough free bits is solved
/// with no budget, and the verdict is compared with exhaustive evaluation
/// of the same term: UNSAT must mean no assignment makes the violation 1,
/// and a SAT model must make it 1. The encoder is trusted here; only the
/// bit-blaster and the solver are under audit.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "core/FuzzerLoop.h"
#include "corpus/Corpus.h"
#include "opt/BugInjection.h"
#include "opt/Pass.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "smt/BitBlaster.h"
#include "tv/RefinementChecker.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <unordered_set>

using namespace alive;

namespace {

/// Queries whose violation term has more free bits than this are skipped:
/// exhaustive evaluation doubles in cost with every bit.
constexpr unsigned MaxFreeBits = 16;

struct AuditStats {
  std::set<std::string> Seen;
  unsigned Queries = 0, Unsat = 0, Sat = 0;
  /// Skipped: violation terms the builder folded to a constant, and those
  /// with more than MaxFreeBits free bits.
  unsigned Constant = 0, TooWide = 0;
  unsigned Disagreements = 0;

  void print(const char *What) const {
    std::printf("%s: %u queries audited (%u unsat, %u sat), %u constant, "
                "%u over %u free bits, %u disagreements\n",
                What, Queries, Unsat, Sat, Constant, TooWide, MaxFreeBits,
                Disagreements);
  }
};

/// The distinct Var terms reachable from \p Root.
std::vector<TermRef> freeVars(TermRef Root) {
  std::vector<TermRef> Vars, Stack{Root};
  std::unordered_set<TermRef> Visited;
  while (!Stack.empty()) {
    TermRef T = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(T).second)
      continue;
    if (T->Kind == TermKind::Var)
      Vars.push_back(T);
    for (TermRef Op : T->Ops)
      Stack.push_back(Op);
  }
  return Vars;
}

/// Solves the symbolic query of (Src, Tgt) and checks the verdict against
/// exhaustive evaluation of its violation term.
void auditQuery(const Function &Src, const Function &Tgt, AuditStats &A) {
  std::string Why;
  if (!signaturesMatch(Src, Tgt) ||
      !FunctionEncoder::isSymbolicallySupported(Src, Why) ||
      !FunctionEncoder::isSymbolicallySupported(Tgt, Why))
    return;
  std::string Text = printFunction(Src) + "\n" + printFunction(Tgt);
  if (!A.Seen.insert(Text).second)
    return;

  TermBuilder B;
  SymbolicQuery Q = encodeRefinementQuery(B, Src, Tgt);
  if (Q.Violation->isConst()) {
    ++A.Constant;
    return;
  }
  std::vector<TermRef> Vars = freeVars(Q.Violation);
  unsigned Bits = 0;
  for (TermRef V : Vars)
    Bits += V->Width;
  if (Bits > MaxFreeBits) {
    ++A.TooWide;
    return;
  }
  ++A.Queries;

  SatSolver S;
  BitBlaster BB(S);
  BB.assertTrue(Q.Violation);
  SatSolver::Result R = S.solve();
  ASSERT_NE(R, SatSolver::Result::Unknown);

  std::string Problem;
  if (R == SatSolver::Result::Sat) {
    ++A.Sat;
    if (B.evaluate(Q.Violation, BB.extractAssignment()).isZero())
      Problem = "the solver's model does not satisfy the violation term";
  } else {
    ++A.Unsat;
    for (uint64_t Value = 0; Value != 1ULL << Bits && Problem.empty();
         ++Value) {
      std::map<unsigned, APInt> Assign;
      unsigned Shift = 0;
      for (TermRef V : Vars) {
        Assign.emplace(V->VarId, APInt(V->Width, Value >> Shift));
        Shift += V->Width;
      }
      if (!B.evaluate(Q.Violation, Assign).isZero())
        Problem = "UNSAT, but assignment " + std::to_string(Value) +
                  " satisfies the violation term";
    }
  }
  if (!Problem.empty()) {
    ++A.Disagreements;
    ADD_FAILURE() << Problem << " (" << Bits << " free bits)\n"
                  << "source:\n"
                  << printFunction(Src) << "target:\n"
                  << printFunction(Tgt);
  }
}

/// Mutates \p IR as a campaign under \p Opts would, optimizes each mutant,
/// and audits the query of every function the pipeline changed.
void auditCampaign(const std::string &IR, const FuzzOptions &Opts,
                   uint64_t Mutants, AuditStats &A) {
  std::string Err;
  std::unique_ptr<Module> M = parseModule(IR, Err);
  ASSERT_TRUE(M) << Err;
  FuzzerLoop Loop(Opts);
  if (Loop.loadModule(std::move(M)) == 0)
    return;
  PassManager PM;
  ASSERT_TRUE(buildPipeline(Opts.Passes, PM, Err)) << Err;
  PM.setBugContext(&Opts.Bugs);
  std::vector<std::string> Names = Loop.testableFunctions();
  for (uint64_t Seed = 1; Seed <= Mutants; ++Seed) {
    std::unique_ptr<Module> Mutant = Loop.makeMutant(Seed);
    std::vector<std::string> Errors;
    if (!verifyModule(*Mutant, Errors))
      continue;
    std::unique_ptr<Module> Source = cloneModule(*Mutant);
    ChangedFunctionSet Changed;
    try {
      PM.runToFixpoint(*Mutant, 4, &Changed);
    } catch (const OptimizerCrash &) {
      continue;
    }
    for (const std::string &Name : Names) {
      const Function *Src = Source->getFunction(Name);
      const Function *Tgt = Mutant->getFunction(Name);
      if (Src && Tgt && !Tgt->isDeclaration() && Changed.count(Name))
        auditQuery(*Src, *Tgt, A);
    }
  }
}

} // namespace

// Each Table I defect's near-miss seed through its component's pipeline,
// with only that defect enabled: the queries where seeded miscompiles show.
TEST(TVAuditTest, NearMissQueriesAgreeWithExhaustiveEvaluation) {
  AuditStats A;
  for (const BugInfo &Bug : bugTable()) {
    const char *Text = nullptr;
    for (const NearMissSeed &S : nearMissSeeds())
      if (std::strcmp(S.IssueId, Bug.IssueId) == 0)
        Text = S.Text;
    ASSERT_NE(Text, nullptr) << "no near-miss seed for " << Bug.IssueId;
    FuzzOptions Opts;
    Opts.Passes = componentPipeline(Bug.Component);
    Opts.Bugs.enable(Bug.Id);
    auditCampaign(Text, Opts, 1024, A);
  }
  A.print("near-miss seeds");
  EXPECT_EQ(A.Disagreements, 0u);
  EXPECT_GT(A.Unsat, 0u);
  EXPECT_GT(A.Sat, 0u);
}

// The corpus shape of the throughput experiment: default -O2 campaigns of
// 25 mutants per file, with no defect enabled.
TEST(TVAuditTest, CorpusQueriesAgreeWithExhaustiveEvaluation) {
  AuditStats A;
  for (const std::string &File : generateCorpusFiles(2024, 200))
    auditCampaign(File, FuzzOptions(), 25, A);
  A.print("corpus");
  EXPECT_EQ(A.Disagreements, 0u);
  EXPECT_GT(A.Unsat, 0u);
}
