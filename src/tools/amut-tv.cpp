//===- tools/amut-tv.cpp - Standalone translation validator ----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standalone translation validation (the `alive-tv` analog): check that
/// every function of tgt.ll refines its namesake in src.ll.
///
//===----------------------------------------------------------------------===//

#include "parser/Parser.h"
#include "tools/ToolCommon.h"
#include "tv/Counterexample.h"
#include "tv/RefinementChecker.h"

#include <cstdio>

using namespace alive;

int main(int Argc, char **Argv) {
  ArgParser Args(Argc, Argv);
  if (Args.positional().size() < 2) {
    std::puts("usage: amut-tv src.ll tgt.ll");
    return 1;
  }

  std::string Err;
  auto Src = parseModuleFile(Args.positional()[0], Err);
  if (!Src) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  auto Tgt = parseModuleFile(Args.positional()[1], Err);
  if (!Tgt) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  TVOptions Opts;
  Opts.SolverConflictBudget = Args.getInt("budget", Opts.SolverConflictBudget);
  Opts.ConcreteTrials = Args.getInt<unsigned>("trials", Opts.ConcreteTrials);

  int Failures = 0;
  for (Function *SF : Src->functions()) {
    if (SF->isDeclaration() || SF->isIntrinsic())
      continue;
    Function *TF = Tgt->getFunction(SF->getName());
    if (!TF || TF->isDeclaration())
      continue;
    TVResult R = checkRefinement(*SF, *TF, Opts);
    std::printf("%s: %s%s%s\n", SF->getName().c_str(),
                tvVerdictName(R.Verdict), R.Detail.empty() ? "" : " - ",
                R.Detail.c_str());
    if (R.Verdict == TVVerdict::Incorrect) {
      if (!R.CounterExample.empty())
        // The shared tv/ rendering (also what forensics bundles persist).
        std::printf("  counterexample:\n%s",
                    renderCounterexampleInputs(*SF, R.CounterExample).c_str());
      ++Failures;
    }
  }
  return Failures ? 2 : 0;
}
