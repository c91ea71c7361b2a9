//===- tools/amut-mutate.cpp - Standalone mutator ---------------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standalone mutation step of the discrete-tools baseline (paper §V-B):
/// parse a file, apply the mutation engine once with a given seed, print
/// the mutant. The throughput experiment seeds this tool identically to the
/// in-process loop so "the actual work performed under both conditions is
/// exactly the same".
///
//===----------------------------------------------------------------------===//

#include "core/FuzzerLoop.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "tools/ToolCommon.h"

#include <cstdio>
#include <fstream>

using namespace alive;

int main(int Argc, char **Argv) {
  ArgParser Args(Argc, Argv);
  if (Args.positional().size() < 2) {
    std::puts("usage: amut-mutate -seed=<n> [-max-mutations=<n>] in.ll out.ll");
    return 1;
  }

  std::string Err;
  auto M = parseModuleFile(Args.positional()[0], Err);
  if (!M) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  FuzzOptions Opts;
  Opts.Mutation.MaxMutationsPerFunction =
      Args.getInt<unsigned>("max-mutations", 3);
  // Validation is the separate alive-tv step in the discrete pipeline.
  Opts.SelfCheckOnLoad = false;
  FuzzerLoop Fuzzer(Opts);
  Fuzzer.loadModule(std::move(M));
  auto Mutant = Fuzzer.makeMutant(Args.getInt("seed", 1));

  std::ofstream Out(Args.positional()[1]);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n",
                 Args.positional()[1].c_str());
    return 1;
  }
  Out << printModule(*Mutant);
  return 0;
}
