//===- bench/bench_micro.cpp - google-benchmark microbenchmarks ------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the hot primitives of the fuzzing
/// loop: module cloning (the in-process substitute for parse/print),
/// parsing, printing, one mutation round, single-pass optimization, one
/// interpreter execution, the load-time self-check, and bit-blasted solver
/// queries. These are the quantities the Figure 2 overhead argument is
/// made of.
///
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "core/FunctionInfo.h"
#include "core/Mutator.h"
#include "corpus/Corpus.h"
#include "ir/Interpreter.h"
#include "opt/Pass.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "smt/BitBlaster.h"
#include "tv/RefinementChecker.h"

#include <benchmark/benchmark.h>

using namespace alive;

namespace {

const std::string &testIR() {
  static const std::string IR = paperListingSeeds()[1]; // @test9 module
  return IR;
}

std::unique_ptr<Module> parsedModule() {
  std::string Err;
  auto M = parseModule(testIR(), Err);
  assert(M);
  return M;
}

void BM_ParseModule(benchmark::State &State) {
  for (auto _ : State) {
    std::string Err;
    auto M = parseModule(testIR(), Err);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_ParseModule);

void BM_PrintModule(benchmark::State &State) {
  auto M = parsedModule();
  for (auto _ : State) {
    std::string S = printModule(*M);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_PrintModule);

void BM_CloneModule(benchmark::State &State) {
  auto M = parsedModule();
  for (auto _ : State) {
    auto C = cloneModule(*M);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_CloneModule);

void BM_VerifyModule(benchmark::State &State) {
  auto M = parsedModule();
  for (auto _ : State) {
    std::vector<std::string> Errors;
    bool Ok = verifyModule(*M, Errors);
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_VerifyModule);

void BM_Preprocess(benchmark::State &State) {
  auto M = parsedModule();
  Function *F = M->getFunction("test9");
  for (auto _ : State) {
    OriginalFunctionInfo Info(*F);
    benchmark::DoNotOptimize(&Info);
  }
}
BENCHMARK(BM_Preprocess);

void BM_MutateRound(benchmark::State &State) {
  auto M = parsedModule();
  Function *F = M->getFunction("test9");
  OriginalFunctionInfo Info(*F);
  MutationOptions Opts;
  uint64_t Seed = 0;
  for (auto _ : State) {
    auto Mutant = cloneModule(*M);
    RandomGenerator RNG(++Seed);
    Mutator Mut(RNG, Opts);
    MutantInfo MI(*Mutant->getFunction("test9"), Info);
    auto Applied = Mut.mutateFunction(MI);
    benchmark::DoNotOptimize(Applied);
  }
}
BENCHMARK(BM_MutateRound);

void BM_OptimizeO2(benchmark::State &State) {
  auto M = parsedModule();
  for (auto _ : State) {
    auto C = cloneModule(*M);
    PassManager PM;
    std::string Err;
    buildPipeline("O2", PM, Err);
    PM.runToFixpoint(*C);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_OptimizeO2);

void BM_InterpreterRun(benchmark::State &State) {
  std::string Err;
  auto M = parseModule(R"(
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %b = mul i32 %a, 3
  %c = icmp slt i32 %b, %y
  %r = select i1 %c, i32 %a, i32 %b
  ret i32 %r
}
)",
                       Err);
  Function *F = M->getFunction("f");
  ExecOptions Opts;
  for (auto _ : State) {
    Memory Mem;
    Interpreter I(Mem, Opts);
    ExecResult R = I.run(*F, {ConcVal::scalar(APInt(32, 7)),
                              ConcVal::scalar(APInt(32, 9))});
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_InterpreterRun);

// The §III-A load-time self-check on the concrete path. Case 0: a
// pointer-argument function of 10 enumerated bits, defined on the first
// trial. Case 1: the same shape with UB on every input, which still
// enumerates all 1024 trials.
void BM_SelfCheck(benchmark::State &State) {
  std::string Err;
  auto M = parseModule(R"(
define i8 @defined(ptr %p, i8 %x) {
  %v = load i8, ptr %p, align 1
  %r = add i8 %v, %x
  ret i8 %r
}

define i8 @always_ub(ptr %p, i8 %x) {
  %v = load i8, ptr %p, align 1
  %r = udiv i8 %v, 0
  ret i8 %r
}
)",
                       Err);
  assert(M);
  const Function &F =
      *M->getFunction(State.range(0) == 0 ? "defined" : "always_ub");
  State.SetLabel(F.getName());
  for (auto _ : State) {
    TVResult R = checkSelfRefinement(F);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SelfCheck)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_SatEquivalenceQuery(benchmark::State &State) {
  for (auto _ : State) {
    TermBuilder B;
    TermRef X = B.mkVar(16, "x");
    SatSolver S;
    BitBlaster BB(S);
    // Prove (x*2 == x+x): UNSAT query.
    BB.assertTrue(B.mkNe(B.mkMul(X, B.mkConst(16, 2)), B.mkAdd(X, X)));
    auto R = S.solve();
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_SatEquivalenceQuery);

// The budget-bound query shape that dominates Table I wall time: a
// violation of zext(x) * zext(y) ule zext(x) * 0xffffffff over a widened
// i64 multiply, stopped by the validator's 4000-conflict budget.
void BM_SatBudgetQuery(benchmark::State &State) {
  int Vars = 0;
  for (auto _ : State) {
    TermBuilder B;
    TermRef X = B.mkZExt(B.mkVar(32, "x"), 64);
    TermRef Y = B.mkZExt(B.mkVar(32, "y"), 64);
    SatSolver S;
    BitBlaster BB(S);
    BB.assertTrue(B.mkNot(B.mkUle(B.mkMul(X, Y),
                                  B.mkMul(X, B.mkConst(64, 0xffffffffULL)))));
    auto R = S.solve(/*ConflictBudget=*/4000);
    benchmark::DoNotOptimize(R);
    Vars = S.numVars();
  }
  State.counters["vars"] = Vars;
}
BENCHMARK(BM_SatBudgetQuery)->Unit(benchmark::kMillisecond);

// Lowering only: the quotient and remainder of one i64 division. Dividers
// repeat the most gates (one shared restoring core for udiv and urem, and
// the divisor's negation at every step), so they gain most from gate
// hashing; "vars" is the formula's size.
void BM_BlastUDiv64(benchmark::State &State) {
  int Vars = 0;
  for (auto _ : State) {
    TermBuilder B;
    TermRef X = B.mkVar(64, "x"), Y = B.mkVar(64, "y");
    SatSolver S;
    BitBlaster BB(S);
    benchmark::DoNotOptimize(BB.blast(B.mkUDiv(X, Y)).data());
    benchmark::DoNotOptimize(BB.blast(B.mkURem(X, Y)).data());
    Vars = S.numVars();
  }
  State.counters["vars"] = Vars;
}
BENCHMARK(BM_BlastUDiv64)->Unit(benchmark::kMillisecond);

void BM_APIntMul64(benchmark::State &State) {
  APInt A(64, 0x123456789ABCDEFULL), Bv(64, 0xFEDCBA987654321ULL);
  for (auto _ : State) {
    APInt C = A * Bv;
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_APIntMul64);

} // namespace

BENCHMARK_MAIN();
