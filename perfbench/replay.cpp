//===- perfbench/replay.cpp - Traced per-layer replay of a workload -------===//
///
/// \file
/// Mirrors FuzzerLoop::runIteration call for call, from outside the
/// library: the same mutant (FuzzerLoop::makeMutant), the same validity
/// check, source snapshot, pipeline, skip rule and per-worker verdict
/// cache. A cache miss is checked the way checkRefinement routes it: the
/// symbolic fragment goes through FunctionEncoder + BitBlaster (tv.encode)
/// and SatSolver::solve (smt.solve), with the interpreter confirming SAT
/// models and rescuing budget stops (ir.interp); everything else is a
/// concrete-only checkRefinement call, which is interpreter work.
/// The harness compares the replay's verdicts, skips and solver effort
/// against the untraced campaigns, so a replay that drifts from the
/// library fails the run instead of mis-attributing time.
///
//===----------------------------------------------------------------------===//

#include "replay.h"

#include "analysis/Verifier.h"
#include "parser/Parser.h"
#include "smt/BitBlaster.h"
#include "support/RandomGenerator.h"
#include "tv/FunctionEncoder.h"
#include "tv/TVCache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>

using namespace alive;
using namespace perfbench;

namespace {

uint64_t nowNs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Scoped {
  Tracer &T;
  int32_t I;
  Scoped(Tracer &T, const char *Name, uint64_t Id) : T(T), I(T.begin(Name, Id)) {}
  ~Scoped() { T.end(I); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;
};

enum class Trial { Violation, NoViolation, Vacuous };

/// One refinement trial on \p Args over the initial memory \p Mem. Pointer
/// arguments' buffers are (address, length) pairs in \p Bufs.
Trial runTrial(const Function &Src, const Function &Tgt,
               const std::vector<ConcVal> &Args, const Memory &Mem,
               const ExecOptions &EO,
               const std::vector<std::pair<uint64_t, uint64_t>> &Bufs) {
  Memory SM = Mem.clone();
  ExecResult SR = Interpreter(SM, EO).run(Src, Args);
  if (SR.Status != ExecStatus::Ok)
    return Trial::Vacuous; // source UB / fuel / unsupported allows anything
  Memory TM = Mem.clone();
  ExecResult TR = Interpreter(TM, EO).run(Tgt, Args);
  if (TR.Status == ExecStatus::UB)
    return Trial::Violation;
  if (TR.Status != ExecStatus::Ok)
    return Trial::Vacuous;
  if (!SR.IsVoid)
    for (size_t L = 0; L != SR.Ret.Lanes.size(); ++L) {
      const Lane &S = SR.Ret.Lanes[L], &T = TR.Ret.Lanes[L];
      if (!S.Poison && (T.Poison || !(T.Val == S.Val)))
        return Trial::Violation;
    }
  for (auto [Base, Len] : Bufs)
    for (uint64_t A = Base; A != Base + Len; ++A)
      if (SM.isInit(A) && !SM.isPoison(A) &&
          (!TM.isInit(A) || TM.isPoison(A) || TM.readByte(A) != SM.readByte(A)))
        return Trial::Violation;
  return Trial::NoViolation;
}

/// The bounded concrete check the checker falls back to when the solver
/// stops at its conflict budget. Only reached for the symbolic fragment,
/// so every argument is a scalar integer. Returns the first violating
/// input, if any.
bool concreteFallback(const Function &Src, const Function &Tgt,
                      const TVOptions &TV, std::vector<ConcVal> &CexOut) {
  uint64_t TotalBits = 0;
  for (unsigned I = 0; I != Src.getNumArgs(); ++I)
    TotalBits += Src.getArg(I)->getType()->getIntegerBitWidth();
  bool Exhaustive = TotalBits <= TV.ExhaustiveBits && TotalBits <= 63;
  uint64_t Trials = Exhaustive ? (1ULL << TotalBits) : TV.ConcreteTrials;
  ExecOptions EO;
  EO.Fuel = TV.Fuel;
  RandomGenerator RNG(TV.Seed);
  for (uint64_t T = 0; T != Trials; ++T) {
    EO.TrialSeed = oracleHash(TV.Seed, T);
    std::vector<ConcVal> Args;
    uint64_t Cursor = T;
    for (unsigned I = 0; I != Src.getNumArgs(); ++I) {
      unsigned Bits = Src.getArg(I)->getType()->getIntegerBitWidth();
      if (!Exhaustive) {
        Args.push_back(ConcVal::scalar(RNG.nextAPInt(Bits)));
        continue;
      }
      APInt V = APInt::getZero(Bits);
      for (unsigned K = 0; K != Bits; ++K, Cursor >>= 1)
        if (Cursor & 1)
          V.setBit(K);
      Args.push_back(ConcVal::scalar(V));
    }
    if (runTrial(Src, Tgt, Args, Memory(), EO, {}) == Trial::Violation) {
      CexOut = std::move(Args);
      return true;
    }
  }
  return false;
}

bool sameSignature(const Function &A, const Function &B) {
  if (A.getReturnType()->str() != B.getReturnType()->str() ||
      A.getNumArgs() != B.getNumArgs())
    return false;
  for (unsigned I = 0; I != A.getNumArgs(); ++I)
    if (A.getArg(I)->getType()->str() != B.getArg(I)->getType()->str())
      return false;
  return true;
}

/// checkRefinement's routing rule: the symbolic fragment, unless the
/// multiply/divide-weighted size makes bit-blasting explode.
bool routesSymbolic(const Function &Src, const Function &Tgt) {
  std::string Why;
  if (!FunctionEncoder::isSymbolicallySupported(Src, Why) ||
      !FunctionEncoder::isSymbolicallySupported(Tgt, Why))
    return false;
  uint64_t Cost = 0;
  for (const Function *F : {&Src, &Tgt})
    for (BasicBlock *BB : F->blocks())
      for (Instruction *I : BB->insts()) {
        unsigned W = I->getType()->isIntegerTy()
                         ? I->getType()->getIntegerBitWidth()
                         : 1;
        auto *B = dyn_cast<BinaryInst>(I);
        bool Quadratic = B && (B->getBinOp() == BinaryInst::Mul ||
                               BinaryInst::isDivRem(B->getBinOp()));
        Cost += Quadratic ? (uint64_t)W * W : W;
      }
  return Cost <= (1u << 17);
}

/// One cache-miss refinement check, decomposed into layer spans.
TVResult tracedCheck(const Function &Src, const Function &Tgt,
                     const TVOptions &TV, uint64_t Seed, Tracer &T,
                     ReplayStats &Out,
                     std::optional<SatSolver::Result> &Solved) {
  Scoped Check(T, "tv.check", Seed);
  if (Src.isDeclaration() || Tgt.isDeclaration() ||
      !sameSignature(Src, Tgt) || !routesSymbolic(Src, Tgt)) {
    // Concrete-only check (memory, vectors, pointers, loops, wide
    // functions): bounded enumeration in the interpreter.
    Scoped Interp(T, "ir.interp", Seed);
    ++Out.InterpQueries;
    ++Out.ConcreteChecks;
    return checkRefinement(Src, Tgt, TV);
  }

  ++Out.SymbolicQueries;
  TermBuilder B;
  FunctionEncoder Enc(B);
  SatSolver Solver;
  BitBlaster BB(Solver);
  std::vector<EncodedValue> Args;
  {
    Scoped Encode(T, "tv.encode", Seed);
    Args = Enc.makeArguments(Src);
    EncodedFunction S = Enc.encode(Src, Args);
    EncodedFunction G = Enc.encode(Tgt, Args);
    // Built in the checker's order, so the formula (and the solver's
    // search) is the one the campaign ran.
    TermRef Violation;
    if (S.RetVal) {
      TermRef ValueBad = B.mkOr(G.RetPoison, B.mkNe(G.RetVal, S.RetVal));
      Violation = B.mkAnd(
          B.mkNot(S.UB), B.mkOr(G.UB, B.mkAnd(B.mkNot(S.RetPoison), ValueBad)));
    } else {
      Violation = B.mkAnd(B.mkNot(S.UB), G.UB);
    }
    BB.assertTrue(Violation);
    Out.SatVars += (uint64_t)Solver.numVars();
  }
  SatSolver::Result SR;
  {
    Scoped Solve(T, "smt.solve", Seed);
    SR = Solver.solve(TV.SolverConflictBudget, nullptr);
  }
  Solved = SR;
  if (SR == SatSolver::Result::Unknown &&
      Solver.stopCause() != SatSolver::Stop::ConflictBudget)
    ++Out.SolveVerdictMismatches; // no watchdog: only the budget stops it
  const SatSolver::Stats &St = Solver.stats();
  Out.Conflicts += St.Conflicts;
  Out.Decisions += St.Decisions;
  Out.Propagations += St.Propagations;
  Out.LearnedClauses += St.LearnedClauses;
  Out.LearnedLiterals += St.LearnedLiterals;

  TVResult R;
  R.SolverStats = St;
  if (SR == SatSolver::Result::Unsat) {
    R.Verdict = TVVerdict::Correct;
    R.Detail = "refinement proven for all inputs";
    return R;
  }
  Scoped Interp(T, "ir.interp", Seed);
  ++Out.InterpQueries;
  if (SR == SatSolver::Result::Unknown) {
    // Conflict budget spent: the bounded concrete trials decide or the
    // verdict stays budget-bound.
    ++Out.BudgetStops;
    ++Out.ConcreteChecks;
    if (concreteFallback(Src, Tgt, TV, R.CounterExample)) {
      R.Verdict = TVVerdict::Incorrect;
      R.Detail = "violation in bounded concrete trials";
    } else {
      R.Verdict = TVVerdict::Inconclusive;
      R.Detail = "solver budget exhausted; no violation in bounded concrete "
                 "trials";
    }
    return R;
  }
  // SAT: confirm the model in the interpreter.
  std::vector<ConcVal> Model;
  for (unsigned I = 0; I != Src.getNumArgs(); ++I) {
    APInt V = BB.modelValue(Args[I].Val);
    bool Poison = !BB.modelValue(Args[I].Poison).isZero();
    Model.push_back(Poison ? ConcVal::scalarPoison(V.getBitWidth())
                           : ConcVal::scalar(V));
  }
  ExecOptions EO;
  EO.Fuel = TV.Fuel;
  EO.TrialSeed = TV.Seed;
  if (runTrial(Src, Tgt, Model, Memory(), EO, {}) == Trial::Violation) {
    R.Verdict = TVVerdict::Incorrect;
    R.Detail = "solver model confirmed by concrete replay";
    R.CounterExample = std::move(Model);
  } else {
    R.Verdict = TVVerdict::Inconclusive;
    R.Detail = "solver model not confirmed by concrete replay";
  }
  return R;
}

/// The verdicts a replayed solve result can produce: UNSAT proves
/// refinement, SAT yields a confirmed or unconfirmed model, a budget stop
/// ends budget-bound unless the concrete trials find a violation.
bool solveAgrees(SatSolver::Result SR, const std::string &Slug) {
  switch (SR) {
  case SatSolver::Result::Unsat:
    return Slug == "correct";
  case SatSolver::Result::Sat:
    return Slug == "incorrect" || Slug == "inconclusive.unconfirmed-model";
  case SatSolver::Result::Unknown:
    return Slug == "incorrect" || Slug == "inconclusive.budget";
  }
  return false;
}

void replayIteration(const FuzzerLoop &Loop, PassManager &PM,
                     const std::vector<std::string> &Names, TVCache &Cache,
                     const TVOptions &TV, uint64_t Seed, Tracer &T,
                     ReplayStats &Out) {
  Scoped Iter(T, "iteration", Seed);
  ++Out.Mutants;
  std::unique_ptr<Module> Mutant;
  {
    Scoped S(T, "core.mutate", Seed);
    std::vector<std::string> Applied;
    Mutant = Loop.makeMutant(Seed, &Applied);
    Out.Mutations += Applied.size();
  }
  {
    Scoped S(T, "analysis.verify_ir", Seed);
    std::vector<std::string> Errors;
    if (!verifyModule(*Mutant, Errors)) {
      ++Out.InvalidMutants;
      return;
    }
  }
  std::unique_ptr<Module> Source;
  {
    Scoped S(T, "ir.clone", Seed);
    Source = cloneModule(*Mutant);
  }
  ChangedFunctionSet Changed;
  {
    Scoped S(T, "opt.pipeline", Seed);
    try {
      PM.runToFixpoint(*Mutant, 4, &Changed);
    } catch (const OptimizerCrash &C) {
      ++Out.Crashes;
      Out.CrashIds.push_back({Seed, bugInfo(C.Id).IssueId});
      return;
    }
  }
  for (const std::string &Name : Names) {
    Function *Src = Source->getFunction(Name);
    Function *Tgt = Mutant->getFunction(Name);
    if (!Src || !Tgt || Tgt->isDeclaration())
      continue;
    ++Out.FunctionVisits;
    if (!Changed.count(Name)) {
      ++Out.Skipped;
      continue;
    }
    std::string Key;
    TVResult R;
    bool Hit = false;
    {
      Scoped S(T, "tv.cache", Seed);
      Key = TVCache::makeKey(*Src, *Tgt, TV);
      if (!Key.empty())
        if (const TVResult *H = Cache.lookup(Key)) {
          R = *H;
          Hit = true;
        }
    }
    if (Hit) {
      ++Out.CacheHits;
    } else {
      ++Out.CacheMisses;
      ++Out.Queries;
      std::optional<SatSolver::Result> Solved;
      uint64_t T0 = nowNs();
      R = tracedCheck(*Src, *Tgt, TV, Seed, T, Out, Solved);
      Out.CheckMicros.push_back((double)(nowNs() - T0) / 1e3);
      if (Solved && !solveAgrees(*Solved, tvVerdictReason(R)))
        ++Out.SolveVerdictMismatches;
      if (!Key.empty()) {
        Scoped S(T, "tv.cache", Seed);
        if (Cache.insert(Key, R))
          ++Out.CacheEvictions;
      }
    }
    std::string Slug = tvVerdictReason(R);
    ++Out.VerdictSlugs[Slug];
    if (R.Verdict == TVVerdict::Incorrect)
      Out.Miscompiles.push_back({Seed, Name});
  }
}

} // namespace

int32_t Tracer::begin(const char *Name, uint64_t Id) {
  Spans.push_back({Name, nowNs(), 0, Current, Id});
  Current = (int32_t)Spans.size() - 1;
  return Current;
}

void Tracer::end(int32_t Index) {
  Spans[Index].EndNs = nowNs();
  Current = Spans[Index].Parent;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Name] +=
        (double)(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) / 1e9;
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "name,start_ns,end_ns,parent,id\n");
  for (const Span &S : Spans)
    std::fprintf(F, "%s,%llu,%llu,%d,%llu\n", S.Name,
                 (unsigned long long)S.StartNs, (unsigned long long)S.EndNs,
                 S.Parent, (unsigned long long)S.Id);
  return std::fclose(F) == 0;
}

bool perfbench::replayJobs(const std::vector<Job> &Jobs, Tracer &T,
                           ReplayStats &Out, std::string &Error) {
  uint64_t Start = nowNs();
  for (size_t JI = 0; JI != Jobs.size(); ++JI) {
    const Job &J = Jobs[JI];
    Scoped Campaign(T, "campaign", JI);
    // Same configuration as the campaign's worker: the TV token is never
    // set without a watchdog, and the pipeline carries the job's defects.
    FuzzOptions Opts = J.Opts;
    Opts.TV.Token = nullptr;
    FuzzerLoop Loop(Opts);
    std::unique_ptr<Module> M = parseModule(J.IR, Error);
    if (!M) {
      Error = J.Name + ": " + Error;
      return false;
    }
    if (Loop.loadModule(std::move(M)) == 0)
      continue; // the campaign skips inputs with nothing testable too
    PassManager PM;
    if (!buildPipeline(Opts.Passes, PM, Error)) {
      Error = J.Name + ": " + Error;
      return false;
    }
    PM.setBugContext(&Opts.Bugs);
    TVCache Cache(Opts.TVCacheSize);
    std::vector<std::string> Names = Loop.testableFunctions();
    for (uint64_t I = 0; I != Opts.Iterations; ++I)
      replayIteration(Loop, PM, Names, Cache, Opts.TV, Opts.BaseSeed + I, T,
                      Out);
  }
  Out.WallSeconds = (double)(nowNs() - Start) / 1e9;
  Out.SelfSeconds = T.selfSeconds();
  return true;
}

bool perfbench::confirmViolation(const Function &Src, const Function &Tgt,
                                 const std::vector<ConcVal> &Args,
                                 const TVOptions &TV) {
  if (Args.size() != Src.getNumArgs() || !sameSignature(Src, Tgt))
    return false;
  bool HasPointer = false;
  for (unsigned I = 0; I != Src.getNumArgs(); ++I)
    HasPointer |= Src.getArg(I)->getType()->isPointerTy();
  // A symbolic model replays under the checker's base seed; a concrete
  // trial under oracleHash(Seed, T) for its trial index T, which also
  // seeds the bytes of pointer arguments' buffers.
  uint64_t Limit = 1ULL << std::min(TV.ExhaustiveBits, 14u);
  Limit = std::max<uint64_t>(Limit, TV.ConcreteTrials);
  for (uint64_t T = 0; T <= Limit; ++T) {
    uint64_t TrialSeed = T == 0 ? TV.Seed : oracleHash(TV.Seed, T - 1);
    if (T == 0 && HasPointer)
      continue;
    Memory Mem;
    std::vector<std::pair<uint64_t, uint64_t>> Bufs;
    bool Layout = true;
    for (unsigned I = 0; I != Src.getNumArgs() && Layout; ++I) {
      if (!Src.getArg(I)->getType()->isPointerTy())
        continue;
      const APInt &P = Args[I].lane().Val;
      if (P.isZero())
        continue;
      uint64_t Len = std::max<uint64_t>(Src.paramAttrs(I).Dereferenceable, 8);
      uint64_t Addr = Mem.allocate(Len, 8);
      Layout = APInt(PtrBits, Addr) == P;
      for (uint64_t Off = 0; Off != Len; ++Off)
        Mem.writeByte(Addr + Off,
                      (uint8_t)oracleHash(TrialSeed ^ 0x5EED, Addr + Off),
                      /*Poison=*/false);
      Bufs.push_back({Addr, Len});
    }
    if (!Layout)
      return false;
    ExecOptions EO;
    EO.Fuel = TV.Fuel;
    EO.TrialSeed = TrialSeed;
    if (runTrial(Src, Tgt, Args, Mem, EO, Bufs) == Trial::Violation)
      return true;
  }
  return false;
}
