//===- tv/RefinementChecker.cpp - Translation validation -------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "tv/RefinementChecker.h"

#include "smt/BitBlaster.h"
#include "support/RandomGenerator.h"
#include "tv/Counterexample.h"
#include "tv/FunctionEncoder.h"

#include <sstream>

using namespace alive;

const char *alive::tvVerdictName(TVVerdict V) {
  switch (V) {
  case TVVerdict::Correct:
    return "correct";
  case TVVerdict::Incorrect:
    return "incorrect";
  case TVVerdict::Unsupported:
    return "unsupported";
  case TVVerdict::Inconclusive:
    return "inconclusive";
  }
  return "?";
}

namespace {

/// Hard ceiling on exhaustive enumeration, whatever TVOptions asks for:
/// the trial count 1ULL << TotalBits is undefined from 64 bits up.
constexpr unsigned MaxExhaustiveBits = 63;

bool sameSignature(const Function &A, const Function &B) {
  if (A.getReturnType()->str() != B.getReturnType()->str())
    return false;
  if (A.getNumArgs() != B.getNumArgs())
    return false;
  for (unsigned I = 0; I != A.getNumArgs(); ++I)
    if (A.getArg(I)->getType()->str() != B.getArg(I)->getType()->str())
      return false;
  return true;
}

} // namespace

namespace {

/// What one concrete refinement trial established. Vacuous cases keep the
/// reason (UB vs fuel vs unsupported) so budget exhaustion is reported as
/// budget exhaustion, not folded into a generic "inconclusive".
enum class TrialOutcome {
  Violation,             ///< refinement violated (Detail filled in)
  NoViolation,           ///< both sides ran; the target refined the source
  VacuousSrcUB,          ///< src UB: any target behavior is allowed
  VacuousSrcFuel,        ///< src out of fuel: no verdict on this input
  VacuousSrcUnsupported, ///< src hit an unsupported construct
  VacuousTgtFuel,        ///< tgt out of fuel: the trial decided nothing
  VacuousTgtUnsupported, ///< tgt hit an unsupported construct
  Cancelled,             ///< the iteration watchdog cut the trial short
};

/// One concrete refinement trial.
TrialOutcome runConcreteTrial(const Function &Src, const Function &Tgt,
                              const std::vector<ConcVal> &Args,
                              const Memory &InitialMem,
                              const ExecOptions &EOpts, std::string &Detail,
                              const std::vector<uint64_t> &ArgBufAddrs,
                              const std::vector<uint64_t> &ArgBufSizes) {
  Memory SrcMem = InitialMem.clone();
  Interpreter SrcInterp(SrcMem, EOpts);
  ExecResult SR = SrcInterp.run(Src, Args);
  if (SR.Status == ExecStatus::Cancelled)
    return TrialOutcome::Cancelled;
  if (SR.Status == ExecStatus::UB)
    return TrialOutcome::VacuousSrcUB;
  if (SR.Status == ExecStatus::OutOfFuel)
    return TrialOutcome::VacuousSrcFuel;
  if (SR.Status != ExecStatus::Ok)
    return TrialOutcome::VacuousSrcUnsupported;

  Memory TgtMem = InitialMem.clone();
  Interpreter TgtInterp(TgtMem, EOpts);
  ExecResult TR = TgtInterp.run(Tgt, Args);

  std::ostringstream OS;
  if (TR.Status == ExecStatus::UB) {
    OS << "target has UB (" << TR.UBReason << ") on input "
       << renderConcVals(Args) << " where source is defined";
    Detail = OS.str();
    return TrialOutcome::Violation;
  }
  if (TR.Status == ExecStatus::Cancelled)
    return TrialOutcome::Cancelled;
  if (TR.Status == ExecStatus::OutOfFuel)
    return TrialOutcome::VacuousTgtFuel;
  if (TR.Status != ExecStatus::Ok)
    return TrialOutcome::VacuousTgtUnsupported;

  // Return-value refinement.
  if (!SR.IsVoid) {
    for (size_t L = 0; L != SR.Ret.Lanes.size(); ++L) {
      const Lane &SL = SR.Ret.Lanes[L];
      const Lane &TL = TR.Ret.Lanes[L];
      if (SL.Poison)
        continue; // poison refined by anything
      if (TL.Poison || TL.Val != SL.Val) {
        OS << "value mismatch on input " << renderConcVals(Args)
           << ": source " << SL.Val.toString() << ", target "
           << (TL.Poison ? std::string("poison") : TL.Val.toString());
        if (SR.Ret.Lanes.size() > 1)
          OS << " (lane " << L << ")";
        Detail = OS.str();
        return TrialOutcome::Violation;
      }
    }
  }

  // Memory refinement over caller-visible argument buffers.
  for (size_t BufIdx = 0; BufIdx != ArgBufAddrs.size(); ++BufIdx) {
    uint64_t Base = ArgBufAddrs[BufIdx], Len = ArgBufSizes[BufIdx];
    for (uint64_t Off = 0; Off != Len; ++Off) {
      uint64_t Addr = Base + Off;
      bool SrcDefined = SrcMem.isInit(Addr) && !SrcMem.isPoison(Addr);
      if (!SrcDefined)
        continue; // undef/poison bytes refined by anything
      bool TgtDefined = TgtMem.isInit(Addr) && !TgtMem.isPoison(Addr);
      if (!TgtDefined || TgtMem.readByte(Addr) != SrcMem.readByte(Addr)) {
        OS << "memory mismatch at byte +" << Off << " of pointer arg #"
           << BufIdx << " on input " << renderConcVals(Args);
        Detail = OS.str();
        return TrialOutcome::Violation;
      }
    }
  }
  return TrialOutcome::NoViolation;
}

/// Concrete-path checker: bounded enumeration / sampling. \p Stats
/// (optional) receives a volatile per-reason vacuous-trial breakdown
/// ("tv.concrete.vacuous.*") so fuel exhaustion is auditable separately
/// from UB/unsupported vacuousness.
TVResult checkConcrete(const Function &Src, const Function &Tgt,
                       const TVOptions &Opts, StatRegistry *Stats) {
  TVResult Res;
  Res.UsedConcretePath = true;

  // Gather argument shapes; compute exhaustive feasibility.
  struct ArgShape {
    bool IsPointer = false;
    unsigned Lanes = 1;
    unsigned Bits = 0; // per lane
    uint64_t BufSize = 0;
  };
  std::vector<ArgShape> Shapes;
  uint64_t TotalBits = 0;
  for (unsigned I = 0; I != Src.getNumArgs(); ++I) {
    Type *T = Src.getArg(I)->getType();
    ArgShape S;
    if (T->isPointerTy()) {
      S.IsPointer = true;
      S.BufSize = std::max<uint64_t>(Src.paramAttrs(I).Dereferenceable, 8);
      TotalBits += 2; // pointer choices are sampled, count a token amount
    } else if (const auto *VT = dyn_cast<VectorType>(T)) {
      S.Lanes = VT->getNumElements();
      S.Bits = VT->getElementType()->getIntegerBitWidth();
      TotalBits += (uint64_t)S.Lanes * S.Bits;
    } else if (T->isIntegerTy()) {
      S.Bits = T->getIntegerBitWidth();
      TotalBits += S.Bits;
    } else {
      Res.Verdict = TVVerdict::Unsupported;
      Res.Detail = "argument type outside checker domain";
      return Res;
    }
    Shapes.push_back(S);
  }

  ExecOptions EOpts;
  EOpts.Fuel = Opts.Fuel;
  EOpts.Token = Opts.Token;

  // Builds the memory image and argument vector for one trial.
  auto buildTrial = [&](RandomGenerator &RNG, uint64_t TrialSeed,
                        bool Exhaustive, uint64_t EnumIndex, Memory &Mem,
                        std::vector<ConcVal> &Args,
                        std::vector<uint64_t> &BufAddrs,
                        std::vector<uint64_t> &BufSizes) {
    EOpts.TrialSeed = TrialSeed;
    uint64_t Cursor = EnumIndex;
    for (unsigned I = 0; I != Shapes.size(); ++I) {
      const ArgShape &S = Shapes[I];
      if (S.IsPointer) {
        bool PassNull = !Src.paramAttrs(I).NonNull &&
                        (Exhaustive ? (Cursor & 1) : RNG.chance(1, 8));
        if (Exhaustive)
          Cursor >>= 2;
        if (PassNull) {
          Args.push_back(ConcVal::scalar(APInt::getZero(PtrBits)));
          BufAddrs.push_back(0);
          BufSizes.push_back(0);
        } else {
          uint64_t Addr = Mem.allocate(S.BufSize, 8);
          // Initialize the buffer with seeded bytes so loads are defined.
          for (uint64_t Off = 0; Off != S.BufSize; ++Off)
            Mem.writeByte(Addr + Off,
                          (uint8_t)oracleHash(TrialSeed ^ 0x5EED, Addr + Off),
                          /*Poison=*/false);
          Args.push_back(ConcVal::scalar(APInt(PtrBits, Addr)));
          BufAddrs.push_back(Addr);
          BufSizes.push_back(S.BufSize);
        }
        continue;
      }
      ConcVal V;
      for (unsigned L = 0; L != S.Lanes; ++L) {
        if (Exhaustive) {
          APInt Bits = APInt::getZero(S.Bits);
          for (unsigned K = 0; K != S.Bits; ++K) {
            if (Cursor & 1)
              Bits.setBit(K);
            Cursor >>= 1;
          }
          V.Lanes.push_back(Lane::of(Bits));
        } else {
          V.Lanes.push_back(Lane::of(RNG.nextAPInt(S.Bits)));
        }
      }
      Args.push_back(V);
    }
  };

  std::string Detail;
  // Clamp the exhaustive path to what a 64-bit trial counter can express:
  // `1ULL << TotalBits` is undefined at 64 bits and beyond, so a caller
  // setting ExhaustiveBits >= 64 must fall back to sampling there.
  bool Exhaustive =
      TotalBits <= Opts.ExhaustiveBits && TotalBits <= MaxExhaustiveBits;
  uint64_t Trials = Exhaustive ? (1ULL << TotalBits) : Opts.ConcreteTrials;
  uint64_t SrcUB = 0, SrcFuel = 0, SrcUnsup = 0, TgtFuel = 0, TgtUnsup = 0;

  auto RecordVacuousStats = [&] {
    if (!Stats)
      return;
    // Volatile: counts actual checker invocations, which the TV cache
    // elides differently per worker count.
    auto Bump = [&](const char *Name, uint64_t N) {
      if (N)
        Stats->counter(Name, Volatility::Volatile) += N;
    };
    Bump("tv.concrete.vacuous.src-ub", SrcUB);
    Bump("tv.concrete.vacuous.src-fuel", SrcFuel);
    Bump("tv.concrete.vacuous.src-unsupported", SrcUnsup);
    Bump("tv.concrete.vacuous.tgt-fuel", TgtFuel);
    Bump("tv.concrete.vacuous.tgt-unsupported", TgtUnsup);
  };

  RandomGenerator RNG(Opts.Seed);
  for (uint64_t T = 0; T != Trials; ++T) {
    Memory Mem;
    std::vector<ConcVal> Args;
    std::vector<uint64_t> BufAddrs, BufSizes;
    uint64_t TrialSeed = oracleHash(Opts.Seed, T);
    buildTrial(RNG, TrialSeed, Exhaustive, T, Mem, Args, BufAddrs, BufSizes);
    switch (runConcreteTrial(Src, Tgt, Args, Mem, EOpts, Detail, BufAddrs,
                             BufSizes)) {
    case TrialOutcome::Violation:
      Res.Verdict = TVVerdict::Incorrect;
      Res.Detail = Detail;
      Res.CounterExample = Args; // one entry per parameter, lanes intact
      RecordVacuousStats();
      return Res;
    case TrialOutcome::NoViolation:
      break;
    case TrialOutcome::VacuousSrcUB:
      ++SrcUB;
      break;
    case TrialOutcome::VacuousSrcFuel:
      ++SrcFuel;
      break;
    case TrialOutcome::VacuousSrcUnsupported:
      ++SrcUnsup;
      break;
    case TrialOutcome::VacuousTgtFuel:
      ++TgtFuel;
      break;
    case TrialOutcome::VacuousTgtUnsupported:
      ++TgtUnsup;
      break;
    case TrialOutcome::Cancelled: {
      Res.Verdict = TVVerdict::Inconclusive;
      std::ostringstream Cut;
      Cut << "cancelled by iteration watchdog after " << T << " of " << Trials
          << " concrete trials";
      Res.Detail = Cut.str();
      if (Stats)
        ++Stats->counter("tv.concrete.cancelled", Volatility::Volatile);
      RecordVacuousStats();
      return Res;
    }
    }
  }
  RecordVacuousStats();

  uint64_t VacuousSrc = SrcUB + SrcFuel + SrcUnsup;
  uint64_t VacuousTgt = TgtFuel + TgtUnsup;
  // True when every indecisive trial ran out of interpreter fuel — a pure
  // step-limit exhaustion, as opposed to UB/unsupported vacuousness. The
  // marker text is what tvVerdictReason keys "inconclusive.fuel" off.
  bool FuelOnly = SrcUB == 0 && SrcUnsup == 0 && TgtUnsup == 0;
  std::ostringstream OS;
  if (VacuousSrc + VacuousTgt == Trials) {
    // Not a single trial compared both sides: "no violation" would be a
    // vacuous truth, not evidence.
    Res.Verdict = TVVerdict::Inconclusive;
    if (VacuousTgt)
      OS << "no trial was decisive: source UB/fuel on " << VacuousSrc
         << " (UB " << SrcUB << ", fuel " << SrcFuel << ", unsupported "
         << SrcUnsup << "), target fuel/unsupported on " << VacuousTgt
         << " (fuel " << TgtFuel << ", unsupported " << TgtUnsup << ") of "
         << Trials << " trials";
    else
      OS << "source function has UB or exceeds fuel on every trial (UB "
         << SrcUB << ", fuel " << SrcFuel << ", unsupported " << SrcUnsup
         << ")";
    if (FuelOnly)
      OS << "; all indecision from fuel exhaustion";
  } else {
    Res.Verdict = TVVerdict::Correct;
    OS << (Exhaustive ? "exhaustive enumeration"
                      : "sampled trials (bounded guarantee)");
    if (VacuousTgt)
      OS << "; " << VacuousTgt << " of " << Trials
         << " trials vacuous on target (fuel " << TgtFuel << ", unsupported "
         << TgtUnsup << ")";
  }
  Res.Detail = OS.str();
  return Res;
}

/// Symbolic-path checker. \p Stats (optional) receives volatile counters
/// distinguishing the two ways a query can stop without an answer:
/// "tv.solver.budget-exhausted" (the per-query conflict budget — a
/// deterministic property of the query) vs "tv.solver.cancelled" (the
/// iteration watchdog cut the search off).
TVResult checkSymbolic(const Function &Src, const Function &Tgt,
                       const TVOptions &Opts, StatRegistry *Stats) {
  TVResult Res;
  Timer EncodeT;
  TermBuilder B;
  FunctionEncoder Enc(B);

  std::vector<EncodedValue> Args = Enc.makeArguments(Src);
  EncodedFunction S = Enc.encode(Src, Args);
  EncodedFunction T = Enc.encode(Tgt, Args);

  // Violation condition:
  //   not src.UB  AND  ( tgt.UB
  //                      OR (not src.RetPoison AND
  //                          (tgt.RetPoison OR tgt.RetVal != src.RetVal)))
  TermRef Violation;
  if (S.RetVal) {
    TermRef ValueBad = B.mkOr(
        T.RetPoison, B.mkNe(T.RetVal, S.RetVal));
    Violation = B.mkAnd(
        B.mkNot(S.UB),
        B.mkOr(T.UB, B.mkAnd(B.mkNot(S.RetPoison), ValueBad)));
  } else {
    Violation = B.mkAnd(B.mkNot(S.UB), T.UB);
  }

  SatSolver Solver;
  BitBlaster BB(Solver);
  BB.assertTrue(Violation);
  Res.EncodeSeconds = EncodeT.seconds();

  Timer SolveT;
  SatSolver::Result R = Solver.solve(Opts.SolverConflictBudget, Opts.Token);
  Res.SolveSeconds = SolveT.seconds();
  Res.SolverStats = Solver.stats();
  if (Stats) {
    Stats->histogram("tv.encode.seconds").record(Res.EncodeSeconds);
    Stats->histogram("tv.solve.seconds").record(Res.SolveSeconds);
  }

  if (R == SatSolver::Result::Unsat) {
    Res.Verdict = TVVerdict::Correct;
    Res.Detail = "refinement proven for all inputs";
    return Res;
  }
  if (R == SatSolver::Result::Unknown) {
    Res.Verdict = TVVerdict::Inconclusive;
    if (Solver.stopCause() == SatSolver::Stop::Cancelled) {
      Res.Detail = "solver cancelled by iteration watchdog";
      if (Stats)
        ++Stats->counter("tv.solver.cancelled", Volatility::Volatile);
    } else {
      Res.Detail = "solver budget exhausted";
      if (Stats)
        ++Stats->counter("tv.solver.budget-exhausted", Volatility::Volatile);
    }
    return Res;
  }

  // SAT: extract the model and CONFIRM it concretely (the freeze encoding
  // may admit spurious models).
  std::vector<ConcVal> ConcArgs;
  for (unsigned I = 0; I != Src.getNumArgs(); ++I) {
    APInt Val = BB.modelValue(Args[I].Val);
    bool Poison = !BB.modelValue(Args[I].Poison).isZero();
    ConcArgs.push_back(Poison ? ConcVal::scalarPoison(Val.getBitWidth())
                              : ConcVal::scalar(Val));
  }

  ExecOptions EOpts;
  EOpts.Fuel = Opts.Fuel;
  EOpts.TrialSeed = Opts.Seed;
  EOpts.Token = Opts.Token;
  Memory Mem;
  std::string Detail;
  TrialOutcome Replay =
      runConcreteTrial(Src, Tgt, ConcArgs, Mem, EOpts, Detail, {}, {});
  if (Replay == TrialOutcome::Violation) {
    Res.Verdict = TVVerdict::Incorrect;
    Res.Detail = Detail;
    Res.CounterExample = ConcArgs; // one entry per parameter, poison kept
    Res.UsedConcretePath = true;   // the replay decided the verdict
    return Res;
  }
  if (Replay == TrialOutcome::Cancelled) {
    Res.Verdict = TVVerdict::Inconclusive;
    Res.Detail = "cancelled by iteration watchdog during counterexample "
                 "replay";
    return Res;
  }

  // The model did not replay as a violation under the interpreter's
  // deterministic undef/freeze resolution; the SAT hit was an artifact of
  // the freeze fresh-variable encoding. Report inconclusive rather than a
  // false positive.
  Res.Verdict = TVVerdict::Inconclusive;
  Res.Detail = "solver model not confirmed by concrete replay";
  return Res;
}

} // namespace

std::string alive::tvVerdictReason(const TVResult &R) {
  auto Has = [&R](const char *Needle) {
    return R.Detail.find(Needle) != std::string::npos;
  };
  switch (R.Verdict) {
  case TVVerdict::Correct:
    return "correct";
  case TVVerdict::Incorrect:
    return "incorrect";
  case TVVerdict::Unsupported:
    if (Has("signature mismatch"))
      return "unsupported.signature";
    if (Has("declaration"))
      return "unsupported.declaration";
    return "unsupported.domain";
  case TVVerdict::Inconclusive:
    // Order matters: a budget-exhausted symbolic check that degraded to
    // the concrete path carries the solver detail as a prefix, and a
    // watchdog cancellation trumps everything (the check never finished,
    // so no other reason is meaningful).
    if (Has("cancelled by iteration watchdog"))
      return "inconclusive.cancelled";
    if (Has("solver budget exhausted"))
      return "inconclusive.budget";
    if (Has("not confirmed"))
      return "inconclusive.unconfirmed-model";
    if (Has("all indecision from fuel exhaustion"))
      return "inconclusive.fuel";
    if (Has("no trial was decisive") || Has("UB or exceeds fuel"))
      return "inconclusive.vacuous";
    return "inconclusive.other";
  }
  return "?";
}

namespace {

/// Times and counts one symbolic query (latency + solver effort).
TVResult instrumentedSymbolic(const Function &Src, const Function &Tgt,
                              const TVOptions &Opts, StatRegistry *Stats) {
  ScopedTimer T(Stats ? &Stats->histogram("tv.query.symbolic.seconds")
                      : nullptr);
  TVResult R = checkSymbolic(Src, Tgt, Opts, Stats);
  if (Stats) {
    ++Stats->counter("tv.query.symbolic", Volatility::Volatile);
    Stats->counter("tv.solver.conflicts", Volatility::Volatile) +=
        R.SolverStats.Conflicts;
    Stats->counter("tv.solver.decisions", Volatility::Volatile) +=
        R.SolverStats.Decisions;
  }
  return R;
}

/// Times and counts one bounded concrete query.
TVResult instrumentedConcrete(const Function &Src, const Function &Tgt,
                              const TVOptions &Opts, StatRegistry *Stats) {
  ScopedTimer T(Stats ? &Stats->histogram("tv.query.concrete.seconds")
                      : nullptr);
  if (Stats)
    ++Stats->counter("tv.query.concrete", Volatility::Volatile);
  return checkConcrete(Src, Tgt, Opts, Stats);
}

} // namespace

TVResult alive::checkRefinement(const Function &Src, const Function &Tgt,
                                const TVOptions &Opts, StatRegistry *Stats) {
  TVResult Res;
  if (!sameSignature(Src, Tgt)) {
    Res.Verdict = TVVerdict::Unsupported;
    Res.Detail = "signature mismatch between source and target";
    return Res;
  }
  if (Src.isDeclaration() || Tgt.isDeclaration()) {
    Res.Verdict = TVVerdict::Unsupported;
    Res.Detail = "declaration";
    return Res;
  }

  std::string Why;
  if (FunctionEncoder::isSymbolicallySupported(Src, Why) &&
      FunctionEncoder::isSymbolicallySupported(Tgt, Why)) {
    // Very wide functions make bit-blasting explode; use the concrete path
    // above a size heuristic.
    uint64_t Cost = 0;
    for (const Function *F : {&Src, &Tgt})
      for (BasicBlock *BB : F->blocks())
        for (Instruction *I : BB->insts()) {
          unsigned W = I->getType()->isIntegerTy()
                           ? I->getType()->getIntegerBitWidth()
                           : 1;
          bool Quadratic =
              isa<BinaryInst>(I) &&
              (cast<BinaryInst>(I)->getBinOp() == BinaryInst::Mul ||
               BinaryInst::isDivRem(cast<BinaryInst>(I)->getBinOp()));
          Cost += Quadratic ? (uint64_t)W * W : W;
        }
    if (Cost <= 1u << 17) {
      TVResult R = instrumentedSymbolic(Src, Tgt, Opts, Stats);
      // Solver budget exhausted (Alive2's SMT-timeout analog): degrade to
      // the bounded concrete check rather than giving up entirely.
      if (R.Verdict != TVVerdict::Inconclusive)
        return R;
      // A watchdog cancellation is not a budget problem the concrete path
      // could rescue — the whole iteration is being cut off. Propagate
      // immediately instead of burning the remaining time on trials.
      if (Opts.Token && Opts.Token->cancelled())
        return R;
      if (Stats)
        ++Stats->counter("tv.symbolic.fallback", Volatility::Volatile);
      TVResult CR = instrumentedConcrete(Src, Tgt, Opts, Stats);
      // Carry the abandoned symbolic attempt's cost into the final
      // result: the budget-exhausted search is exactly what the profiler
      // must attribute to this query.
      CR.SolverStats = R.SolverStats;
      CR.EncodeSeconds = R.EncodeSeconds;
      CR.SolveSeconds = R.SolveSeconds;
      if (CR.Verdict == TVVerdict::Incorrect)
        return CR;
      CR.Verdict = TVVerdict::Inconclusive;
      CR.Detail = R.Detail + "; no violation in bounded concrete trials";
      return CR;
    }
  }
  return instrumentedConcrete(Src, Tgt, Opts, Stats);
}

TVResult alive::checkSelfRefinement(const Function &F, const TVOptions &Opts) {
  return checkRefinement(F, F, Opts);
}
