//===- core/FuzzerLoop.cpp - In-process mutate/optimize/verify loop --------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/FuzzerLoop.h"

#include "analysis/Verifier.h"
#include "opt/BugInjection.h"
#include "parser/Printer.h"
#include "support/AtomicFile.h"
#include "support/Hash.h"
#include "support/JSON.h"
#include "support/SignalGuard.h"
#include "support/Telemetry.h"
#include "support/Timer.h"
#include "tv/Canonicalize.h"
#include "tv/Counterexample.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace alive;

FuzzerLoop::FuzzerLoop(const FuzzOptions &Opts) : Opts(Opts) {
  // Build and validate the pipeline once. The old per-iteration rebuild
  // checked the result only with assert(): under NDEBUG a bad -passes
  // string silently fuzzed an *empty* pipeline and every verdict was
  // vacuously "Correct". A bad pipeline is now a hard config error in
  // every build mode.
  std::string Err;
  if (!buildPipeline(this->Opts.Passes, PM, Err))
    ConfigError = "invalid pass pipeline '" + this->Opts.Passes + "': " + Err;
  else if (PM.size() == 0)
    ConfigError = "empty pass pipeline '" + this->Opts.Passes + "'";
  PM.setBugContext(&this->Opts.Bugs);
  PM.setTelemetry(&Registry);
  // Profiling rides the flight recorder's span sites: enabling -profile
  // implicitly attaches a recorder (for its span folds) even when
  // -trace-json was not requested.
  if (this->Opts.TraceEnabled || this->Opts.Profile.Enabled) {
    Trace = std::make_unique<TraceRecorder>();
    PM.setTrace(Trace.get());
  }
  if (this->Opts.Profile.Enabled)
    QueryCosts = std::make_unique<QueryCostTracker>(this->Opts.Profile.TopK);
  if (this->Opts.TVCacheSize == 0) {
    this->Opts.SharedCache = nullptr;
  } else if (!this->Opts.UseSharedTVCache || !this->Opts.SharedCache) {
    // No engine-provided shared cache: the loop owns one, whose hits,
    // misses and evictions are exactly a TVCache's of the same capacity.
    OwnedCache = std::make_unique<SharedTVCache>(this->Opts.TVCacheSize);
    this->Opts.SharedCache = OwnedCache.get();
  }
  // Arm the iteration watchdog exactly when a step budget or a time limit
  // is configured. One token per loop, shared by the pass manager (one
  // step per pass-on-function), the solver (per conflict/decision) and the
  // interpreter (per 64 instructions) — TV reaches it via TV.Token. An
  // unarmed token is reached by nothing, so it never reports cancelled.
  if (this->Opts.Survival.StepBudget > 0 || this->Opts.TimeLimitSeconds > 0) {
    this->Opts.TV.Token = &WatchdogToken;
    PM.setCancellation(&WatchdogToken);
  } else {
    // Never trust a caller-smuggled token: TV cache keys exclude it.
    this->Opts.TV.Token = nullptr;
  }
  HMutate = &Registry.histogram("stage.mutate.seconds");
  HOptimize = &Registry.histogram("stage.optimize.seconds");
  HVerify = &Registry.histogram("stage.verify.seconds");
  HOverhead = &Registry.histogram("stage.overhead.seconds");
  HIteration = &Registry.histogram("iteration.seconds");
}

FuzzerLoop::~FuzzerLoop() = default;

unsigned FuzzerLoop::loadModule(std::unique_ptr<Module> M) {
  Master = std::move(M);
  Preprocessed.clear();
  TraceSpan Preprocess(Trace.get(), "preprocess");

  for (Function *F : Master->functions()) {
    if (F->isDeclaration() || F->isIntrinsic())
      continue;
    if (Opts.OnlyFunctions) {
      // The campaign engine already preprocessed the master module; keep
      // exactly the surviving set (drops were counted there, once).
      if (std::find(Opts.OnlyFunctions->begin(), Opts.OnlyFunctions->end(),
                    F->getName()) == Opts.OnlyFunctions->end())
        continue;
    } else if (Opts.SelfCheckOnLoad) {
      // §III-A: "checks that Alive2 can process each function ... any
      // function that cannot be handled is removed"; "any function whose
      // un-mutated form would cause a translation validation error is
      // dropped: there is no point mutating these."
      TraceSpan Span(Trace.get(), "self-check", /*Seed=*/0,
                     Trace ? Trace->intern(F->getName()) : nullptr);
      // The self-check gets its own step budget per function: a
      // pathological input function must not wedge preprocessing either.
      WatchdogToken.beginIteration(Opts.Survival.StepBudget);
      TVResult Self = checkSelfRefinement(*F, Opts.TV);
      if (Self.Verdict != TVVerdict::Correct) {
        ++Stats.FunctionsDropped;
        continue;
      }
    }
    // §III-A preprocessing: dominance, literal constants, shuffle ranges.
    Preprocessed.push_back(
        {F->getName(), std::make_unique<OriginalFunctionInfo>(*F)});
  }
  return (unsigned)Preprocessed.size();
}

std::vector<std::string> FuzzerLoop::testableFunctions() const {
  std::vector<std::string> Names;
  for (const auto &[Name, _] : Preprocessed)
    Names.push_back(Name);
  return Names;
}

std::unique_ptr<Module>
FuzzerLoop::makeMutant(uint64_t Seed,
                       std::vector<std::string> *AppliedOut) const {
  // The external seed-replay path (§III-E reproducibility) must not
  // disturb campaign statistics — the telemetry registry included.
  uint64_t Ignored = 0;
  return makeMutantImpl(Seed, AppliedOut, Ignored, nullptr);
}

std::unique_ptr<Module> FuzzerLoop::makeMutant(uint64_t Seed,
                                               MutationTrail &TrailOut) const {
  uint64_t Ignored = 0;
  return makeMutantImpl(Seed, nullptr, Ignored, nullptr, &TrailOut);
}

std::unique_ptr<Module>
FuzzerLoop::makeMutantImpl(uint64_t Seed, std::vector<std::string> *AppliedOut,
                           uint64_t &NumApplied, StatRegistry *Reg,
                           MutationTrail *Trail, TraceRecorder *TR,
                           MutationAttribution *Attr) const {
  // §III-B: "Alive-mutate makes a copy of the in-memory IR, and then
  // selects and applies one or more mutation operators on each function."
  // Copy-on-write: only the testable functions (and the defined callees
  // their bodies reach) get cloned bodies — everything else rides along as
  // a declaration stub, so per-iteration clone cost scales with the
  // functions the mutator actually visits.
  std::vector<std::string> Testable;
  Testable.reserve(Preprocessed.size());
  for (const auto &[Name, Info] : Preprocessed)
    Testable.push_back(Name);
  std::unique_ptr<Module> Mutant = cloneModuleSubset(*Master, Testable);
  RandomGenerator RNG(Seed);
  Mutator Mut(RNG, Opts.Mutation, Reg, TR);
  if (Trail)
    Mut.setTrail(Trail);
  if (Schedule)
    Mut.setFamilyWeights(Schedule->FamilyWeights.data());

  for (const auto &[Name, Info] : Preprocessed) {
    // Feedback mode: the energy gate decides per (function, seed) whether
    // this function is mutated at all. It consumes no RNG, so the gate
    // result — and therefore the whole RNG stream downstream of it — is a
    // pure function of (Seed, epoch-frozen schedule), which keeps mutants
    // deterministic across worker counts. With Schedule null (blind mode,
    // and every replay path), the gate always passes and the stream is
    // byte-identical to pre-feedback builds.
    if (!scheduleAllowsMutation(Schedule, Name, Seed)) {
      if (Reg)
        ++Reg->counter("feedback.energy_skips");
      continue;
    }
    Function *F = Mutant->getFunction(Name);
    assert(F && "testable function missing from clone");
    MutantInfo MI(*F, *Info);
    std::vector<MutationKind> Applied = Mut.mutateFunction(MI);
    NumApplied += Applied.size();
    if (AppliedOut)
      for (MutationKind K : Applied)
        AppliedOut->push_back(std::string(Name) + ":" +
                              mutationKindName(K));
    if (Attr && !Applied.empty()) {
      Attr->Functions.push_back(Name);
      for (MutationKind K : Applied)
        Attr->Families.push_back(K);
    }
  }
  return Mutant;
}

namespace {

/// Closes the books on one iteration: whatever wall time the three stage
/// timers did not claim — cloning, mutant validation, printing, saving,
/// bookkeeping — is attributed to the explicit overhead bucket, on every
/// exit path. This is the §V-B story made measurable: the in-process loop
/// wins by amortizing exactly this bucket.
struct IterationAccounting {
  FuzzStats &S;
  Histogram *HOverhead, *HIteration;
  Timer T;
  double Mutate0, Optimize0, Verify0;

  IterationAccounting(FuzzStats &S, Histogram *HOverhead,
                      Histogram *HIteration)
      : S(S), HOverhead(HOverhead), HIteration(HIteration),
        Mutate0(S.MutateSeconds),
        Optimize0(S.OptimizeSeconds), Verify0(S.VerifySeconds) {}

  ~IterationAccounting() {
    double Total = T.seconds();
    double Staged = (S.MutateSeconds - Mutate0) +
                    (S.OptimizeSeconds - Optimize0) +
                    (S.VerifySeconds - Verify0);
    double Overhead = std::max(0.0, Total - Staged);
    S.OverheadSeconds += Overhead;
    if (HOverhead)
      HOverhead->record(Overhead);
    if (HIteration)
      HIteration->record(Total);
  }
};

} // namespace

void alive::settleOverhead(FuzzStats &S) {
  double Staged =
      S.MutateSeconds + S.OptimizeSeconds + S.VerifySeconds + S.OverheadSeconds;
  if (S.WorkerSeconds > Staged)
    S.OverheadSeconds += S.WorkerSeconds - Staged;
}

std::vector<ConfigField> alive::campaignConfig(const FuzzOptions &O) {
  auto Num = [](uint64_t V) { return std::to_string(V); };
  auto Bool = [](bool B) -> std::string { return B ? "true" : "false"; };
  auto Str = [](const std::string &S) {
    std::ostringstream OS;
    writeJSONString(OS, S);
    return OS.str();
  };
  std::string Kinds, Bugs;
  for (MutationKind K : O.Mutation.EnabledKinds)
    Kinds += (Kinds.empty() ? "" : ", ") + Str(mutationKindName(K));
  for (const BugInfo &B : bugTable())
    if (O.Bugs.isEnabled(B.Id))
      Bugs += (Bugs.empty() ? "" : ", ") + Str(B.IssueId);
  const ValueSourceOptions &VS = O.Mutation.ValueSource;
  const TVOptions &TV = O.TV;
  return {
      {"passes", Str(O.Passes)},
      {"max_mutations_per_function",
       Num(O.Mutation.MaxMutationsPerFunction)},
      {"value_source", "{\"max_depth\": " + Num(VS.MaxDepth) +
                           ", \"poison_percent\": " + Num(VS.PoisonPercent) +
                           ", \"allow_fresh_parameters\": " +
                           Bool(VS.AllowFreshParameters) + "}"},
      {"enabled_kinds", "[" + Kinds + "]"},
      {"tv", "{\"solver_conflict_budget\": " + Num(TV.SolverConflictBudget) +
                 ", \"concrete_trials\": " + Num(TV.ConcreteTrials) +
                 ", \"exhaustive_bits\": " + Num(TV.ExhaustiveBits) +
                 ", \"fuel\": " + Num(TV.Fuel) + ", \"seed\": " +
                 Num(TV.Seed) + "}"},
      {"skip_unchanged", Bool(O.SkipUnchanged)},
      {"step_budget", Num(O.Survival.StepBudget)},
      {"injected_bugs", "[" + Bugs + "]"},
      {"feedback", Bool(O.Feedback.Enabled)},
      {"epoch_length", Num(O.Feedback.Enabled
                               ? std::max(1u, O.Feedback.EpochLength)
                               : 0)},
      {"canonical_pairs", Bool(O.UseSharedTVCache && O.TVCacheSize > 0)},
  };
}

void alive::readCampaignConfig(const JSONValue &J, FuzzOptions &O) {
  // A member of a missing object, or a missing member, keeps its field.
  auto UInt = [](const JSONValue *Obj, const char *Key, auto &Field) {
    if (Obj)
      Field = (std::decay_t<decltype(Field)>)Obj->getUInt(Key, Field);
  };
  auto Flag = [](const JSONValue *Obj, const char *Key, bool &Field) {
    if (Obj)
      Field = Obj->getBool(Key, Field);
  };
  const JSONValue *VS = J.find("value_source"), *TV = J.find("tv");
  O.Passes = J.getString("passes", O.Passes);
  UInt(&J, "max_mutations_per_function", O.Mutation.MaxMutationsPerFunction);
  UInt(VS, "max_depth", O.Mutation.ValueSource.MaxDepth);
  UInt(VS, "poison_percent", O.Mutation.ValueSource.PoisonPercent);
  Flag(VS, "allow_fresh_parameters",
       O.Mutation.ValueSource.AllowFreshParameters);
  if (const JSONValue *A = J.find("enabled_kinds"); A && A->isArray()) {
    O.Mutation.EnabledKinds.clear();
    for (const JSONValue &E : A->Arr)
      for (unsigned K = 0; K != (unsigned)MutationKind::NumKinds; ++K)
        if (E.Str == mutationKindName((MutationKind)K))
          O.Mutation.EnabledKinds.push_back((MutationKind)K);
  }
  UInt(TV, "solver_conflict_budget", O.TV.SolverConflictBudget);
  UInt(TV, "concrete_trials", O.TV.ConcreteTrials);
  UInt(TV, "exhaustive_bits", O.TV.ExhaustiveBits);
  UInt(TV, "fuel", O.TV.Fuel);
  UInt(TV, "seed", O.TV.Seed);
  Flag(&J, "skip_unchanged", O.SkipUnchanged);
  UInt(&J, "step_budget", O.Survival.StepBudget);
  if (const JSONValue *A = J.find("injected_bugs"); A && A->isArray()) {
    O.Bugs.disableAll();
    for (const JSONValue &E : A->Arr)
      for (const BugInfo &B : bugTable())
        if (E.Str == B.IssueId)
          O.Bugs.enable(B.Id);
  }
  Flag(&J, "feedback", O.Feedback.Enabled);
  UInt(&J, "epoch_length", O.Feedback.EpochLength);
  Flag(&J, "canonical_pairs", O.UseSharedTVCache);
}

void alive::writeConfigObject(std::ostream &OS,
                              const std::vector<ConfigField> &Fields,
                              const std::string &Ind) {
  const char *Sep = "{\n";
  for (const auto &[Key, Value] : Fields) {
    OS << Sep << Ind;
    writeJSONString(OS, Key);
    OS << ": " << Value;
    Sep = ",\n";
  }
  OS << "\n" << Ind.substr(2) << "}";
}

std::unique_ptr<Module> FuzzerLoop::mutateStage(uint64_t Seed,
                                                MutationAttribution *Attr) {
  uint64_t Applied = 0;
  std::unique_ptr<Module> Mutant;
  {
    ScopedTimer T(HMutate, &Stats.MutateSeconds);
    TraceSpan Span(Trace.get(), "mutate", Seed);
    Mutant = makeMutantImpl(Seed, nullptr, Applied, &Registry,
                            /*Trail=*/nullptr, Trace.get(), Attr);
  }
  Stats.MutationsApplied += Applied;
  ++Stats.MutantsGenerated;
  return Mutant;
}

void FuzzerLoop::runIteration(uint64_t Seed) {
  if (!ConfigError.empty())
    return;
  Outcomes.clear();
  // Fresh watchdog budget for the mutate+optimize phase.
  WatchdogToken.beginIteration(Opts.Survival.StepBudget);
  IterationAccounting Books(Stats, HOverhead, HIteration);

  // Feedback collection. Rule fires land in RuleWords through the
  // thread-local sink installed around the optimize stage; verdict-class
  // bits accumulate in Cov during verification. The iteration's bitmap is
  // committed to the worker's pending map on every exit path *except*
  // timeouts: a pipeline or verify loop cut off by the step budget says
  // what the budget allowed, not what the pipeline under test does, and
  // crediting it would let the budget steer the schedule.
  const bool FB = Opts.Feedback.Enabled;
  uint64_t RuleWords[NumRuleWords] = {};
  CoverageBitmap Cov;
  MutationAttribution Attr;
  const uint64_t Timeouts0 = Stats.Timeouts;
  auto CommitFeedback = [&] {
    if (!FB || Stats.Timeouts != Timeouts0)
      return;
    Cov.addRuleWords(RuleWords);
    // Per-rule fire counters, counted per iteration (not per fire): the
    // bitmap is deterministic per seed, so these land on the
    // deterministic side and merge worker-count independently.
    for (unsigned R = 0; R != (unsigned)RuleID::NumRules; ++R)
      if (RuleWords[R >> 6] & ((uint64_t)1 << (R & 63)))
        ++Registry.counter(std::string("feedback.rule.") +
                           ruleName((RuleID)R));
    PendingFB.addIteration(Cov, Attr.Functions, Attr.Families);
  };

  std::unique_ptr<Module> Mutant = mutateStage(Seed, FB ? &Attr : nullptr);

  // Every mutant goes through the verifier: the paper's "valid IR 100% of
  // the time" claim, and cheap.
  if (std::vector<std::string> Errors; !verifyModule(*Mutant, Errors)) {
    // Must never happen: the paper's core validity claim.
    ++Stats.InvalidMutants;
    if (Trace)
      Trace->instant("bug.invalid-mutant", Seed);
    ForensicRecord FR;
    FR.K = ForensicRecord::InvalidMutant;
    FR.Seed = Seed;
    FR.Function = "<mutator>";
    FR.VerdictSlug = "invalid-mutant";
    FR.Detail = "INVALID MUTANT: " + Errors.front();
    recordOutcome(std::move(FR), Mutant.get(), nullptr, BugRecord::Crash,
                  printModule(*Mutant));
    return;
  }
  if (!Opts.SaveDir.empty() && Opts.SaveAll) {
    TraceSpan Span(Trace.get(), "save", Seed);
    saveMutant(*Mutant, Seed, /*Failing=*/false);
  }

  // Snapshot the mutant before optimization (the TV "source").
  std::unique_ptr<Module> Source = cloneModule(*Mutant);

  // §III-C: optimize with the pipeline built once at construction (the
  // per-iteration rebuild was hot-path waste the paper amortizes away).
  // The pass manager reports which functions actually changed — the
  // verification loop below skips the rest.
  ChangedFunctionSet Changed;
  int CrashSig = 0;
  bool PipelineSurvived = true;
  try {
    ScopedTimer T(HOptimize, &Stats.OptimizeSeconds);
    TraceSpan Span(Trace.get(), "optimize", Seed);
    // Installs the rule-fire sink for this thread while the pipeline
    // runs (null in blind mode: fireRule stays a single untaken branch).
    RuleCoverageScope Rules(FB ? RuleWords : nullptr);
    if (Opts.Survival.SignalGuard) {
      // In-process containment fallback (no -fanout): a pass raising a
      // fatal signal becomes a recorded crash instead of killing the
      // campaign. The mutant is torn afterwards; only Source (untouched
      // by the pipeline) is used on that path.
      PipelineSurvived = runWithSignalGuard(
          [&] { PM.runToFixpoint(*Mutant, 4, &Changed); }, CrashSig);
    } else {
      PM.runToFixpoint(*Mutant, 4, &Changed);
    }
  } catch (const OptimizerCrash &C) {
    const std::string &Issue = bugInfo(C.Id).IssueId;
    recordCrash(Seed, Source.get(), C.What, Issue, Issue);
    // A simulated crash is deterministic per seed: the rules that fired
    // before the throw plus the crash verdict class are valid coverage.
    Cov.setVerdict(CoverageBitmap::VB_Crash);
    CommitFeedback();
    return;
  }
  if (!PipelineSurvived) {
    // A fatal signal was contained by the in-process guard. It IS a crash
    // bug of the compiler-under-test; the volatile containment counter
    // shows the guard earned its keep.
    ++Registry.counter("survive.contained-signals", Volatility::Volatile);
    recordCrash(Seed, Source.get(),
                std::string("optimizer raised ") + signalName(CrashSig) +
                    " (contained by the in-process signal guard)",
                "", signalName(CrashSig));
    Cov.setVerdict(CoverageBitmap::VB_Crash);
    CommitFeedback();
    return;
  }
  if (WatchdogToken.deadlinePassed())
    return; // run()'s deadline: the campaign ends with this iteration.
  if (WatchdogToken.cancelled()) {
    // The optimize phase blew its step budget. The mutant is only
    // partially optimized; verifying it would conflate a cut-off pipeline
    // with the configured one. Record the timeout and move on to the next
    // seed.
    recordTimeout(Seed, "", "optimize", Source.get(), nullptr);
    return;
  }
  ++Stats.Optimized;

  // §III-D: refinement check per testable function — except the ones the
  // pipeline provably left alone, and pairs whose verdict is memoized.
  ScopedTimer VerifyT(HVerify, &Stats.VerifySeconds);
  for (const auto &[Name, Info] : Preprocessed) {
    Function *Src = Source->getFunction(Name);
    Function *Tgt = Mutant->getFunction(Name);
    if (!Src || !Tgt || Tgt->isDeclaration())
      continue;
    if (Opts.SkipUnchanged && !Changed.count(Name)) {
      // No pass touched this function: the target is byte-identical to
      // the source, and a function refines itself (established for the
      // unmutated form by the load-time self-check; for mutants, a
      // deterministic interpreter/encoder can never find a violation
      // between a function and its exact copy). Checking would only burn
      // the time the paper's hot loop is trying to save — or worse, count
      // a spurious freeze-encoding "inconclusive".
      ++Stats.VerifySkipped;
      continue;
    }
    TVResult R;
    bool FromCache = false;
    std::string Key;
    {
      TraceSpan Span(Trace.get(), "verify", Seed,
                     Trace ? Trace->intern(Name) : nullptr);
      // Re-arm the budget per refinement check: whether THIS check trips
      // is then a pure function of (Src, Tgt, Opts), independent of how
      // much the cache elided earlier — which keeps step-budget timeouts
      // deterministic across worker counts.
      WatchdogToken.beginIteration(Opts.Survival.StepBudget);
      // The checked pair is the keyed one. Under -shared-tv-cache that is
      // the canonicalized pair, so the verdict is a pure function of the
      // canonical key: a hit replays exactly what a fresh computation
      // would produce no matter which worker (or run) computed it first.
      // The canonical rewrites preserve semantics and the argument list,
      // so counterexamples remain valid for the original pair. Otherwise
      // the key is the raw printed pair. Uncacheable pairs (calls into
      // defined functions, whose bodies lie outside the key) get no key
      // and are checked on the originals.
      const Function *CheckSrc = Src, *CheckTgt = Tgt;
      CanonicalPair CP;
      if (Opts.SharedCache && !Opts.UseSharedTVCache) {
        Key = TVCache::makeKey(*Src, *Tgt, Opts.TV);
      } else if (Opts.SharedCache) {
        CP = canonicalizePair(*Src, *Tgt);
        if (CP.M)
          Key = TVCache::makeKey(CP.SrcText, CP.TgtText, Opts.TV);
        if (!Key.empty()) {
          CheckSrc = CP.Src;
          CheckTgt = CP.Tgt;
        }
      }
      FromCache = !Key.empty() && Opts.SharedCache->lookup(Key, R);
      if (!FromCache)
        R = checkRefinement(*CheckSrc, *CheckTgt, Opts.TV, &Registry);
    }
    if (!FromCache && WatchdogToken.deadlinePassed())
      return; // run()'s deadline, as above: no verdict and no timeout.
    if (!FromCache && WatchdogToken.cancelled()) {
      // Cut off mid-check: no verdict was established. Deliberately NOT
      // counted as Verified, a cache miss, or a tv.verdict.* slug — and
      // never cached, so a later lookup of the same pair runs (and times
      // out) the same check again. Record the timeout and try the
      // remaining functions (each gets a fresh budget).
      recordTimeout(Seed, Name, "verify", Source.get(), Mutant.get());
      continue;
    }
    if (FromCache) {
      ++Stats.TVCacheHits;
    } else if (Opts.SharedCache) {
      ++Stats.TVCacheMisses;
      if (!Key.empty() && Opts.SharedCache->insert(Key, R))
        ++Stats.TVCacheEvictions;
    }
    ++Stats.Verified;
    // Per-verdict breakdown, counted per *established* verdict: a cache
    // hit replays the identical verdict, so these counters are
    // worker-count independent (unlike the hit/miss split).
    std::string VerdictSlug = tvVerdictReason(R);
    ++Registry.counter("tv.verdict." + VerdictSlug);
    if (FB) {
      switch (R.Verdict) {
      case TVVerdict::Correct:
        Cov.setVerdict(CoverageBitmap::VB_Correct);
        break;
      case TVVerdict::Incorrect:
        Cov.setVerdict(CoverageBitmap::VB_Incorrect);
        break;
      default: // Unsupported folds into the inconclusive class.
        Cov.setVerdict(CoverageBitmap::VB_Inconclusive);
        break;
      }
    }
    std::string Bundle;
    if (R.Verdict != TVVerdict::Correct) {
      // Every non-Correct verdict leaves a forensic record (and, when
      // enabled, a bundle) — inconclusive/unsupported outcomes matter
      // for triage even though only Incorrect is a confirmed bug.
      ForensicRecord FR;
      FR.K = ForensicRecord::Verdict;
      FR.Seed = Seed;
      FR.Function = Name;
      FR.VerdictSlug = VerdictSlug;
      FR.Detail = R.Detail;
      FR.CounterExample = renderCounterexampleTable(*Src, R);
      if (R.Verdict == TVVerdict::Incorrect) {
        ++Stats.RefinementFailures;
        ++Registry.counter("bug.miscompile");
        if (Trace)
          Trace->instant("bug.miscompile", Seed, Trace->intern(Name));
        Bundle = recordOutcome(std::move(FR), Source.get(), Mutant.get(),
                               BugRecord::Miscompile,
                               printFunction(*Src) + "\n; optimized to:\n" +
                                   printFunction(*Tgt));
      } else {
        if (R.Verdict == TVVerdict::Inconclusive)
          ++Stats.Inconclusive;
        Bundle = recordOutcome(std::move(FR), Source.get(), Mutant.get());
      }
    }
    if (QueryCosts) {
      // Cost attribution, recorded per established verdict (cache hits
      // replay their first computation's SolverStats byte-for-byte, so
      // every field below except the wall seconds is a pure function of
      // the key — the foundation of the -j1 == -jN profile block).
      QueryCostSample QS;
      // Uncacheable pairs hash the text key they would have had.
      QS.KeyHash = fnv1a64(!Key.empty() ? Key
                                        : TVCache::makeKey(printFunction(*Src),
                                                           printFunction(*Tgt),
                                                           Opts.TV));
      QS.Function = Name;
      QS.Verdict = VerdictSlug;
      QS.Seed = Seed;
      QS.Symbolic = R.EncodeSeconds > 0;
      QS.BundlePath = Bundle;
      QS.Decisions = R.SolverStats.Decisions;
      QS.Propagations = R.SolverStats.Propagations;
      QS.Conflicts = R.SolverStats.Conflicts;
      QS.LearnedClauses = R.SolverStats.LearnedClauses;
      QS.LearnedLiterals = R.SolverStats.LearnedLiterals;
      QS.Restarts = R.SolverStats.Restarts;
      QS.Vars = R.SolverStats.Vars;
      QS.Clauses = R.SolverStats.Clauses;
      QS.EncodeSeconds = R.EncodeSeconds;
      QS.SolveSeconds = R.SolveSeconds;
      QueryCosts->record(QS);
    }
  }
  CommitFeedback();
  // VerifyT closes here, then IterationAccounting attributes the rest of
  // this iteration's wall time to the overhead bucket.
}

const FuzzStats &FuzzerLoop::run() {
  if (!ConfigError.empty())
    return Stats;
  if (Opts.Iterations == 0 && Opts.TimeLimitSeconds <= 0) {
    // Neither bound set: the loop would spin forever. Reject instead.
    ConfigError = "unbounded campaign: set Iterations (-n) or "
                  "TimeLimitSeconds (-t)";
    return Stats;
  }
  Timer Total;
  uint64_t Iter = 0;
  // §III-E: loop until the iteration count or the time budget is reached.
  // The token carries the deadline into the solver and the interpreter, so
  // a query still running when it passes is cut short: that iteration
  // records nothing more, and the loop ends.
  WatchdogToken.setDeadline(Opts.TimeLimitSeconds);
  for (;;) {
    if (Opts.Iterations && Iter >= Opts.Iterations)
      break;
    if (Opts.TimeLimitSeconds > 0 && Total.seconds() >= Opts.TimeLimitSeconds)
      break;
    runIteration(Opts.BaseSeed + Iter);
    ++Iter;
  }
  WatchdogToken.setDeadline(0);
  Stats.TotalSeconds = Total.seconds();
  Stats.WorkerSeconds = Stats.TotalSeconds;
  settleOverhead(Stats);
  return Stats;
}

std::string FuzzerLoop::writeBundle(const ForensicRecord &R,
                                    const Module *Mutant,
                                    const Module *Optimized) {
  if (Opts.BugBundleDir.empty())
    return "";
  if (BundlesDegraded) {
    // A previous bundle hit ENOSPC: writing more would only fail the same
    // way (or worsen the disk). Skip — the campaign keeps fuzzing, each
    // elided bundle is counted, and the run report flags the degradation.
    ++Registry.counter("survive.degraded.bundle-skips",
                       Volatility::Volatile);
    return "";
  }
  // The trail is regenerated lazily, only on the bug path: recording is
  // RNG-silent, so this replays the exact mutant while the hot loop paid
  // nothing for it.
  MutationTrail Trail;
  uint64_t Ignored = 0;
  makeMutantImpl(R.Seed, nullptr, Ignored, nullptr, &Trail);
  std::vector<std::string> Testable = testableFunctions();
  BundleInputs In{Opts, Testable, *Master, Mutant, Optimized, &Trail, R};
  std::string Error;
  std::string Path = writeBugBundle(Opts.BugBundleDir, In, Error);
  if (Path.empty()) {
    ++Stats.BundleFailures;
    if (BundleError.empty())
      BundleError = Error;
    if (isNoSpaceError(Error)) {
      BundlesDegraded = true;
      ++Registry.counter("survive.degraded.enospc", Volatility::Volatile);
    }
  } else {
    ++Stats.BundlesWritten;
  }
  return Path;
}

void FuzzerLoop::recordTimeout(uint64_t Seed, const std::string &Function,
                               const char *Phase, const Module *Mutant,
                               const Module *Optimized) {
  ++Stats.Timeouts;
  // Deterministic: the step budget trips at the same point for the same
  // seed, whichever worker runs it.
  ++Registry.counter(std::string("survive.timeout.") + Phase);
  if (Trace)
    Trace->instant("timeout", Seed,
                   Function.empty() ? nullptr : Trace->intern(Function));

  ForensicRecord FR;
  FR.K = ForensicRecord::Timeout;
  FR.Seed = Seed;
  FR.Function = Function;
  FR.VerdictSlug = "timeout";
  std::ostringstream OS;
  OS << "iteration watchdog: step budget of " << Opts.Survival.StepBudget
     << " exhausted in " << Phase << " phase";
  if (!Function.empty())
    OS << " while checking '" << Function << "'";
  FR.Detail = OS.str();
  recordOutcome(std::move(FR), Mutant, Optimized);
}

std::string
FuzzerLoop::recordOutcome(ForensicRecord FR, const Module *Mutant,
                          const Module *Optimized,
                          std::optional<BugRecord::RecordKind> BugKind,
                          std::string MutantIR) {
  std::string Bundle = writeBundle(FR, Mutant, Optimized);
  if (BugKind) {
    // The saved file is named by seed: a mutant that fails in several
    // functions is saved and counted once.
    const bool Save = !Opts.SaveDir.empty() && Mutant &&
                      (Bugs.empty() || Bugs.back().MutantSeed != FR.Seed);
    BugRecord B;
    B.Kind = *BugKind;
    B.FunctionName = FR.Function;
    B.MutantSeed = FR.Seed;
    B.Detail = FR.Detail;
    B.IssueId = FR.IssueId;
    B.MutantIR = std::move(MutantIR);
    B.BundlePath = Bundle;
    Bugs.push_back(std::move(B));
    if (Save) {
      TraceSpan Span(Trace.get(), "save", FR.Seed);
      saveMutant(*Mutant, FR.Seed, /*Failing=*/true);
    }
  }
  Outcomes.push_back(std::move(FR));
  return Bundle;
}

void FuzzerLoop::saveMutant(const Module &M, uint64_t Seed, bool Failing) {
  if (!SaveDirReady) {
    if (!SaveDirError.empty()) {
      // The directory already failed to come up: don't retry the write
      // per mutant, just account for the lost §III-E artifact.
      ++Stats.SaveFailures;
      return;
    }
    // Create the directory on first use. Concurrent workers may race
    // here — create_directories treats an already-existing directory as
    // success.
    std::error_code EC;
    std::filesystem::create_directories(Opts.SaveDir, EC);
    if (EC) {
      SaveDirError = "cannot create save directory '" + Opts.SaveDir +
                     "': " + EC.message();
      ++Stats.SaveFailures;
      return;
    }
    SaveDirReady = true;
  }
  std::string Path = Opts.SaveDir + "/mutant-" + std::to_string(Seed) +
                     (Failing ? "-failing" : "") + ".ll";
  std::ofstream Out(Path);
  if (Out) {
    Out << "; mutant seed " << Seed << "\n" << printModule(M);
    Out.close();
  }
  if (!Out) {
    // The §III-E reproducibility artifact was lost: count it so the
    // campaign report shows the loss instead of dropping it silently.
    ++Stats.SaveFailures;
    return;
  }
  ++Stats.MutantsSaved;
}

void FuzzerLoop::recordCrash(uint64_t Seed, const Module *Source,
                             std::string Detail, std::string IssueId,
                             const std::string &TraceTag) {
  ++Stats.Crashes;
  ++Registry.counter("bug.crash");
  if (Trace)
    Trace->instant("bug.crash", Seed, Trace->intern(TraceTag));
  ForensicRecord FR;
  FR.K = ForensicRecord::Crash;
  FR.Seed = Seed;
  FR.VerdictSlug = "crash";
  FR.Detail = std::move(Detail);
  FR.IssueId = std::move(IssueId);
  recordOutcome(std::move(FR), Source, nullptr, BugRecord::Crash,
                Source ? printModule(*Source) : "");
}

void FuzzerLoop::recordKilledSeed(uint64_t Seed, std::string Detail) {
  if (!ConfigError.empty())
    return;
  Outcomes.clear();
  IterationAccounting Books(Stats, HOverhead, HIteration);
  // The mutator is signal-safe, but this process must survive whatever
  // killed its predecessors.
  std::unique_ptr<Module> Mutant;
  int Sig = 0;
  if (!runWithSignalGuard([&] { Mutant = mutateStage(Seed, nullptr); }, Sig))
    Detail += "; mutant regeneration raised " + std::string(signalName(Sig)) +
              " too";
  if (Mutant && !Opts.SaveDir.empty() && Opts.SaveAll) {
    TraceSpan Span(Trace.get(), "save", Seed);
    saveMutant(*Mutant, Seed, /*Failing=*/false);
  }
  recordCrash(Seed, Mutant.get(), std::move(Detail), "", "killed");
}
