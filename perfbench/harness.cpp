//===- perfbench/harness.cpp - The repository benchmark -------------------===//
///
/// \file
/// Runs one benchmark workload through the public library API and prints
/// its metrics; the last line of stdout is the JSON result.
///
///   perfbench --workload corpus|table1|campaign --seed N --seconds S
///             --trace 0|1 --work-dir DIR [--size full|tiny]
///
/// A workload is a list of campaigns built from the seed. A pass runs
/// every campaign once (set-up, then CampaignEngine::run); passes repeat
/// until --seconds have elapsed, cheap campaigns more often than expensive
/// ones, and each campaign's wall is taken over its samples.
/// Every pass checks its outputs: no invalid mutant, no watchdog timeout,
/// and every incorrect verdict's counterexample re-executed by the
/// benchmark's own interpreter run must show the violation.
///
/// --trace 1 runs one untraced pass, then replays it twice under spans
/// (replay.h) and prints per-layer metrics. The replay must reproduce the
/// campaigns' verdicts, skips, cache traffic and solver effort exactly,
/// and its deterministic counters must repeat across the two replays.
///
//===----------------------------------------------------------------------===//

#include "replay.h"

#include "core/CampaignEngine.h"
#include "corpus/Corpus.h"
#include "corpus/CorpusLoader.h"
#include "parser/Parser.h"
#include "support/RandomGenerator.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

using namespace alive;
using namespace perfbench;

namespace {

struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
  bool Tiny = false;
};

/// Workload sizes. `tiny` is the smoke mode: every workload in seconds.
struct Sizes {
  unsigned CorpusFiles, TableDefects, CampaignFiles;
  uint64_t CorpusMutants, TableMutants, CampaignMutants;
};
constexpr Sizes Full{200, 33, 24, 25, 128, 300};
constexpr Sizes Tiny{4, 4, 4, 16, 16, 32};
/// Set-up samples: at least this many, over at least this long (a table1
/// set-up takes ~2.5 ms, so nine would leave its median to chance).
constexpr unsigned MinSetupSamples = 9;
constexpr double MinSetupSeconds = 1;

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg.c_str());
  std::exit(2);
}

/// The §V-B translation-validation settings; everything else is the
/// alive-mutate default (-O2, per-worker verdict cache, skip-unchanged).
FuzzOptions defaultOptions() {
  FuzzOptions O;
  O.TV.ConcreteTrials = 16;
  O.TV.SolverConflictBudget = 4000;
  return O;
}

/// The inputs are a fixed draw: the corpus of bench_throughput's §V-B
/// experiment, and mutant seeds 1..N in every campaign (FuzzOptions'
/// default base, as `alive-mutate -n=N` runs). --seed only permutes the
/// order the campaigns run in. Per-mutant cost is heavy-tailed: about one
/// corpus mutant in 2500 yields a query that runs into the 4000-conflict
/// budget and costs 5-20 s alone, so seed-drawn mutant sets swing a
/// workload's wall time 2-5x, beyond any bound a run-sized sample meets.
constexpr uint64_t CorpusSeed = 2024;

/// Generated corpus files with the fixed paper listings left out.
std::vector<std::string> generatedFiles(unsigned Count) {
  unsigned Listings = 0;
  for (const std::string &S : paperListingSeeds())
    Listings += S.size() <= 2048;
  std::vector<std::string> Files =
      generateCorpusFiles(CorpusSeed, Count + Listings);
  Files.erase(Files.begin(), Files.begin() + Listings);
  return Files;
}

/// The pass pipeline that exercises a Table I component most directly
/// (the mapping bench_campaign uses).
std::string pipelineFor(const char *Component) {
  static const std::map<std::string, std::string> Map = {
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
  return It == Map.end() ? "lowering" : It->second;
}

std::vector<Job> buildJobs(const Config &C, const Sizes &Z) {
  std::vector<Job> Jobs;
  if (C.Workload == "corpus") {
    // One 1-worker campaign per generated file: the §V-B shape.
    std::vector<std::string> Files = generatedFiles(Z.CorpusFiles);
    for (size_t I = 0; I != Files.size(); ++I) {
      Job J;
      J.Name = "file" + std::to_string(I);
      J.IR = Files[I];
      J.Opts = defaultOptions();
      J.Opts.Iterations = Z.CorpusMutants;
      Jobs.push_back(std::move(J));
    }
  } else if (C.Workload == "table1") {
    // One campaign per seeded defect over its near-miss seed, carrying
    // only that defect; a fixed budget with no early stop.
    for (const BugInfo &Bug : bugTable()) {
      if (Jobs.size() == Z.TableDefects)
        break;
      const char *Text = nullptr;
      for (const NearMissSeed &S : nearMissSeeds())
        if (std::strcmp(S.IssueId, Bug.IssueId) == 0)
          Text = S.Text;
      if (!Text)
        die(std::string("no near-miss seed for issue ") + Bug.IssueId);
      Job J;
      J.Name = Bug.IssueId;
      J.IR = Text;
      J.Bug = &Bug;
      J.Opts = defaultOptions();
      J.Opts.Passes = pipelineFor(Bug.Component);
      J.Opts.Bugs.enable(Bug.Id);
      J.Opts.Iterations = Z.TableMutants;
      Jobs.push_back(std::move(J));
    }
  } else if (C.Workload == "campaign") {
    // One alive-mutate-style campaign over a merged generated corpus,
    // feedback-directed with short epochs, on two worker threads (one on a
    // single-core host). With a worker on every core of a 4-core host, any
    // other load on the machine lands on a worker, and every epoch barrier
    // waits for it.
    std::string Dir = C.WorkDir + "/campaign" + (C.Tiny ? "-tiny" : "");
    std::filesystem::create_directories(Dir);
    Job J;
    J.Name = "merged";
    std::vector<std::string> Files = generatedFiles(Z.CampaignFiles);
    for (size_t I = 0; I != Files.size(); ++I) {
      std::string Path = Dir + "/test" + std::to_string(I) + ".ll";
      std::ofstream(Path) << Files[I];
      J.Paths.push_back(Path);
    }
    J.Opts = defaultOptions();
    J.Opts.Iterations = Z.CampaignMutants;
    J.Opts.Feedback.Enabled = true;
    J.Opts.Feedback.EpochLength = 50;
    J.Jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
    Jobs.push_back(std::move(J));
  } else {
    die("unknown workload '" + C.Workload + "'");
  }
  RandomGenerator(C.Seed).shuffle(Jobs);
  return Jobs;
}

struct JobRun {
  double SetupSeconds = 0, WallSeconds = 0;
  bool Ran = false;
  FuzzStats Stats;
  StatRegistry Registry;
  std::vector<BugRecord> Bugs;
  uint64_t RecheckFailures = 0;
};

struct PassRun {
  std::vector<JobRun> Jobs;
  double SetupSeconds = 0, CampaignSeconds = 0, WallSeconds = 0;
  uint64_t Mutants = 0;
};

/// Parse (or merge) the input, construct the engine and load the module:
/// the set-up a campaign pays before its first mutant.
template <typename Runner> unsigned setUp(const Job &J, Runner &E) {
  std::unique_ptr<Module> M;
  if (!J.Paths.empty()) {
    CorpusLoadResult R = loadCorpus(J.Paths);
    if (R.FilesSkipped)
      die(J.Name + ": " + R.Warnings.front());
    M = std::move(R.M);
  } else {
    std::string Err;
    M = parseModule(J.IR, Err);
    if (!M)
      die(J.Name + ": " + Err);
  }
  if (!E.configError().empty())
    die(J.Name + ": " + E.configError());
  return E.loadModule(std::move(M));
}

/// Re-derives a miscompile's pair from its logged seed and re-executes the
/// checker's counterexample with the benchmark's own interpreter run.
template <typename Runner>
bool recheckMiscompile(const Runner &E, const Job &J, const BugRecord &B) {
  std::unique_ptr<Module> Mutant = E.makeMutant(B.MutantSeed);
  std::unique_ptr<Module> Source = cloneModule(*Mutant);
  FuzzOptions Opts = J.Opts;
  PassManager PM;
  std::string Err;
  if (!buildPipeline(Opts.Passes, PM, Err))
    return false;
  PM.setBugContext(&Opts.Bugs);
  try {
    PM.runToFixpoint(*Mutant, 4);
  } catch (const OptimizerCrash &) {
    return false;
  }
  const Function *Src = Source->getFunction(B.FunctionName);
  const Function *Tgt = Mutant->getFunction(B.FunctionName);
  if (!Src || !Tgt)
    return false;
  Opts.TV.Token = nullptr;
  TVResult R = checkRefinement(*Src, *Tgt, Opts.TV);
  return R.Verdict == TVVerdict::Incorrect &&
         confirmViolation(*Src, *Tgt, R.CounterExample, Opts.TV);
}

/// One campaign: set-up, then run(). A 1-worker campaign runs in the
/// FuzzerLoop that CampaignEngine would drive on its one worker thread,
/// which keeps per-campaign thread start-up (milliseconds of scheduling
/// jitter against 5-30 ms campaigns) out of the campaign percentiles.
template <typename Runner> JobRun runJob(const Job &J, bool SetupOnly) {
  JobRun R;
  Timer Setup;
  Runner E(J.Opts, J.Jobs);
  unsigned Testable = setUp(J, E);
  R.SetupSeconds = Setup.seconds();
  if (SetupOnly || Testable == 0)
    return R;
  Timer Wall;
  E.run();
  R.WallSeconds = Wall.seconds();
  R.Ran = true;
  R.Stats = E.stats();
  R.Registry = E.registry();
  R.Bugs = E.bugs();
  for (const BugRecord &B : R.Bugs)
    if (B.Kind == BugRecord::Miscompile && !recheckMiscompile(E, J, B)) {
      std::fprintf(stderr, "perfbench: %s seed %llu @%s: counterexample "
                   "does not re-execute as a violation\n", J.Name.c_str(),
                   (unsigned long long)B.MutantSeed, B.FunctionName.c_str());
      ++R.RecheckFailures;
    }
  return R;
}

/// FuzzerLoop has no worker count; adapts it to runJob's constructor call.
struct SingleLoop : FuzzerLoop {
  SingleLoop(const FuzzOptions &Opts, unsigned) : FuzzerLoop(Opts) {}
};

/// Runs the campaigns \p Only selects (all when empty) once each; the
/// others get an empty JobRun, so P.Jobs stays indexed like \p Jobs.
PassRun runPass(const std::vector<Job> &Jobs, bool SetupOnly,
                const std::vector<bool> &Only = {}) {
  PassRun P;
  Timer Wall;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const Job &J = Jobs[I];
    if (!Only.empty() && !Only[I]) {
      P.Jobs.emplace_back();
      continue;
    }
    P.Jobs.push_back(J.Jobs > 1 ? runJob<CampaignEngine>(J, SetupOnly)
                                : runJob<SingleLoop>(J, SetupOnly));
    const JobRun &R = P.Jobs.back();
    P.SetupSeconds += R.SetupSeconds;
    P.CampaignSeconds += R.WallSeconds;
    P.Mutants += R.Stats.MutantsGenerated;
  }
  P.WallSeconds = Wall.seconds();
  return P;
}

// --- Statistics: exact, from raw samples. ---

double percentile(std::vector<double> V, double P) {
  std::sort(V.begin(), V.end());
  size_t Rank = (size_t)std::ceil(P * (double)V.size());
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

/// Median and quartiles the way Python's statistics.quantiles(n=4) gives
/// them (exclusive method).
struct Quartiles {
  double Q1, Median, Q3;
  size_t N;
};
Quartiles quartiles(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  if (N == 1)
    return {V[0], V[0], V[0], 1};
  double Q[3];
  for (int I = 1; I <= 3; ++I) {
    long M = (long)N + 1, J = std::clamp<long>(I * M / 4, 1, (long)N - 1);
    long Delta = I * M - J * 4;
    Q[I - 1] = (V[J - 1] * (4 - Delta) + V[J] * Delta) / 4.0;
  }
  return {Q[0], Q[1], Q[2], N};
}

void printTiming(const char *Name, const char *Unit,
                 const std::vector<double> &V, const char *Over) {
  Quartiles Q = quartiles(V);
  std::printf("  %-22s median %.6g %s  [q1 %.6g, q3 %.6g]  n=%zu %s\n", Name,
              Q.Median, Unit, Q.Q1, Q.Q3, Q.N, Over);
}

uint64_t verdictsWith(const StatRegistry &R, const char *Prefix) {
  uint64_t N = 0;
  R.forEachCounterAll([&](const std::string &Name, uint64_t V, Volatility) {
    if (Name.rfind(Prefix, 0) == 0)
      N += V;
  });
  return N;
}

double peakRssMB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return (double)U.ru_maxrss / 1024.0;
}

/// The JSON result line.
class Result {
public:
  void metric(const std::string &Name, double Value, const char *Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(Value) ? Value : 0);
    if (!Body.empty())
      Body += ", ";
    Body += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + Unit +
            "\"}";
  }
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                Correct ? "true" : "false", (unsigned long long)Attempted,
                (unsigned long long)Failed, Body.c_str());
  }

private:
  std::string Body;
};

/// Harness failures of one pass: invalid mutants, watchdog timeouts and
/// counterexamples that do not re-execute.
uint64_t failures(const PassRun &P) {
  uint64_t F = 0;
  for (const JobRun &R : P.Jobs)
    F += R.Stats.InvalidMutants + R.Stats.Timeouts + R.RecheckFailures;
  return F;
}

/// Seeded defects detected by a table1 pass (a crash must name the
/// campaign's own defect; any miscompile is the injected one's).
unsigned defectsFound(const std::vector<Job> &Jobs, const PassRun &P) {
  unsigned Found = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    if (!Jobs[I].Bug)
      continue;
    for (const BugRecord &B : P.Jobs[I].Bugs)
      if (B.Kind == BugRecord::Miscompile ||
          B.IssueId == Jobs[I].Bug->IssueId) {
        ++Found;
        break;
      }
  }
  return Found;
}

/// Established verdicts that decided refinement, over all established.
double decidedRatio(const PassRun &P) {
  uint64_t Decided = 0, All = 0;
  for (const JobRun &R : P.Jobs) {
    Decided += R.Registry.counterValue("tv.verdict.correct") +
               R.Registry.counterValue("tv.verdict.incorrect");
    All += verdictsWith(R.Registry, "tv.verdict.");
  }
  return All ? (double)Decided / (double)All : 1.0;
}

// --- Traced run: replay fidelity. ---

struct Fidelity {
  std::vector<std::string> Errors;
  template <typename T>
  void eq(const char *What, T Replay, T Campaign) {
    if (Replay != Campaign)
      Errors.push_back(std::string(What) + ": replay " +
                       std::to_string(Replay) + " vs campaign " +
                       std::to_string(Campaign));
  }
};

void checkReplay(const PassRun &P, const ReplayStats &R, Fidelity &F) {
  FuzzStats S;
  std::map<std::string, uint64_t> Slugs;
  std::vector<std::pair<uint64_t, std::string>> Miscompiles, CrashIds;
  uint64_t Symbolic = 0, Concrete = 0, Conflicts = 0, Decisions = 0;
  for (const JobRun &J : P.Jobs) {
    S.MutantsGenerated += J.Stats.MutantsGenerated;
    S.MutationsApplied += J.Stats.MutationsApplied;
    S.VerifySkipped += J.Stats.VerifySkipped;
    S.Verified += J.Stats.Verified;
    S.TVCacheHits += J.Stats.TVCacheHits;
    S.TVCacheMisses += J.Stats.TVCacheMisses;
    S.TVCacheEvictions += J.Stats.TVCacheEvictions;
    S.Crashes += J.Stats.Crashes;
    S.InvalidMutants += J.Stats.InvalidMutants;
    J.Registry.forEachCounterAll(
        [&](const std::string &Name, uint64_t V, Volatility) {
          if (Name.rfind("tv.verdict.", 0) == 0)
            Slugs[Name.substr(11)] += V;
        });
    Symbolic += J.Registry.counterValue("tv.query.symbolic");
    Concrete += J.Registry.counterValue("tv.query.concrete");
    Conflicts += J.Registry.counterValue("tv.solver.conflicts");
    Decisions += J.Registry.counterValue("tv.solver.decisions");
    for (const BugRecord &B : J.Bugs)
      if (B.Kind == BugRecord::Miscompile)
        Miscompiles.push_back({B.MutantSeed, B.FunctionName});
      else if (!B.IssueId.empty())
        CrashIds.push_back({B.MutantSeed, B.IssueId});
  }
  F.eq("mutants", R.Mutants, S.MutantsGenerated);
  F.eq("mutations", R.Mutations, S.MutationsApplied);
  F.eq("invalid mutants", R.InvalidMutants, S.InvalidMutants);
  F.eq("crashes", R.Crashes, S.Crashes);
  F.eq("skipped functions", R.Skipped, S.VerifySkipped);
  F.eq("established verdicts", R.CacheHits + R.CacheMisses, S.Verified);
  F.eq("cache hits", R.CacheHits, S.TVCacheHits);
  F.eq("cache misses", R.CacheMisses, S.TVCacheMisses);
  F.eq("cache evictions", R.CacheEvictions, S.TVCacheEvictions);
  F.eq("symbolic queries", R.SymbolicQueries, Symbolic);
  F.eq("concrete checks", R.ConcreteChecks, Concrete);
  F.eq("solver conflicts", R.Conflicts, Conflicts);
  F.eq("solver decisions", R.Decisions, Decisions);
  F.eq("solve/verdict disagreements", R.SolveVerdictMismatches, uint64_t(0));
  std::set<std::string> Names;
  for (const auto &[K, V] : Slugs)
    Names.insert(K);
  for (const auto &[K, V] : R.VerdictSlugs)
    Names.insert(K);
  for (const std::string &K : Names) {
    auto Get = [&](const std::map<std::string, uint64_t> &M) {
      auto It = M.find(K);
      return It == M.end() ? uint64_t(0) : It->second;
    };
    F.eq(("verdict " + K).c_str(), Get(R.VerdictSlugs), Get(Slugs));
  }
  auto Sorted = [](std::vector<std::pair<uint64_t, std::string>> V) {
    std::sort(V.begin(), V.end());
    return V;
  };
  if (Sorted(R.Miscompiles) != Sorted(Miscompiles))
    F.Errors.push_back("miscompile (seed, function) lists differ");
  if (Sorted(R.CrashIds) != Sorted(CrashIds))
    F.Errors.push_back("crash (seed, issue) lists differ");
}

void checkRepeat(const ReplayStats &A, const ReplayStats &B, Fidelity &F) {
  F.eq("repeat smt.solve.conflicts", A.Conflicts, B.Conflicts);
  F.eq("repeat smt.solve.propagations", A.Propagations, B.Propagations);
  F.eq("repeat tv.check.queries", A.Queries, B.Queries);
  F.eq("repeat opt.pipeline.changed_fns", A.FunctionVisits - A.Skipped,
       B.FunctionVisits - B.Skipped);
  F.eq("repeat core.mutate.mutations", A.Mutations, B.Mutations);
  if (A.VerdictSlugs != B.VerdictSlugs)
    F.Errors.push_back("repeat verdict counts differ");
}

double selfOf(const ReplayStats &R, const char *Layer) {
  auto It = R.SelfSeconds.find(Layer);
  return It == R.SelfSeconds.end() ? 0 : It->second;
}

const char *const Layers[] = {"core.mutate",  "ir.clone",  "analysis.verify_ir",
                              "opt.pipeline", "tv.cache",  "tv.check",
                              "tv.encode",    "smt.solve", "ir.interp"};

void layerMetricsFromReplay(const ReplayStats &R, Result &Out) {
  Out.metric("core.mutate.self_s", selfOf(R, "core.mutate"), "s");
  Out.metric("core.mutate.mutations", (double)R.Mutations, "count");
  Out.metric("ir.clone.self_s", selfOf(R, "ir.clone"), "s");
  Out.metric("analysis.verify_ir.self_s", selfOf(R, "analysis.verify_ir"), "s");
  Out.metric("opt.pipeline.self_s", selfOf(R, "opt.pipeline"), "s");
  Out.metric("opt.pipeline.changed_fns", (double)(R.FunctionVisits - R.Skipped),
             "count");
  Out.metric("opt.pipeline.skip_ratio",
             R.FunctionVisits ? (double)R.Skipped / (double)R.FunctionVisits : 0,
             "ratio");
  uint64_t Lookups = R.CacheHits + R.CacheMisses;
  Out.metric("tv.cache.key_s", selfOf(R, "tv.cache"), "s");
  Out.metric("tv.cache.lookups", (double)Lookups, "count");
  Out.metric("tv.cache.hit_ratio",
             Lookups ? (double)R.CacheHits / (double)Lookups : 0, "ratio");
  Out.metric("tv.cache.evictions", (double)R.CacheEvictions, "count");
  Out.metric("tv.check.queries", (double)R.Queries, "count");
  Out.metric("tv.check.p50_us",
             R.CheckMicros.empty() ? 0 : percentile(R.CheckMicros, 0.50), "us");
  Out.metric("tv.check.p99_us",
             R.CheckMicros.empty() ? 0 : percentile(R.CheckMicros, 0.99), "us");
  Out.metric("tv.check.self_s", selfOf(R, "tv.check"), "s");
  Out.metric("tv.encode.self_s", selfOf(R, "tv.encode"), "s");
  Out.metric("tv.encode.sat_vars", (double)R.SatVars, "count");
  Out.metric("smt.solve.self_s", selfOf(R, "smt.solve"), "s");
  Out.metric("smt.solve.conflicts", (double)R.Conflicts, "count");
  Out.metric("smt.solve.propagations", (double)R.Propagations, "count");
  Out.metric("smt.solve.learned_lits_mean",
             R.LearnedClauses
                 ? (double)R.LearnedLiterals / (double)R.LearnedClauses
                 : 0,
             "count");
  Out.metric("smt.solve.budget_stops", (double)R.BudgetStops, "count");
  Out.metric("ir.interp.self_s", selfOf(R, "ir.interp"), "s");
  Out.metric("ir.interp.queries", (double)R.InterpQueries, "count");
}

/// The campaign workload is not replayed (its feedback schedule is engine
/// state); its layers come from the engine's FuzzStats and merged
/// registry. Layers the engine does not separate (clone, verifyModule,
/// cache-key building, formula size, propagations) read 0 here; tv.check
/// percentiles are the registry's log2 bucket bounds on this workload.
void layerMetricsFromEngine(const JobRun &J, Result &Out) {
  const FuzzStats &S = J.Stats;
  const StatRegistry &Reg = J.Registry;
  auto HistSum = [&](const char *Name) {
    double Sum = 0;
    Reg.forEachHistogram([&](const std::string &N, const Histogram &H) {
      if (N == Name)
        Sum = H.sum();
    });
    return Sum;
  };
  Histogram Checks;
  Reg.forEachHistogram([&](const std::string &N, const Histogram &H) {
    if (N == "tv.query.symbolic.seconds" || N == "tv.query.concrete.seconds")
      Checks.merge(H);
  });
  double Encode = HistSum("tv.encode.seconds");
  double Solve = HistSum("tv.solve.seconds");
  double Interp = HistSum("tv.query.concrete.seconds");
  uint64_t Visits = S.Verified + S.VerifySkipped;
  uint64_t Lookups = S.TVCacheHits + S.TVCacheMisses;
  Out.metric("core.mutate.self_s", S.MutateSeconds, "s");
  Out.metric("core.mutate.mutations", (double)S.MutationsApplied, "count");
  Out.metric("ir.clone.self_s", 0, "s");
  Out.metric("analysis.verify_ir.self_s", 0, "s");
  Out.metric("opt.pipeline.self_s", S.OptimizeSeconds, "s");
  Out.metric("opt.pipeline.changed_fns", (double)S.Verified, "count");
  Out.metric("opt.pipeline.skip_ratio",
             Visits ? (double)S.VerifySkipped / (double)Visits : 0, "ratio");
  Out.metric("tv.cache.key_s", 0, "s");
  Out.metric("tv.cache.lookups", (double)Lookups, "count");
  Out.metric("tv.cache.hit_ratio",
             Lookups ? (double)S.TVCacheHits / (double)Lookups : 0, "ratio");
  Out.metric("tv.cache.evictions", (double)S.TVCacheEvictions, "count");
  Out.metric("tv.check.queries", (double)S.TVCacheMisses, "count");
  Out.metric("tv.check.p50_us", Checks.count() ? Checks.percentile(0.50) * 1e6 : 0,
             "us");
  Out.metric("tv.check.p99_us", Checks.count() ? Checks.percentile(0.99) * 1e6 : 0,
             "us");
  Out.metric("tv.check.self_s",
             std::max(0.0, S.VerifySeconds - Encode - Solve - Interp), "s");
  Out.metric("tv.encode.self_s", Encode, "s");
  Out.metric("tv.encode.sat_vars", 0, "count");
  Out.metric("smt.solve.self_s", Solve, "s");
  Out.metric("smt.solve.conflicts",
             (double)Reg.counterValue("tv.solver.conflicts"), "count");
  Out.metric("smt.solve.propagations", 0, "count");
  Out.metric("smt.solve.learned_lits_mean", 0, "count");
  Out.metric("smt.solve.budget_stops",
             (double)Reg.counterValue("tv.solver.budget-exhausted"), "count");
  Out.metric("ir.interp.self_s", Interp, "s");
  Out.metric("ir.interp.queries",
             (double)Reg.counterValue("tv.query.concrete"), "count");
}

void engineMetrics(const PassRun &P, unsigned Jobs, Result &Out) {
  double Worker = 0, Wall = 0, Overhead = 0;
  for (const JobRun &J : P.Jobs) {
    Worker += J.Stats.WorkerSeconds;
    Wall += J.WallSeconds;
    Overhead += J.Stats.TotalSeconds - J.Stats.WorkerSeconds / Jobs;
  }
  Out.metric("core.engine.efficiency", Wall ? Worker / (Jobs * Wall) : 0,
             "ratio");
  Out.metric("core.engine.overhead_s", std::max(0.0, Overhead), "s");
}

Config parseArgs(int Argc, char **Argv) {
  Config C;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      die("missing value for " + A);
    std::string V = Argv[++I];
    if (A == "--workload")
      C.Workload = V;
    else if (A == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::strtod(V.c_str(), nullptr);
    else if (A == "--trace")
      C.Trace = V == "1";
    else if (A == "--work-dir")
      C.WorkDir = V;
    else if (A == "--size")
      C.Tiny = V == "tiny";
    else
      die("unknown option " + A);
  }
  if (C.Workload.empty())
    die("--workload is required");
  return C;
}

} // namespace

int main(int Argc, char **Argv) {
  // Keep freed heap memory mapped. With glibc's default trim threshold,
  // whether the top of the heap is returned to the kernel after each
  // concrete trial (and faulted back in by the next) depends on the heap
  // layout earlier campaigns left behind, which swings a campaign's
  // concrete-check cost by 10x from one process history to the next.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Config C = parseArgs(Argc, Argv);
  const Sizes &Z = C.Tiny ? Tiny : Full;
  std::filesystem::create_directories(C.WorkDir);
  std::vector<Job> Jobs = buildJobs(C, Z);
  const bool Replayable = C.Workload != "campaign";
  const unsigned Workers = Jobs.front().Jobs;

  // Untraced passes (one full pass when tracing). A campaign that takes
  // more than a tenth of the first pass is expensive; the others are cheap.
  // After each full pass, cheap-only passes run until they have taken half
  // as long as the expensive campaigns did, so that a cheap campaign's
  // wall rests on many samples spread over the run, not on the two or
  // three full passes that fit. Passes run while the next fits in the
  // measuring time; set-up-only passes then bring the set-up samples up to
  // their floors.
  std::vector<PassRun> Passes;
  std::vector<double> Setups;
  Timer Measure;
  Passes.push_back(runPass(Jobs, false));
  Setups.push_back(Passes.back().SetupSeconds);
  std::vector<bool> Cheap(Jobs.size());
  double ExpensiveSeconds = 0, CheapPassSeconds = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    const JobRun &R = Passes.back().Jobs[I];
    Cheap[I] = R.Ran && R.WallSeconds <= Passes.back().CampaignSeconds / 10;
    if (Cheap[I])
      CheapPassSeconds += R.SetupSeconds + R.WallSeconds;
    else
      ExpensiveSeconds += R.WallSeconds;
  }
  const bool Split = ExpensiveSeconds > 0 &&
                     std::find(Cheap.begin(), Cheap.end(), true) != Cheap.end();
  double FullPassSeconds = Passes.back().WallSeconds, CheapSince = 0;
  size_t FullPasses = 1;
  while (!C.Trace) {
    bool Full = !Split || CheapSince >= ExpensiveSeconds / 2;
    if (Full && Measure.seconds() + FullPassSeconds > C.Seconds)
      Full = false;
    if (!Full && (!Split || Measure.seconds() + CheapPassSeconds > C.Seconds))
      break;
    Passes.push_back(runPass(Jobs, false, Full ? std::vector<bool>() : Cheap));
    const PassRun &P = Passes.back();
    if (Full) {
      Setups.push_back(P.SetupSeconds);
      FullPassSeconds = P.WallSeconds;
      CheapSince = 0;
      ++FullPasses;
    } else {
      CheapPassSeconds = P.WallSeconds;
      CheapSince += P.WallSeconds;
    }
  }
  double SetupSeconds = 0;
  for (double S : Setups)
    SetupSeconds += S;
  while (Setups.size() < MinSetupSamples || SetupSeconds < MinSetupSeconds) {
    Setups.push_back(runPass(Jobs, true).SetupSeconds);
    SetupSeconds += Setups.back();
  }

  // A campaign's wall is the fastest of its samples when it runs on one
  // worker: it does the same work every time, so a slower sample only
  // measured what else the host was running (the same 50-ms loop took
  // 48-88 ms from one second to the next, with no steal time reported). A
  // multi-worker campaign's wall is its median: how long its workers wait
  // at the epoch barriers varies from sample to sample by itself. The rate
  // is one pass's mutants over the sum of the campaigns' walls.
  uint64_t Attempted = 0, Failed = 0;
  for (const PassRun &P : Passes) {
    Attempted += P.Mutants;
    Failed += failures(P);
  }
  std::vector<double> PerJob;
  std::vector<size_t> Samples;
  double PassWall = 0;
  uint64_t PassMutants = 0;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    std::vector<double> W;
    for (const PassRun &P : Passes)
      if (P.Jobs[I].Ran)
        W.push_back(P.Jobs[I].WallSeconds);
    if (W.empty())
      continue;
    PerJob.push_back(Jobs[I].Jobs > 1 ? quartiles(W).Median
                                      : *std::min_element(W.begin(), W.end()));
    Samples.push_back(W.size());
    PassWall += PerJob.back();
    PassMutants += Passes.front().Jobs[I].Stats.MutantsGenerated;
  }
  if (PerJob.empty() || Attempted == 0)
    die("no campaign ran");
  const double Rate = (double)PassMutants / PassWall;
  std::sort(Samples.begin(), Samples.end());
  unsigned Defects = defectsFound(Jobs, Passes.front());
  std::printf("perfbench %s seed=%llu%s: %zu full + %zu cheap pass(es), %zu "
              "campaign(s) of %llu mutants each, %u worker(s)\n",
              C.Workload.c_str(), (unsigned long long)C.Seed,
              C.Tiny ? " (tiny)" : "", FullPasses, Passes.size() - FullPasses,
              Jobs.size(), (unsigned long long)Jobs.front().Opts.Iterations,
              Workers);
  std::printf("  %-22s %.6g 1/s  (%llu mutants over %.6g s: the campaigns' "
              "walls, %zu-%zu samples each)\n",
              "mutants_per_s", Rate, (unsigned long long)PassMutants, PassWall,
              Samples.front(), Samples.back());
  printTiming("setup_s", "s", Setups, "(set-ups of the whole workload)");
  printTiming("campaign_s", "s", PerJob,
              Workers > 1 ? "(campaigns; each the median of its samples)"
                          : "(campaigns; each the fastest of its samples)");
  std::printf("  campaign_p50_s %.6g  campaign_p90_s %.6g  (exact, n=%zu)\n",
              percentile(PerJob, 0.5), percentile(PerJob, 0.9), PerJob.size());
  std::printf("  decided_ratio %.6f  defects_found %u  failed %llu of %llu "
              "(failed_ratio %.6f)\n",
              decidedRatio(Passes.front()), Defects,
              (unsigned long long)Failed, (unsigned long long)Attempted,
              (double)Failed / (double)Attempted);

  Result Out;
  bool Correct = Failed == 0;
  if (!C.Trace) {
    Out.metric("mutants_per_s", Rate, "1/s");
    Out.metric("setup_s", quartiles(Setups).Median, "s");
    Out.metric("campaign_p50_s", percentile(PerJob, 0.5), "s");
    Out.metric("campaign_p90_s", percentile(PerJob, 0.9), "s");
    Out.metric("decided_ratio", decidedRatio(Passes.front()), "ratio");
    Out.metric("peak_rss_mb", peakRssMB(), "MB");
    Out.print(Correct, Attempted, Failed);
    return Correct ? 0 : 1;
  }

  const PassRun &Base = Passes.front();
  Fidelity F;
  double TracedWall, Unattributed;
  if (Replayable) {
    ReplayStats R[2];
    for (int I = 0; I != 2; ++I) {
      Tracer T;
      std::string Err;
      if (!replayJobs(Jobs, T, R[I], Err))
        die(Err);
      if (I == 0) {
        std::string Path = C.WorkDir + "/spans-" + C.Workload + ".csv";
        if (!T.write(Path))
          die("cannot write " + Path);
        std::printf("  spans: %zu written to %s\n", T.spans().size(),
                    Path.c_str());
      }
    }
    checkReplay(Base, R[0], F);
    checkRepeat(R[0], R[1], F);
    layerMetricsFromReplay(R[0], Out);
    TracedWall = R[0].WallSeconds;
    Unattributed = TracedWall;
    for (const char *L : Layers)
      Unattributed -= selfOf(R[0], L);
    std::printf("  traced replay: wall %.6g s (untraced set-up + campaigns "
                "%.6g s)\n",
                TracedWall, Base.SetupSeconds + Base.CampaignSeconds);
    for (const char *L : Layers)
      std::printf("    %-20s self %.6g s\n", L, selfOf(R[0], L));
    std::printf("    %-20s      %.6g s\n", "(unattributed)", Unattributed);
  } else {
    // A second identical campaign: its deterministic counters must match
    // the first, and its FuzzStats give the layer split.
    PassRun Again = runPass(Jobs, false);
    Failed += failures(Again);
    Attempted += Again.Mutants;
    const JobRun &A = Base.Jobs.front(), &B = Again.Jobs.front();
    F.eq("repeat mutations", B.Stats.MutationsApplied, A.Stats.MutationsApplied);
    F.eq("repeat skipped functions", B.Stats.VerifySkipped,
         A.Stats.VerifySkipped);
    F.eq("repeat established verdicts", B.Stats.Verified, A.Stats.Verified);
    for (const char *Slug : {"tv.verdict.correct", "tv.verdict.incorrect"})
      F.eq(Slug, B.Registry.counterValue(Slug), A.Registry.counterValue(Slug));
    layerMetricsFromEngine(B, Out);
    TracedWall = Again.SetupSeconds + Again.CampaignSeconds;
    Unattributed = B.Stats.OverheadSeconds;
  }
  engineMetrics(Base, Workers, Out);
  Out.metric("trace.wall_s", TracedWall, "s");
  Out.metric("trace.overhead_s",
             TracedWall - (Base.SetupSeconds + Base.CampaignSeconds), "s");
  Out.metric("trace.unattributed_s", Unattributed, "s");
  Out.metric("defects_found", Defects, "count");
  Out.metric("failed_ratio", (double)Failed / (double)Attempted, "ratio");
  for (const std::string &E : F.Errors)
    std::fprintf(stderr, "perfbench: fidelity: %s\n", E.c_str());
  Correct = Correct && F.Errors.empty();
  Out.print(Correct, Attempted, Failed);
  return Correct ? 0 : 1;
}
