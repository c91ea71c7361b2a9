//===- bench/bench_campaign.cpp - The Table I fuzzing campaign -------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table I: for each of the 33 seeded defects, runs a fuzzing
/// campaign (mutate -> optimize -> verify) over that defect's near-miss
/// seed corpus until the defect is discovered or an iteration cap is hit.
/// The table reports, per bug: the LLVM issue id, the component the seed
/// lives in, miscompilation vs crash, and the number of mutants the
/// campaign needed — demonstrating that every Table I row is reachable
/// through mutation (not through the pristine corpus, which stays green).
///
/// Environment knobs: AMR_CAMPAIGN_MAXITER (default 4000),
/// AMR_CAMPAIGN_JOBS (worker threads per campaign, default 1; the found-at
/// iteration is identical for every worker count) and AMR_CAMPAIGN_NOCACHE
/// (disable change-tracking skips and the TV verdict cache — found-at
/// columns must not move, only the verification-call counts).
/// AMR_CAMPAIGN_FANOUT=<n> runs every campaign batch under the -fanout
/// process supervisor (shard leases, heartbeat deadlines, backoff
/// restarts), and AMR_CAMPAIGN_INJECT_FAULT arms the deterministic fault
/// plane (same grammar as -inject-fault) — together they are CI's chaos
/// matrix: found-at columns must survive injected child kills, and
/// degraded accounting must be exact when a lease is permanently lost.
/// `-stats-json=<file>` (or AMR_CAMPAIGN_STATS_JSON) writes the merged
/// telemetry of every campaign batch as one schema-versioned run report.
///
/// `-feedback-compare` runs the feedback-vs-blind experiment instead of
/// Table I: every defect campaign runs twice under one fixed mutant
/// budget (AMR_CAMPAIGN_COMPARE_BUDGET, default 256; epoch length
/// AMR_CAMPAIGN_COMPARE_EPOCH, default 128) — once blind, once with
/// -feedback scheduling — and the tool reports seeded defects found and
/// bugs-per-10k-mutants per mode. Exit status asserts feedback >= blind.
/// Both runs are seed-deterministic, so the outcome is stable across
/// hosts and worker counts.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/RunReport.h"
#include "corpus/Corpus.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "support/FaultPlane.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

using namespace alive;

namespace {

struct CampaignResult {
  bool Found = false;
  uint64_t Iterations = 0;
  uint64_t SeedOfMutant = 0;
};

/// Every campaign batch summed into one run report: stats, registry, the
/// attributed bug records, and the degradation ladder (any batch that
/// permanently lost a shard lease marks the whole table run degraded, with
/// its exact lost-iteration accounting appended).
RunReport Report;

/// AMR_CAMPAIGN_FANOUT: supervised child processes per campaign batch
/// (0 = in-process workers, the default).
unsigned GFanout = 0;

/// The engine currently running, for the SIGINT/SIGTERM path.
std::atomic<CampaignEngine *> GEngine{nullptr};
volatile std::sig_atomic_t GSignalSeen = 0;
/// First signal: stop the current campaign AND skip the remaining table
/// rows, so the stats report still flushes.
std::atomic<bool> GStopAll{false};

void onTerminateSignal(int) {
  if (GSignalSeen) {
    _exit(130);
  }
  GSignalSeen = 1;
  GStopAll.store(true, std::memory_order_relaxed);
  if (CampaignEngine *E = GEngine.load(std::memory_order_relaxed))
    E->requestStop();
}

/// Scoped signal-target binding, detached on every exit path before the
/// engine is destroyed.
struct EngineBinding {
  explicit EngineBinding(CampaignEngine &E) {
    GEngine.store(&E, std::memory_order_relaxed);
  }
  ~EngineBinding() { GEngine.store(nullptr, std::memory_order_relaxed); }
};

/// The options every Table I row shares. A row adds its component's
/// pipeline and its one defect.
FuzzOptions sharedOptions(bool NoCache) {
  FuzzOptions Opts;
  Opts.TV.ConcreteTrials = 16;
  Opts.TV.SolverConflictBudget = 30000;
  Opts.Survival.Fanout = GFanout;
  if (NoCache) {
    Opts.SkipUnchanged = false;
    Opts.TVCacheSize = 0;
  }
  return Opts;
}

CampaignResult runCampaign(const BugInfo &Bug, const char *SeedIR,
                           uint64_t MaxIter, unsigned Jobs, bool NoCache) {
  FuzzOptions Opts = sharedOptions(NoCache);
  Opts.Passes = componentPipeline(Bug.Component);
  Opts.Bugs.enable(Bug.Id);

  CampaignResult R;
  // Sharded batches with geometrically ramping size: small batches keep
  // quickly-found bugs cheap, large ones amortize the per-batch setup.
  // The batch boundaries are fixed (independent of the worker count), so
  // the first qualifying bug (lowest mutant seed) — and therefore the
  // found-at column — is identical for every worker count.
  uint64_t Batch = 32;
  for (uint64_t Start = 0; Start < MaxIter;
       Start += Batch, Batch = std::min<uint64_t>(Batch * 2, 256)) {
    if (GStopAll.load(std::memory_order_relaxed))
      return R;
    Opts.BaseSeed = 1 + Start;
    Opts.Iterations = std::min<uint64_t>(Batch, MaxIter - Start);

    CampaignEngine Engine(Opts, Jobs);
    EngineBinding Binding(Engine);
    std::string Err;
    auto M = parseModule(SeedIR, Err);
    if (!M || Engine.loadModule(std::move(M)) == 0)
      return R;
    accumulate(Report.Stats, Engine.run());
    Report.Registry.merge(Engine.registry());
    Report.Degraded |= Engine.degraded();
    Report.LostShards.insert(Report.LostShards.end(),
                             Engine.lostShards().begin(),
                             Engine.lostShards().end());

    // Bugs arrive in ascending seed order. Crash records identify
    // themselves; a miscompilation found while only this bug is enabled
    // is attributed to it.
    for (const BugRecord &B : Engine.bugs()) {
      if (B.Kind == BugRecord::Crash && B.IssueId != Bug.IssueId)
        continue;
      R.Found = true;
      R.Iterations = B.MutantSeed; // seeds start at 1: seed == iteration
      R.SeedOfMutant = B.MutantSeed;
      Report.Bugs.push_back(B);
      return R;
    }
  }
  R.Iterations = MaxIter;
  return R;
}

unsigned CompareEpoch = 128;

/// One full-budget campaign (no batching, no early stop) for the
/// feedback-vs-blind experiment. \returns true when the defect was
/// discovered within the budget.
bool runCompareCampaign(const BugInfo &Bug, const char *SeedIR,
                        uint64_t Budget, unsigned Jobs, bool Feedback) {
  FuzzOptions Opts;
  Opts.Passes = componentPipeline(Bug.Component);
  Opts.TV.ConcreteTrials = 16;
  Opts.TV.SolverConflictBudget = 30000;
  Opts.Bugs.enable(Bug.Id);
  Opts.BaseSeed = 1;
  Opts.Iterations = Budget;
  Opts.Feedback.Enabled = Feedback;
  Opts.Feedback.EpochLength = CompareEpoch;

  CampaignEngine Engine(Opts, Jobs);
  EngineBinding Binding(Engine);
  std::string Err;
  auto M = parseModule(SeedIR, Err);
  if (!M || Engine.loadModule(std::move(M)) == 0)
    return false;
  Engine.run();
  for (const BugRecord &B : Engine.bugs()) {
    if (B.Kind == BugRecord::Crash && B.IssueId != Bug.IssueId)
      continue;
    return true;
  }
  return false;
}

/// The `-feedback-compare` experiment: seeded defects found per fixed
/// mutant budget, blind vs feedback-directed. \returns the process exit
/// status (0 iff feedback found at least as many defects as blind).
int runFeedbackCompare(uint64_t Budget, unsigned Jobs) {
  std::printf("=== Feedback vs blind: seeded defects per fixed budget ===\n");
  std::printf("(each defect: two campaigns of %llu mutants over its "
              "near-miss seed, %u worker(s))\n\n",
              (unsigned long long)Budget, Jobs);
  std::printf("%-8s %-26s %-9s %-9s\n", "Issue", "Component", "blind",
              "feedback");

  unsigned FoundBlind = 0, FoundFeedback = 0, Campaigns = 0;
  for (const BugInfo &Bug : bugTable()) {
    if (GStopAll.load(std::memory_order_relaxed))
      break;
    const char *SeedIR = nullptr;
    for (const NearMissSeed &S : nearMissSeeds())
      if (std::strcmp(S.IssueId, Bug.IssueId) == 0)
        SeedIR = S.Text;
    if (!SeedIR)
      continue;
    ++Campaigns;
    bool Blind = runCompareCampaign(Bug, SeedIR, Budget, Jobs, false);
    bool Feedback = runCompareCampaign(Bug, SeedIR, Budget, Jobs, true);
    FoundBlind += Blind;
    FoundFeedback += Feedback;
    std::printf("%-8s %-26s %-9s %-9s\n", Bug.IssueId, Bug.Component,
                Blind ? "found" : "-", Feedback ? "found" : "-");
  }

  double Mutants = (double)Campaigns * (double)Budget;
  std::printf("\nblind:    %u / %u defects, %.2f bugs per 10k mutants\n",
              FoundBlind, Campaigns, FoundBlind * 10000.0 / Mutants);
  std::printf("feedback: %u / %u defects, %.2f bugs per 10k mutants\n",
              FoundFeedback, Campaigns, FoundFeedback * 10000.0 / Mutants);
  bool Pass = FoundFeedback >= FoundBlind;
  std::printf("feedback >= blind: %s\n", Pass ? "PASS" : "FAIL");
  return Pass ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string StatsPath;
  if (const char *P = std::getenv("AMR_CAMPAIGN_STATS_JSON"))
    StatsPath = P;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "-stats-json=", 12) == 0)
      StatsPath = Argv[I] + 12;

  {
    struct sigaction SA;
    std::memset(&SA, 0, sizeof(SA));
    SA.sa_handler = onTerminateSignal;
    sigemptyset(&SA.sa_mask);
    sigaction(SIGINT, &SA, nullptr);
    sigaction(SIGTERM, &SA, nullptr);
  }

  Timer Wall;
  const char *Env = std::getenv("AMR_CAMPAIGN_MAXITER");
  uint64_t MaxIter = Env ? std::strtoull(Env, nullptr, 10) : 4000;
  const char *JobsEnv = std::getenv("AMR_CAMPAIGN_JOBS");
  unsigned Jobs = JobsEnv ? (unsigned)std::strtoul(JobsEnv, nullptr, 10) : 1;
  if (Jobs == 0)
    Jobs = 1;
  bool NoCache = std::getenv("AMR_CAMPAIGN_NOCACHE") != nullptr;
  if (const char *F = std::getenv("AMR_CAMPAIGN_FANOUT"))
    GFanout = (unsigned)std::strtoul(F, nullptr, 10);
  if (const char *F = std::getenv("AMR_CAMPAIGN_INJECT_FAULT")) {
    std::string FaultErr;
    if (!FaultPlane::instance().arm(F, FaultErr)) {
      std::fprintf(stderr, "error: %s\n", FaultErr.c_str());
      return 1;
    }
  }

  bool Compare = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "-feedback-compare") == 0)
      Compare = true;
  if (Compare) {
    const char *BudgetEnv = std::getenv("AMR_CAMPAIGN_COMPARE_BUDGET");
    uint64_t Budget =
        BudgetEnv ? std::strtoull(BudgetEnv, nullptr, 10) : 256;
    if (Budget == 0)
      Budget = 256;
    if (const char *E = std::getenv("AMR_CAMPAIGN_COMPARE_EPOCH"))
      if (unsigned V = (unsigned)std::strtoul(E, nullptr, 10))
        CompareEpoch = V;
    return runFeedbackCompare(Budget, Jobs);
  }

  std::printf("=== Fuzzing campaign: regenerating Table I ===\n");
  // Under -fanout the children are the workers (the engine ignores Jobs).
  const unsigned Workers = GFanout ? GFanout : Jobs;
  char FanoutNote[48] = "";
  if (GFanout)
    std::snprintf(FanoutNote, sizeof(FanoutNote), ", fanout=%u", GFanout);
  std::printf("(each row: one seeded defect, campaign over its near-miss "
              "seed, cap %llu mutants, %u worker(s)%s%s)\n\n",
              (unsigned long long)MaxIter, Workers,
              NoCache ? ", memoization off" : "", FanoutNote);
  std::printf("%-8s %-26s %-7s %-15s %10s  %s\n", "Issue", "Component",
              "Status", "Type", "found@", "Description");
  std::printf("%.120s\n",
              "---------------------------------------------------------"
              "---------------------------------------------------------");

  unsigned Found = 0, FoundMiscompile = 0, FoundCrash = 0;
  for (const BugInfo &Bug : bugTable()) {
    if (GStopAll.load(std::memory_order_relaxed)) {
      std::printf("(interrupted: remaining rows skipped)\n");
      break;
    }
    const char *SeedIR = nullptr;
    for (const NearMissSeed &S : nearMissSeeds())
      if (std::strcmp(S.IssueId, Bug.IssueId) == 0)
        SeedIR = S.Text;
    CampaignResult R;
    if (SeedIR)
      R = runCampaign(Bug, SeedIR, MaxIter, Jobs, NoCache);

    char FoundBuf[32];
    if (R.Found)
      std::snprintf(FoundBuf, sizeof FoundBuf, "%llu",
                    (unsigned long long)R.Iterations);
    else
      std::snprintf(FoundBuf, sizeof FoundBuf, "> %llu",
                    (unsigned long long)MaxIter);
    std::printf("%-8s %-26s %-7s %-15s %10s  %s\n", Bug.IssueId,
                Bug.Component, Bug.Status,
                Bug.IsCrash ? "crash" : "miscompilation", FoundBuf,
                Bug.Description);
    if (R.Found) {
      ++Found;
      (Bug.IsCrash ? FoundCrash : FoundMiscompile)++;
    }
  }

  const FuzzStats &Agg = Report.Stats;
  uint64_t Lookups = Agg.TVCacheHits + Agg.TVCacheMisses;
  std::printf("\nfound %u / 33 seeded defects "
              "(%u miscompilations [paper: 19], %u crashes [paper: 14])\n",
              Found, FoundMiscompile, FoundCrash);
  std::printf("verification effort: %llu verified, %llu skipped "
              "(unchanged), cache %llu/%llu hit, %llu evicted\n",
              (unsigned long long)Agg.Verified,
              (unsigned long long)Agg.VerifySkipped,
              (unsigned long long)Agg.TVCacheHits,
              (unsigned long long)Lookups,
              (unsigned long long)Agg.TVCacheEvictions);
  if (GFanout)
    std::printf("supervision: %llu restart(s), %llu wedge kill(s), %llu "
                "fork failure(s)%s\n",
                (unsigned long long)Report.Registry.counterValue(
                    "survive.supervisor.restarts"),
                (unsigned long long)Report.Registry.counterValue(
                    "survive.supervisor.wedges"),
                (unsigned long long)Report.Registry.counterValue(
                    "survive.supervisor.fork_failures"),
                Report.Degraded ? " [DEGRADED]" : "");
  if (Report.Degraded) {
    uint64_t LostIters = 0;
    for (const auto &L : Report.LostShards)
      LostIters += L.second;
    std::printf("degraded: %zu shard lease(s) permanently lost, %llu "
                "iteration(s) never ran\n",
                Report.LostShards.size(), (unsigned long long)LostIters);
  }
  if (FaultPlane::instance().armed())
    for (const FaultPointCounters &FC : FaultPlane::instance().counters())
      std::printf("fault: %s (%s): %llu trigger(s) in %llu call(s)\n",
                  FC.Point.c_str(), FC.Spec.c_str(),
                  (unsigned long long)FC.Triggers,
                  (unsigned long long)FC.Calls);

  if (!StatsPath.empty()) {
    // The record of the options the rows share: each row runs its own
    // defect through its own component's pipeline.
    Report.Tool = "bench_campaign";
    Report.Config = campaignConfig(sharedOptions(NoCache));
    for (ConfigField &F : Report.Config)
      if (F.first == "passes")
        F.second = "\"per-component\"";
      else if (F.first == "injected_bugs")
        F.second = "\"per-defect\"";
    Report.Config.emplace_back("iterations", std::to_string(MaxIter));
    Report.Config.emplace_back("base_seed", "1");
    Report.Jobs = Workers;
    Report.FanOut = GFanout;
    Report.Stats.TotalSeconds = Wall.seconds();
    std::string ReportErr;
    if (writeRunReportFile(StatsPath, Report, ReportErr))
      std::printf("stats report written to %s\n", StatsPath.c_str());
    else
      std::fprintf(stderr, "warning: %s\n", ReportErr.c_str());
  }
  return Found == 33 ? 0 : 1;
}
