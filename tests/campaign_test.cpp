//===- tests/campaign_test.cpp - Parallel campaign engine tests -------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Regression tests for the campaign-scale fixes — release-mode pipeline
/// validation, per-campaign bug contexts, saveMutant durability, the
/// unbounded-config guard, side-effect-free seed replay — plus the parallel
/// engine's core guarantee: a -j N campaign yields a bug set byte-identical
/// to the sequential run, with identical summed statistics.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/RunReport.h"
#include "corpus/Corpus.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "parser/Printer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <sstream>
#include <thread>

using namespace alive;

namespace {

std::unique_ptr<Module> parseOk(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

/// A small corpus with near-miss functions for an InstCombine crash
/// (PR52884) and an InstCombine miscompilation (PR50693).
const char *TwoBugCorpus = R"(
define i8 @smax_offset(i8 %x) {
  %1 = add nuw i8 50, %x
  %m = call i8 @llvm.smax.i8(i8 %1, i8 -124)
  ret i8 %m
}

define i8 @opposite_shifts(i8 %x) {
  %a = shl i8 -2, %x
  %b = lshr i8 %a, %x
  ret i8 %b
}
)";

FuzzOptions twoBugOptions(uint64_t Iterations) {
  FuzzOptions Opts;
  Opts.Passes = "instsimplify,constfold,instcombine,dce";
  Opts.Iterations = Iterations;
  Opts.BaseSeed = 1;
  Opts.TV.ConcreteTrials = 16;
  Opts.Bugs.enable(BugId::PR52884);
  Opts.Bugs.enable(BugId::PR50693);
  return Opts;
}

void expectSameRecord(const BugRecord &A, const BugRecord &B) {
  EXPECT_EQ(A.Kind, B.Kind);
  EXPECT_EQ(A.FunctionName, B.FunctionName);
  EXPECT_EQ(A.MutantSeed, B.MutantSeed);
  EXPECT_EQ(A.Detail, B.Detail);
  EXPECT_EQ(A.IssueId, B.IssueId);
  EXPECT_EQ(A.MutantIR, B.MutantIR);
}

void expectSameCounters(const FuzzStats &A, const FuzzStats &B) {
  EXPECT_EQ(A.MutantsGenerated, B.MutantsGenerated);
  EXPECT_EQ(A.MutationsApplied, B.MutationsApplied);
  EXPECT_EQ(A.Optimized, B.Optimized);
  EXPECT_EQ(A.Verified, B.Verified);
  // VerifySkipped is per-seed deterministic, so it sums identically across
  // any sharding. The TVCache hit/miss/eviction counters deliberately stay
  // out of this list: each worker warms a private cache, so the split
  // varies with the worker count (the verdicts, and thus everything
  // compared here, do not).
  EXPECT_EQ(A.VerifySkipped, B.VerifySkipped);
  EXPECT_EQ(A.RefinementFailures, B.RefinementFailures);
  EXPECT_EQ(A.Crashes, B.Crashes);
  EXPECT_EQ(A.Inconclusive, B.Inconclusive);
  EXPECT_EQ(A.FunctionsDropped, B.FunctionsDropped);
  EXPECT_EQ(A.InvalidMutants, B.InvalidMutants);
}

} // namespace

//===----------------------------------------------------------------------===//
// Release-mode pipeline validation.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, InvalidPipelineIsHardError) {
  // The old code validated buildPipeline with assert() only: an NDEBUG
  // build fuzzed an empty pipeline and reported zero bugs. Now it is a
  // config error in every build mode and the loop refuses to run.
  FuzzOptions Opts;
  Opts.Passes = "instcombine,no-such-pass";
  Opts.Iterations = 10;
  FuzzerLoop Loop(Opts);
  EXPECT_NE(Loop.configError().find("no-such-pass"), std::string::npos)
      << Loop.configError();
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  EXPECT_EQ(S.MutantsGenerated, 0u);

  CampaignEngine Engine(Opts, 2);
  EXPECT_FALSE(Engine.configError().empty());
  Engine.loadModule(parseOk(TwoBugCorpus));
  EXPECT_EQ(Engine.run().MutantsGenerated, 0u);
}

TEST(CampaignTest, EmptyPipelineIsHardError) {
  FuzzOptions Opts;
  Opts.Passes = "";
  FuzzerLoop Loop(Opts);
  EXPECT_FALSE(Loop.configError().empty());
}

//===----------------------------------------------------------------------===//
// Unbounded-config rejection.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, UnboundedConfigIsRejected) {
  FuzzOptions Opts;
  Opts.Iterations = 0;
  Opts.TimeLimitSeconds = 0;
  FuzzerLoop Loop(Opts);
  EXPECT_TRUE(Loop.configError().empty()); // pipeline itself is fine
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  EXPECT_EQ(S.MutantsGenerated, 0u);
  EXPECT_NE(Loop.configError().find("unbounded"), std::string::npos)
      << Loop.configError();

  CampaignEngine Engine(Opts, 2);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  EXPECT_NE(Engine.configError().find("unbounded"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Side-effect-free seed replay.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, MakeMutantReplayIsSideEffectFree) {
  FuzzOptions Opts = twoBugOptions(50);
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  // Replaying seeds (the §III-E reproducibility path) must not pollute
  // the campaign's statistics.
  for (uint64_t Seed : {3ull, 17ull, 123456ull})
    EXPECT_NE(Loop.makeMutant(Seed), nullptr);
  EXPECT_EQ(Loop.stats().MutationsApplied, 0u);
  EXPECT_EQ(Loop.stats().MutantsGenerated, 0u);
}

//===----------------------------------------------------------------------===//
// Per-campaign bug contexts.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, BugContextsDoNotCrossContaminate) {
  // Two concurrent campaigns over the same corpus: one fuzzes a buggy
  // compiler, one a correct compiler. With the old global registry the
  // clean campaign saw the other's enabled defects; each loop now owns
  // its context.
  FuzzOptions BuggyOpts = twoBugOptions(0);
  FuzzOptions CleanOpts = BuggyOpts;
  CleanOpts.Bugs.disableAll();

  FuzzerLoop Buggy(BuggyOpts), Clean(CleanOpts);
  Buggy.loadModule(parseOk(TwoBugCorpus));
  Clean.loadModule(parseOk(TwoBugCorpus));

  // Interleave the two campaigns iteration by iteration.
  for (uint64_t Seed = 1; Seed <= 400; ++Seed) {
    Buggy.runIteration(Seed);
    Clean.runIteration(Seed);
  }
  EXPECT_GT(Buggy.bugs().size(), 0u);
  EXPECT_EQ(Clean.bugs().size(), 0u);
  EXPECT_EQ(Clean.stats().Crashes, 0u);
  EXPECT_EQ(Clean.stats().RefinementFailures, 0u);
}

//===----------------------------------------------------------------------===//
// saveMutant durability.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, SaveFailuresAreCounted) {
  // A SaveDir that cannot be created ("/dev/null" is a file): the
  // artifacts are lost, but the loss must be visible in the stats.
  FuzzOptions Opts = twoBugOptions(3);
  Opts.SaveDir = "/dev/null/amr-cannot-exist";
  Opts.SaveAll = true;
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  EXPECT_EQ(S.MutantsSaved, 0u);
  EXPECT_GT(S.SaveFailures, 0u);
  // The directory error is recorded once (the old code latched
  // SaveDirReady=true on the failed create_directories and then failed
  // every write with no explanation).
  EXPECT_NE(Loop.saveDirError().find("cannot create save directory"),
            std::string::npos)
      << Loop.saveDirError();
  // Every lost artifact is counted even though the directory is only
  // attempted once (failing mutants are saved a second time, hence >=).
  EXPECT_GE(S.SaveFailures, S.MutantsGenerated);

  // The engine surfaces the same error from its workers.
  CampaignEngine Engine(Opts, 2);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  EXPECT_NE(Engine.saveDirError().find("cannot create save directory"),
            std::string::npos)
      << Engine.saveDirError();
}

TEST(CampaignTest, MutantsSavedCountsTheFilesWritten) {
  // With every seeded defect on, some mutants miscompile in both
  // functions. Such a mutant is one failing artifact: it is written and
  // counted once, so MutantsSaved is the number of files on disk.
  const std::string Dir = ::testing::TempDir() + "amr_saved_once";
  std::filesystem::remove_all(Dir);
  FuzzOptions Opts = twoBugOptions(200);
  Opts.Passes = "O2";
  Opts.Bugs.enableAll();
  Opts.SaveDir = Dir;
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  std::map<uint64_t, unsigned> MiscompilesPerSeed;
  for (const BugRecord &B : Loop.bugs())
    if (B.Kind == BugRecord::Miscompile)
      ++MiscompilesPerSeed[B.MutantSeed];
  ASSERT_TRUE(std::any_of(MiscompilesPerSeed.begin(), MiscompilesPerSeed.end(),
                          [](const auto &P) { return P.second > 1; }))
      << "no mutant miscompiles in both functions; the test proves nothing";
  const auto Files = std::distance(std::filesystem::directory_iterator(Dir),
                                   std::filesystem::directory_iterator());
  EXPECT_GT(S.MutantsSaved, 0u);
  EXPECT_EQ(S.MutantsSaved, (uint64_t)Files);
  EXPECT_EQ(S.SaveFailures, 0u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Parallel determinism: the tentpole guarantee.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, ParallelBugSetIsByteIdenticalToSequential) {
  const uint64_t Iterations = 300;
  FuzzOptions Opts = twoBugOptions(Iterations);

  // Reference: the plain sequential FuzzerLoop.
  FuzzerLoop Seq(Opts);
  Seq.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &SeqStats = Seq.run();
  ASSERT_GT(Seq.bugs().size(), 0u)
      << "corpus must surface bugs for the comparison to mean anything";

  for (unsigned Jobs : {1u, 4u}) {
    CampaignEngine Engine(Opts, Jobs);
    Engine.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &ParStats = Engine.run();
    ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();

    expectSameCounters(SeqStats, ParStats);
    ASSERT_EQ(Seq.bugs().size(), Engine.bugs().size()) << "jobs=" << Jobs;
    for (size_t I = 0; I != Seq.bugs().size(); ++I)
      expectSameRecord(Seq.bugs()[I], Engine.bugs()[I]);
  }
}

//===----------------------------------------------------------------------===//
// Change-tracking skips and the TV verdict cache.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, UnchangedFunctionsAreSkipped) {
  // A pipeline that provably never touches this integer-only corpus:
  // every mutant's functions come out of the optimizer byte-identical,
  // so the loop must skip every refinement check.
  FuzzOptions Opts;
  Opts.Passes = "infer-alignment";
  Opts.Iterations = 20;
  Opts.BaseSeed = 1;
  Opts.TV.ConcreteTrials = 16;
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  EXPECT_EQ(S.Verified, 0u);
  EXPECT_GT(S.VerifySkipped, 0u);
  EXPECT_EQ(Loop.bugs().size(), 0u);

  // The escape hatch re-verifies everything.
  FuzzOptions Full = Opts;
  Full.SkipUnchanged = false;
  FuzzerLoop FullLoop(Full);
  FullLoop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &FS = FullLoop.run();
  EXPECT_EQ(FS.VerifySkipped, 0u);
  EXPECT_EQ(FS.Verified, S.VerifySkipped);
}

TEST(CampaignTest, CacheOnAndOffFindIdenticalBugs) {
  // The acceptance criterion: with the verdict cache on, the campaign
  // performs measurably fewer checkRefinement calls (misses < the
  // cache-off run's Verified) while the bug report stays byte-identical.
  FuzzOptions On = twoBugOptions(300);
  FuzzOptions Off = On;
  Off.TVCacheSize = 0;

  FuzzerLoop OnLoop(On), OffLoop(Off);
  OnLoop.loadModule(parseOk(TwoBugCorpus));
  OffLoop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &SOn = OnLoop.run();
  const FuzzStats &SOff = OffLoop.run();

  ASSERT_GT(OffLoop.bugs().size(), 0u);
  expectSameCounters(SOn, SOff);
  ASSERT_EQ(OnLoop.bugs().size(), OffLoop.bugs().size());
  for (size_t I = 0; I != OnLoop.bugs().size(); ++I)
    expectSameRecord(OnLoop.bugs()[I], OffLoop.bugs()[I]);

  EXPECT_GT(SOn.TVCacheHits, 0u) << "cache never hit: memoization is dead";
  // Misses == actual checker invocations; the cache-off loop invoked the
  // checker once per verified function.
  EXPECT_LT(SOn.TVCacheMisses, SOff.Verified);
  EXPECT_EQ(SOn.TVCacheHits + SOn.TVCacheMisses, SOn.Verified);
  EXPECT_EQ(SOff.TVCacheHits, 0u);
  EXPECT_EQ(SOff.TVCacheMisses, 0u);
}

TEST(CampaignTest, ParallelDeterminismAcrossCacheConfigs) {
  // -j4 == -j1 byte-identical for every cache configuration: default,
  // disabled, and a tiny capacity that forces constant eviction.
  for (size_t CacheSize : {TVCache::DefaultCapacity, (size_t)0, (size_t)4}) {
    FuzzOptions Opts = twoBugOptions(200);
    Opts.TVCacheSize = CacheSize;

    FuzzerLoop Seq(Opts);
    Seq.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &SeqStats = Seq.run();
    ASSERT_GT(Seq.bugs().size(), 0u) << "cache=" << CacheSize;

    CampaignEngine Engine(Opts, 4);
    Engine.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &ParStats = Engine.run();
    expectSameCounters(SeqStats, ParStats);
    ASSERT_EQ(Seq.bugs().size(), Engine.bugs().size())
        << "cache=" << CacheSize;
    for (size_t I = 0; I != Seq.bugs().size(); ++I)
      expectSameRecord(Seq.bugs()[I], Engine.bugs()[I]);
  }
}

TEST(CampaignTest, ParallelReplayRegeneratesSequentialMutant) {
  // Engine-side §III-E replay: a seed logged by a 4-worker campaign
  // regenerates the very same mutant the sequential loop would produce.
  FuzzOptions Opts = twoBugOptions(200);
  FuzzerLoop Seq(Opts);
  Seq.loadModule(parseOk(TwoBugCorpus));

  CampaignEngine Engine(Opts, 4);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_GT(Engine.bugs().size(), 0u);
  uint64_t Seed = Engine.bugs().front().MutantSeed;
  EXPECT_EQ(printModule(*Engine.makeMutant(Seed)),
            printModule(*Seq.makeMutant(Seed)));
}

TEST(CampaignTest, TimeLimitedParallelRunTerminates) {
  FuzzOptions Opts = twoBugOptions(0);
  Opts.TimeLimitSeconds = 0.2;
  CampaignEngine Engine(Opts, 2);
  Engine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Engine.run();
  EXPECT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_GT(S.MutantsGenerated, 0u);
  // The deadline is how a campaign without -n finishes.
  EXPECT_FALSE(Engine.interrupted());
  // Bugs (if any) come out sorted by reproducer seed.
  for (size_t I = 1; I < Engine.bugs().size(); ++I)
    EXPECT_LE(Engine.bugs()[I - 1].MutantSeed, Engine.bugs()[I].MutantSeed);
}

TEST(CampaignTest, DeadlineStopsAnIterationBoundedCampaign) {
  // -n next to -t stops at whichever comes first; the cut campaign is
  // resumable, so interrupted.
  FuzzOptions Opts = twoBugOptions(1000000);
  Opts.TimeLimitSeconds = 0.2;
  CampaignEngine Engine(Opts, 2);
  Engine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_GT(S.MutantsGenerated, 0u);
  EXPECT_LT(S.MutantsGenerated, 1000000u);
  EXPECT_TRUE(Engine.interrupted());
  for (size_t I = 1; I < Engine.bugs().size(); ++I)
    EXPECT_LE(Engine.bugs()[I - 1].MutantSeed, Engine.bugs()[I].MutantSeed);
}

TEST(CampaignTest, TimeLimitedRunIsAPrefixOfTheBoundedRun) {
  // At -j1 a campaign without -n runs offsets 0, 1, 2, ...: its results
  // are those of the -n campaign over the same count.
  FuzzOptions Timed = twoBugOptions(0);
  Timed.TimeLimitSeconds = 0.2;
  CampaignEngine T(Timed, 1);
  T.loadModule(parseOk(TwoBugCorpus));
  const uint64_t N = T.run().MutantsGenerated;
  ASSERT_GT(N, 0u);

  CampaignEngine B(twoBugOptions(N), 1);
  B.loadModule(parseOk(TwoBugCorpus));
  B.run();
  expectSameCounters(T.stats(), B.stats());
  ASSERT_EQ(T.bugs().size(), B.bugs().size());
  for (size_t I = 0; I != T.bugs().size(); ++I)
    expectSameRecord(T.bugs()[I], B.bugs()[I]);
}

TEST(CampaignTest, SlicesOfTheUnboundedRangeAreDisjointAndCover) {
  // Without -n the range is [0, UINT64_MAX): L*I/J would overflow 64 bits.
  for (unsigned J : {1u, 2u, 3u, 4u, 7u, 64u}) {
    uint64_t Prev = 0;
    for (unsigned I = 0; I != J; ++I) {
      auto [Lo, Hi] = campaignSlice(I, J, 0, UINT64_MAX, UINT64_MAX);
      EXPECT_EQ(Lo, Prev) << I << "/" << J; // worker 0 starts at 0
      EXPECT_LT(Lo, Hi) << I << "/" << J;
      Prev = Hi;
    }
    EXPECT_EQ(Prev, UINT64_MAX) << J;
  }
  EXPECT_EQ(campaignSlice(1, 2, 0, UINT64_MAX, UINT64_MAX).first,
            UINT64_MAX / 2);
  // A bounded campaign keeps the N*I/J partition, and a feedback epoch
  // that runs into the end is cut there.
  EXPECT_EQ(campaignSlice(1, 3, 0, 100, 100), std::make_pair(uint64_t(33),
                                                             uint64_t(66)));
  EXPECT_EQ(campaignSlice(1, 2, 96, 32, 100), std::make_pair(uint64_t(98),
                                                             uint64_t(100)));
}

TEST(CampaignTest, MoreWorkersThanIterations) {
  // 3 iterations on 8 requested workers: no idle shards, same results.
  FuzzOptions Opts = twoBugOptions(3);
  FuzzerLoop Seq(Opts);
  Seq.loadModule(parseOk(TwoBugCorpus));
  Seq.run();

  CampaignEngine Engine(Opts, 8);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  expectSameCounters(Seq.stats(), Engine.stats());
  ASSERT_EQ(Seq.bugs().size(), Engine.bugs().size());
}

//===----------------------------------------------------------------------===//
// Telemetry: stage-time accounting and the merged run report.
//===----------------------------------------------------------------------===//

TEST(CampaignTest, StageTimeSumInvariantHolds) {
  // The overhead bucket makes stage accounting exhaustive: mutate +
  // optimize + verify + overhead equals the loop's wall time (exactly,
  // modulo float rounding — every unattributed moment lands in overhead
  // by construction).
  FuzzOptions Opts = twoBugOptions(100);
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  double Staged = S.MutateSeconds + S.OptimizeSeconds + S.VerifySeconds +
                  S.OverheadSeconds;
  EXPECT_GT(S.OverheadSeconds, 0.0);
  EXPECT_NEAR(Staged, S.TotalSeconds, 1e-6 * std::max(1.0, S.TotalSeconds));
  EXPECT_DOUBLE_EQ(S.WorkerSeconds, S.TotalSeconds);

  // Parallel: the invariant's denominator is the summed worker wall time,
  // not the engine wall clock (which is ~J times smaller).
  CampaignEngine Engine(Opts, 4);
  Engine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &PS = Engine.run();
  double PStaged = PS.MutateSeconds + PS.OptimizeSeconds + PS.VerifySeconds +
                   PS.OverheadSeconds;
  EXPECT_NEAR(PStaged, PS.WorkerSeconds,
              1e-6 * std::max(1.0, PS.WorkerSeconds));

  // Time-limited: the deadline stops the workers mid-slice; the invariant
  // must still hold.
  FuzzOptions Dyn = twoBugOptions(0);
  Dyn.TimeLimitSeconds = 0.2;
  CampaignEngine DynEngine(Dyn, 2);
  DynEngine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &DS = DynEngine.run();
  ASSERT_GT(DS.MutantsGenerated, 0u);
  double DStaged = DS.MutateSeconds + DS.OptimizeSeconds + DS.VerifySeconds +
                   DS.OverheadSeconds;
  EXPECT_GT(DS.WorkerSeconds, 0.0);
  EXPECT_NEAR(DStaged, DS.WorkerSeconds,
              1e-6 * std::max(1.0, DS.WorkerSeconds));
}

TEST(CampaignTest, RegistryBreakdownsMatchSummaryCounters) {
  FuzzOptions Opts = twoBugOptions(300);
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  const StatRegistry &R = Loop.registry();

  // Per-family applied counts sum to the loop's MutationsApplied.
  uint64_t FamilyApplied = 0, Verdicts = 0;
  R.forEachCounter(Volatility::Deterministic,
                   [&](const std::string &Name, uint64_t V) {
                     if (Name.rfind("mutation.", 0) == 0 &&
                         Name.size() > 8 &&
                         Name.compare(Name.size() - 8, 8, ".applied") == 0)
                       FamilyApplied += V;
                     if (Name.rfind("tv.verdict.", 0) == 0)
                       Verdicts += V;
                   });
  EXPECT_EQ(FamilyApplied, S.MutationsApplied);
  // Every established verdict (cache hits included) is attributed.
  EXPECT_EQ(Verdicts, S.Verified);
  // Pass invocation counts exist for the configured pipeline.
  EXPECT_GT(R.counterValue("pass.instcombine.invocations"), 0u);
  EXPECT_GT(R.counterValue("bug.crash") + R.counterValue("bug.miscompile"),
            0u);
}

TEST(CampaignTest, MergedRunReportIsWorkerCountInvariant) {
  // The acceptance criterion for -stats-json: a -j4 campaign's report is
  // byte-identical to -j1 in everything except wall-times and cache
  // splits — i.e. the whole "deterministic" section matches.
  FuzzOptions Opts = twoBugOptions(200);
  auto ReportFor = [&](unsigned Jobs) {
    CampaignEngine Engine(Opts, Jobs);
    Engine.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &S = Engine.run();
    RunReportConfig RC;
    RC.Tool = "campaign_test";
    RC.Passes = Opts.Passes;
    RC.Iterations = Opts.Iterations;
    RC.BaseSeed = Opts.BaseSeed;
    RC.MaxMutationsPerFunction = Opts.Mutation.MaxMutationsPerFunction;
    RC.Jobs = Jobs;
    RC.WallSeconds = S.TotalSeconds;
    std::ostringstream OS;
    writeRunReport(OS, RC, S, Engine.bugs(), Engine.registry());
    return OS.str();
  };
  std::string R1 = ReportFor(1), R4 = ReportFor(4);

  // Cut each report at the start of its volatile section.
  auto DeterministicPart = [](const std::string &R) {
    size_t Pos = R.find("\"volatile\"");
    EXPECT_NE(Pos, std::string::npos);
    return R.substr(0, Pos);
  };
  EXPECT_EQ(DeterministicPart(R1), DeterministicPart(R4));
  // And the reports are structurally complete.
  EXPECT_NE(R1.find("\"schema_version\": 11"), std::string::npos);
  EXPECT_NE(R1.find("\"per_pass\""), std::string::npos);
  EXPECT_NE(R1.find("\"per_family\""), std::string::npos);
  EXPECT_NE(R1.find("\"tv_verdicts\""), std::string::npos);
  EXPECT_NE(R1.find("\"p99_s\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The shared cross-worker TV verdict cache (-shared-tv-cache).
//===----------------------------------------------------------------------===//

namespace {

/// Four alpha-renamed copies of one function: a workload where the
/// text-keyed per-worker cache misses (names differ, so the printed texts
/// differ) but the canonicalized shared cache collapses all lineages onto
/// one key per structural pair.
const char *RenamedCopiesCorpus = R"(
define i8 @copy_a(i8 %x, i8 %y) {
  %s = add i8 %x, %y
  %m = and i8 %s, %x
  %r = xor i8 %m, 42
  ret i8 %r
}
define i8 @copy_b(i8 %p, i8 %q) {
  %t0 = add i8 %p, %q
  %t1 = and i8 %t0, %p
  %t2 = xor i8 %t1, 42
  ret i8 %t2
}
define i8 @copy_c(i8 %a, i8 %b) {
  %u = add i8 %a, %b
  %v = and i8 %u, %a
  %w = xor i8 %v, 42
  ret i8 %w
}
define i8 @copy_d(i8 %m, i8 %n) {
  %e = add i8 %m, %n
  %f = and i8 %e, %m
  %g = xor i8 %f, 42
  ret i8 %g
}
)";

FuzzOptions renamedCopiesOptions(bool Shared) {
  FuzzOptions Opts;
  Opts.Passes = "instsimplify,constfold,instcombine,dce";
  Opts.Iterations = 60;
  Opts.BaseSeed = 7;
  Opts.TV.ConcreteTrials = 8;
  // A tight conflict budget: a hard SAT query resolves Inconclusive in
  // milliseconds — hit accounting, not proof strength, is under test.
  Opts.TV.SolverConflictBudget = 2000;
  Opts.UseSharedTVCache = Shared;
  return Opts;
}

} // namespace

TEST(CampaignTest, SharedCacheHitsWhereTextKeyedCacheCannot) {
  // Same seeds, same corpus, both cache flavors: the canonical keys must
  // collapse the alpha-renamed lineages that text keys keep apart.
  auto HitsFor = [&](bool Shared) {
    CampaignEngine Engine(renamedCopiesOptions(Shared), 1);
    Engine.loadModule(parseOk(RenamedCopiesCorpus));
    const FuzzStats &S = Engine.run();
    EXPECT_GT(S.Verified + S.VerifySkipped, 0u);
    return S.TVCacheHits;
  };
  uint64_t Private = HitsFor(false), Shared = HitsFor(true);
  EXPECT_GT(Shared, Private);
}

TEST(CampaignTest, SharedCacheHitsAcrossWorkers) {
  // Under -j4 every worker queries the one process-wide cache, so verdicts
  // computed in one worker must be replayed in the others.
  FuzzOptions Opts = renamedCopiesOptions(true);
  CampaignEngine Engine(Opts, 4);
  Engine.loadModule(parseOk(RenamedCopiesCorpus));
  const FuzzStats &S = Engine.run();
  EXPECT_GT(S.TVCacheHits, 0u);
  // Every verification either hit, missed, or was uncacheable; the split
  // must stay internally consistent.
  EXPECT_LE(S.TVCacheHits + S.TVCacheMisses, S.Verified);
}

TEST(CampaignTest, SharedCacheReportIsWorkerCountInvariant) {
  // The tentpole acceptance criterion: with the shared cache on, a -j4
  // campaign's deterministic report section is byte-identical to -j1 even
  // though workers race on the cache — verdicts are a pure function of the
  // canonical key, so a hit replays what a fresh computation would return.
  FuzzOptions Opts = twoBugOptions(200);
  Opts.UseSharedTVCache = true;
  auto ReportFor = [&](unsigned Jobs) {
    CampaignEngine Engine(Opts, Jobs);
    Engine.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &S = Engine.run();
    RunReportConfig RC;
    RC.Tool = "campaign_test";
    RC.Passes = Opts.Passes;
    RC.Iterations = Opts.Iterations;
    RC.BaseSeed = Opts.BaseSeed;
    RC.MaxMutationsPerFunction = Opts.Mutation.MaxMutationsPerFunction;
    RC.Jobs = Jobs;
    RC.WallSeconds = S.TotalSeconds;
    std::ostringstream OS;
    writeRunReport(OS, RC, S, Engine.bugs(), Engine.registry());
    return OS.str();
  };
  std::string R1 = ReportFor(1), R4 = ReportFor(4);
  auto DeterministicPart = [](const std::string &R) {
    size_t Pos = R.find("\"volatile\"");
    EXPECT_NE(Pos, std::string::npos);
    return R.substr(0, Pos);
  };
  EXPECT_EQ(DeterministicPart(R1), DeterministicPart(R4));
}

TEST(CampaignTest, SharedCacheBugSetMatchesSequentialRun) {
  // Bug records (seed, function, detail, mutant IR) must agree between
  // -j1 and -j4 shared-cache runs, record for record.
  FuzzOptions Opts = twoBugOptions(200);
  Opts.UseSharedTVCache = true;
  CampaignEngine E1(Opts, 1), E4(Opts, 4);
  E1.loadModule(parseOk(TwoBugCorpus));
  E4.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S1 = E1.run();
  const FuzzStats &S4 = E4.run();
  expectSameCounters(S1, S4);
  ASSERT_EQ(E1.bugs().size(), E4.bugs().size());
  for (size_t I = 0; I != E1.bugs().size(); ++I)
    expectSameRecord(E1.bugs()[I], E4.bugs()[I]);
  EXPECT_GT(E1.bugs().size(), 0u);
}

//===----------------------------------------------------------------------===//
// The live snapshot -progress reads.
//===----------------------------------------------------------------------===//

namespace {

/// Polls \p Engine's liveSnapshot() from a second thread until stopped,
/// keeping every snapshot taken while run() was live.
class SnapshotPoller {
public:
  explicit SnapshotPoller(const CampaignEngine &Engine)
      : Th([this, &Engine] {
          while (!Stop.load(std::memory_order_acquire)) {
            CampaignLiveSnapshot S = Engine.liveSnapshot();
            if (S.Running)
              Live.push_back(S);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}

  /// Joins the poller; \returns the live snapshots in poll order.
  std::vector<CampaignLiveSnapshot> finish() {
    Stop.store(true, std::memory_order_release);
    Th.join();
    return std::move(Live);
  }

private:
  std::atomic<bool> Stop{false};
  std::vector<CampaignLiveSnapshot> Live;
  std::thread Th;
};

std::string deterministicReport(const CampaignEngine &Engine,
                                const FuzzOptions &Opts, unsigned Jobs) {
  RunReportConfig RC;
  RC.Tool = "campaign_test";
  RC.Passes = Opts.Passes;
  RC.Iterations = Opts.Iterations;
  RC.BaseSeed = Opts.BaseSeed;
  RC.FeedbackOn = Opts.Feedback.Enabled;
  RC.FeedbackEpochLength = Opts.Feedback.EpochLength;
  RC.Jobs = Jobs;
  std::ostringstream OS;
  writeRunReport(OS, RC, Engine.stats(), Engine.bugs(), Engine.registry());
  std::string R = OS.str();
  size_t Pos = R.find("\"volatile\"");
  EXPECT_NE(Pos, std::string::npos);
  return R.substr(0, Pos);
}

} // namespace

TEST(CampaignTest, PolledLiveSnapshotLeavesReportUnchanged) {
  // An observer polling liveSnapshot() every millisecond during a -j2
  // feedback campaign cannot move the deterministic report, and every
  // snapshot it sees is a plausible progress reading: Done and each
  // shard's published stage nanoseconds never go backwards.
  FuzzOptions Opts = twoBugOptions(200);
  Opts.Feedback.Enabled = true;
  Opts.Feedback.EpochLength = 32;

  CampaignEngine Plain(Opts, 2);
  Plain.loadModule(parseOk(TwoBugCorpus));
  Plain.run();

  CampaignEngine Polled(Opts, 2);
  Polled.loadModule(parseOk(TwoBugCorpus));
  SnapshotPoller Poller(Polled);
  Polled.run();
  std::vector<CampaignLiveSnapshot> Seen = Poller.finish();

  EXPECT_EQ(deterministicReport(Plain, Opts, 2),
            deterministicReport(Polled, Opts, 2));
  uint64_t Prev = 0;
  uint64_t PrevStage[2][4] = {};
  bool SawStageTime = false;
  for (const CampaignLiveSnapshot &S : Seen) {
    EXPECT_GE(S.Done, Prev);
    EXPECT_LE(S.Done, S.Target);
    EXPECT_EQ(S.Target, 200u);
    EXPECT_EQ(S.Workers, 2u);
    ASSERT_EQ(S.Shards.size(), 2u);
    EXPECT_EQ(S.Restored, 0u);
    Prev = S.Done;
    for (unsigned W = 0; W != 2; ++W)
      for (unsigned I = 0; I != 4; ++I) {
        EXPECT_GE(S.Shards[W].StageNanos[I], PrevStage[W][I]);
        PrevStage[W][I] = S.Shards[W].StageNanos[I];
        SawStageTime |= PrevStage[W][I] != 0;
      }
  }
  EXPECT_TRUE(SawStageTime) << Seen.size() << " live snapshots";
  EXPECT_EQ(Polled.liveSnapshot().Done, 200u);
}

TEST(CampaignTest, ResumedSnapshotCarriesRestoredPrefix) {
  // -progress divides this run's iterations by this run's elapsed time,
  // so the snapshot of a resumed campaign must say how much of Done the
  // checkpoint restored.
  std::string Dir = ::testing::TempDir() + "amr_campaign_resume_live";
  std::filesystem::remove_all(Dir);
  FuzzOptions Opts = twoBugOptions(400);
  Opts.Survival.CheckpointDir = Dir;
  Opts.Survival.CheckpointInterval = 16;

  CampaignEngine First(Opts, 2);
  First.loadModule(parseOk(TwoBugCorpus));
  First.stopAfterIterations(100);
  First.run();
  ASSERT_TRUE(First.configError().empty()) << First.configError();
  ASSERT_TRUE(First.interrupted());
  const uint64_t Completed = First.liveSnapshot().Done;
  ASSERT_GE(Completed, 100u);
  ASSERT_LT(Completed, 400u);

  FuzzOptions ResumeOpts = Opts;
  ResumeOpts.Survival.Resume = true;
  CampaignEngine Second(ResumeOpts, 2);
  Second.loadModule(parseOk(TwoBugCorpus));
  SnapshotPoller Poller(Second);
  Second.run();
  std::vector<CampaignLiveSnapshot> Seen = Poller.finish();
  ASSERT_TRUE(Second.configError().empty()) << Second.configError();
  EXPECT_FALSE(Second.interrupted());

  ASSERT_FALSE(Seen.empty()) << "no snapshot caught the resumed run live";
  for (const CampaignLiveSnapshot &S : Seen) {
    EXPECT_EQ(S.Restored, Completed);
    EXPECT_GE(S.Done, Completed);
    EXPECT_LE(S.Done, 400u);
  }
  EXPECT_EQ(Second.liveSnapshot().Done, 400u);
  std::filesystem::remove_all(Dir);
}
