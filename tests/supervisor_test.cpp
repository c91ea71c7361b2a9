//===- tests/supervisor_test.cpp - Multi-process campaign supervisor --------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end tests for the -fanout supervisor: shard leases with
/// heartbeat deadlines, backoff restarts of killed and wedged children
/// (with the restart budget that progress refills), crash attribution
/// through retry-then-skip, and the
/// degradation ladder — a permanently lost lease is counted and flagged,
/// never a silent gap, while every recovered fault leaves the
/// deterministic report section byte-identical to an undisturbed -j1 run,
/// blind and under -feedback, fresh and resumed.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/RunReport.h"
#include "core/Supervisor.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "support/FaultPlane.h"

#include <atomic>
#include <chrono>
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

std::string deterministicReportPart(const CampaignEngine &Engine) {
  std::ostringstream OS;
  writeRunReport(OS, Engine.runReport("supervisor_test"));
  std::string R = OS.str();
  size_t Pos = R.find("\"volatile\"");
  EXPECT_NE(Pos, std::string::npos);
  return R.substr(0, Pos);
}

/// A feedback campaign with a short epoch, so it crosses several barriers.
FuzzOptions feedbackOptions(uint64_t Iterations) {
  FuzzOptions Opts = twoBugOptions(Iterations);
  Opts.Feedback.Enabled = true;
  Opts.Feedback.EpochLength = 16;
  return Opts;
}

/// A fresh (emptied) directory under the test temp dir.
std::string scratchDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "amr_sup_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// One function that the test-crash pass turns into a SIGSEGV on every
/// mutant.
const char *CrashCorpus = R"(
define i8 @crashme(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
)";

/// Three iterations of CrashCorpus through the crashing pipeline.
FuzzOptions crashOptions() {
  FuzzOptions Opts;
  Opts.Passes = "test-crash,dce";
  Opts.Iterations = 3;
  Opts.BaseSeed = 1;
  return Opts;
}

/// The "mutation.*" counters of \p R, by name.
std::map<std::string, uint64_t> mutationCounters(const StatRegistry &R) {
  std::map<std::string, uint64_t> Out;
  R.forEachCounter(Volatility::Deterministic,
                   [&](const std::string &Name, uint64_t Value) {
                     if (Name.rfind("mutation.", 0) == 0)
                       Out[Name] = Value;
                   });
  return Out;
}

/// The seeds of \p Bugs, in report order.
std::vector<uint64_t> bugSeeds(const std::vector<BugRecord> &Bugs) {
  std::vector<uint64_t> Seeds;
  for (const BugRecord &B : Bugs)
    Seeds.push_back(B.MutantSeed);
  return Seeds;
}

/// Every test starts and ends with the process-global fault plane
/// disarmed, so the suite stays order-independent.
struct SupervisorTest : ::testing::Test {
  void SetUp() override { FaultPlane::instance().reset(); }
  void TearDown() override { FaultPlane::instance().reset(); }

  /// Fast-restart fanout options so injected deaths cost milliseconds.
  static FuzzOptions fanoutOptions(uint64_t Iterations, unsigned Fanout) {
    FuzzOptions Opts = twoBugOptions(Iterations);
    Opts.Survival.Fanout = Fanout;
    Opts.Survival.Supervision.FirstDelaySeconds = 0.005;
    return Opts;
  }
};

} // namespace

TEST_F(SupervisorTest, FanoutMatchesThreadedDeterministicSection) {
  // With nothing failing, the supervisor must be invisible in the
  // deterministic report: children checkpoint their shard slices and the
  // harvest merges them exactly like the threaded engine.
  const uint64_t Iterations = 60;
  FuzzOptions Plain = twoBugOptions(Iterations);
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();
  ASSERT_GT(Ref.bugs().size(), 0u);

  FuzzOptions Fan = fanoutOptions(Iterations, 3);
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_FALSE(Engine.interrupted());
  EXPECT_TRUE(Engine.lostShards().empty());
  EXPECT_EQ(deterministicReportPart(Engine),
            deterministicReportPart(Ref));
}

TEST_F(SupervisorTest, InjectedChildKillIsReLeasedByteForByte) {
  // The acceptance scenario: SIGKILL one child mid-campaign. The lease
  // must be retried with backoff and the completed report must be
  // byte-identical to the undisturbed -j1 run — an external kill is never
  // attributed to the seed that happened to be in flight.
  const uint64_t Iterations = 60;
  FuzzOptions Plain = twoBugOptions(Iterations);
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();

  std::string Err;
  ASSERT_TRUE(FaultPlane::instance().arm("supervisor.kill:nth:1", Err))
      << Err;
  FuzzOptions Fan = fanoutOptions(Iterations, 3);
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_TRUE(Engine.lostShards().empty());
  EXPECT_GE(Engine.registry().counterValue("survive.supervisor.restarts"),
            1u);
  EXPECT_EQ(deterministicReportPart(Engine),
            deterministicReportPart(Ref));

  // The fault verifiably fired exactly once.
  auto C = FaultPlane::instance().counters();
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C[0].Triggers, 1u);
}

TEST_F(SupervisorTest, WedgedChildIsKilledByHeartbeatDeadline) {
  // supervisor.wedge makes the child hang without beating; the lease
  // deadline must reap it. Children re-arm from the parent's table at
  // every fork, so each respawn wedges again and every lease eventually
  // exhausts its budget: the campaign must still complete — degraded,
  // with exact accounting, never hung.
  std::string Err;
  ASSERT_TRUE(FaultPlane::instance().arm("supervisor.wedge:nth:1", Err))
      << Err;
  FuzzOptions Fan = fanoutOptions(30, 2);
  Fan.Survival.Supervision.RestartBudget = 2;
  Fan.Survival.Supervision.HeartbeatSeconds = 0.2;
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_GE(Engine.registry().counterValue("survive.supervisor.wedges"),
            1u);
  EXPECT_TRUE(Engine.degraded());
  EXPECT_EQ(Engine.lostShards().size(), 2u);
}

TEST_F(SupervisorTest, ExhaustedRetriesDegradeWithExactAccounting) {
  // Fork failure on every attempt: every lease dies without running a
  // single iteration. The ladder demands exact accounting — each shard
  // flagged lost with its full slice, the engine degraded, the campaign
  // interrupted — and an incident note for the operator, never a silent
  // gap or a hang.
  std::string Err;
  ASSERT_TRUE(FaultPlane::instance().arm("supervisor.fork:every:1", Err))
      << Err;
  const uint64_t Iterations = 40;
  FuzzOptions Fan = fanoutOptions(Iterations, 3);
  Fan.Survival.Supervision.RestartBudget = 2;
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_TRUE(Engine.degraded());
  EXPECT_TRUE(Engine.interrupted());
  ASSERT_EQ(Engine.lostShards().size(), 3u);
  uint64_t Lost = 0;
  for (const auto &[Shard, Iters] : Engine.lostShards())
    Lost += Iters;
  EXPECT_EQ(Lost, Iterations);
  EXPECT_EQ(S.MutantsGenerated, 0u);
  const StatRegistry &R = Engine.registry();
  EXPECT_EQ(R.counterValue("survive.degraded.shards"), 3u);
  EXPECT_EQ(R.counterValue("survive.degraded.lost_iterations"),
            Iterations);
  EXPECT_GE(R.counterValue("survive.supervisor.fork_failures"), 3u);
  EXPECT_NE(Engine.fanoutIncidents().find("lost"), std::string::npos)
      << Engine.fanoutIncidents();
}

TEST_F(SupervisorTest, RepeatedChildDeathSkipsSeedAndRecordsCrashBug) {
  // A pass that SIGSEGVs deterministically: the first death at a seed is
  // retried (it could have been an external kill), the second pins it,
  // and the next child records the seed as a crash bug with a forensics
  // bundle and a saved failing mutant instead of running it — so the
  // campaign completes with every crashing seed recorded and nothing lost.
  const std::string Bundles = scratchDir("bundles");
  const std::string Saved = scratchDir("saved");
  FuzzOptions Opts = crashOptions();
  Opts.Survival.Fanout = 1;
  Opts.Survival.Supervision.FirstDelaySeconds = 0.005;
  Opts.BugBundleDir = Bundles;
  Opts.SaveDir = Saved;
  CampaignEngine Engine(Opts, 1);
  Engine.loadModule(parseOk(CrashCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_TRUE(Engine.fanoutIncidents().empty()) << Engine.fanoutIncidents();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_FALSE(Engine.interrupted());
  EXPECT_EQ(S.Crashes, 3u);
  ASSERT_EQ(Engine.bugs().size(), 3u);
  for (const BugRecord &B : Engine.bugs()) {
    EXPECT_EQ(B.Kind, BugRecord::Crash);
    EXPECT_NE(B.Detail.find("SIGSEGV"), std::string::npos) << B.Detail;
    EXPECT_NE(B.Detail.find("supervised shard"), std::string::npos)
        << B.Detail;
    EXPECT_FALSE(B.MutantIR.empty());
    EXPECT_FALSE(B.BundlePath.empty());
    EXPECT_TRUE(std::filesystem::exists(B.BundlePath)) << B.BundlePath;
  }
  EXPECT_EQ(S.BundlesWritten, 3u);
  EXPECT_EQ(Engine.registry().counterValue("bug.crash"), 3u);
  // Two deaths per seed before the skip.
  EXPECT_GE(Engine.registry().counterValue("survive.supervisor.restarts"),
            3u);
  EXPECT_EQ(S.MutantsSaved, 3u);
  for (uint64_t Seed : {1, 2, 3})
    EXPECT_TRUE(std::filesystem::exists(
        Saved + "/mutant-" + std::to_string(Seed) + "-failing.ll"))
        << Seed;

  // The mutate stage is accounted exactly as in-process, where the signal
  // guard contains the same SIGSEGV.
  FuzzOptions InProcess = crashOptions();
  InProcess.Survival.SignalGuard = true;
  CampaignEngine Ref(InProcess, 1);
  Ref.loadModule(parseOk(CrashCorpus));
  const FuzzStats &RS = Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();
  EXPECT_EQ(S.MutantsGenerated, 3u);
  EXPECT_EQ(S.MutantsGenerated, RS.MutantsGenerated);
  EXPECT_EQ(S.MutationsApplied, RS.MutationsApplied);
  EXPECT_EQ(S.Optimized, RS.Optimized);
  EXPECT_EQ(S.Crashes, RS.Crashes);
  EXPECT_FALSE(mutationCounters(Engine.registry()).empty());
  EXPECT_EQ(mutationCounters(Engine.registry()),
            mutationCounters(Ref.registry()));
  EXPECT_EQ(bugSeeds(Engine.bugs()), bugSeeds(Ref.bugs()));
  std::filesystem::remove_all(Bundles);
  std::filesystem::remove_all(Saved);
}

TEST_F(SupervisorTest, LostLeaseRecordsNoCrashBugForItsLostIterations) {
  // A budget of 2 loses the lease at the death that pins seed 1: the
  // seed never ran to a recorded end, so it is counted lost, not
  // recorded as a bug. The resumed leg starts from the same checkpoint
  // and fails the same way, without a duplicate record.
  const std::string Ckpt = scratchDir("lost_ckpt");
  FuzzOptions Opts = crashOptions();
  Opts.Survival.Fanout = 1;
  Opts.Survival.Supervision.FirstDelaySeconds = 0.005;
  Opts.Survival.Supervision.RestartBudget = 2;
  Opts.Survival.CheckpointDir = Ckpt;
  for (bool Resume : {false, true}) {
    SCOPED_TRACE(Resume ? "resumed leg" : "first leg");
    Opts.Survival.Resume = Resume;
    CampaignEngine Engine(Opts, 1);
    Engine.loadModule(parseOk(CrashCorpus));
    const FuzzStats &S = Engine.run();
    ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
    EXPECT_TRUE(Engine.degraded());
    EXPECT_EQ(Engine.registry().counterValue(
                  "survive.degraded.lost_iterations"),
              3u);
    EXPECT_TRUE(Engine.bugs().empty());
    EXPECT_EQ(S.Crashes, 0u);
  }
  std::filesystem::remove_all(Ckpt);
}

TEST_F(SupervisorTest, ProgressBetweenDeathsRefillsTheRestartBudget) {
  // Three crashing seeds kill the one lease six times, twice as often as
  // its budget of 3 allows. Every second death pins a seed, so the next
  // death comes after a finished (skipped) iteration: each is progress
  // and resets the count, and the lease completes instead of being lost.
  FuzzOptions Opts;
  Opts.Passes = "test-crash,dce";
  Opts.Iterations = 3;
  Opts.BaseSeed = 1;
  Opts.Survival.Fanout = 1;
  Opts.Survival.Supervision.FirstDelaySeconds = 0.005;
  Opts.Survival.Supervision.RestartBudget = 3;
  CampaignEngine Engine(Opts, 1);
  Engine.loadModule(parseOk(CrashCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded()) << Engine.fanoutIncidents();
  EXPECT_TRUE(Engine.lostShards().empty());
  EXPECT_EQ(S.Crashes, 3u);
  // Six deaths, and the last one is followed by a clean exit.
  EXPECT_EQ(Engine.registry().counterValue("survive.supervisor.restarts"),
            6u);
}

TEST_F(SupervisorTest, DeadChildrenCountAsWorkerTime) {
  // Every child that reaches a crashing seed dies before it writes its
  // shard checkpoint. Its lifetime still reaches worker_seconds, as
  // overhead, so the four stages keep summing to the worker time.
  FuzzOptions Opts = crashOptions();
  Opts.Survival.Fanout = 1;
  Opts.Survival.Supervision.FirstDelaySeconds = 0.005;
  CampaignEngine Engine(Opts, 1);
  Engine.loadModule(parseOk(CrashCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  const uint64_t Deaths =
      Engine.registry().counterValue("survive.supervisor.restarts");
  ASSERT_GT(Deaths, 0u);
  // Each dead child lived at least one supervisor poll.
  EXPECT_GE(S.WorkerSeconds, (double)Deaths * Supervisor::PollSeconds);
  EXPECT_GT(S.OverheadSeconds, 0);
  EXPECT_NEAR(S.MutateSeconds + S.OptimizeSeconds + S.VerifySeconds +
                  S.OverheadSeconds,
              S.WorkerSeconds, 1e-9);
}

TEST_F(SupervisorTest, FanoutLiveSnapshotNeverExceedsTarget) {
  // The crash corpus makes each restarted child re-run what its
  // predecessor ran after the last checkpoint. -progress reads the
  // children's cursors, so an observer polling every millisecond sees at
  // most the planned three iterations (a restart may move the count
  // back), and the finished campaign reports exactly three.
  FuzzOptions Opts = crashOptions();
  Opts.Survival.Fanout = 1;
  Opts.Survival.Supervision.FirstDelaySeconds = 0.005;
  CampaignEngine Engine(Opts, 1);
  Engine.loadModule(parseOk(CrashCorpus));
  std::atomic<bool> Stop{false};
  std::vector<CampaignLiveSnapshot> Live;
  std::thread Poller([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      CampaignLiveSnapshot S = Engine.liveSnapshot();
      if (S.Running)
        Live.push_back(S);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  Engine.run();
  Stop.store(true, std::memory_order_release);
  Poller.join();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded()) << Engine.fanoutIncidents();
  ASSERT_FALSE(Live.empty()) << "no snapshot caught the campaign live";
  for (const CampaignLiveSnapshot &S : Live) {
    EXPECT_EQ(S.Target, 3u);
    EXPECT_LE(S.Done, 3u);
  }
  EXPECT_EQ(Engine.liveSnapshot().Done, 3u);
}

TEST_F(SupervisorTest, FanoutRejectsIncompatibleConfigs) {
  // -fanout without -n: a lost lease is counted against the rest of its
  // slice, and an unbounded slice has no rest.
  FuzzOptions Timed = twoBugOptions(0);
  Timed.TimeLimitSeconds = 0.1;
  Timed.Survival.Fanout = 2;
  CampaignEngine T(Timed, 1);
  // The coherence check runs in the constructor, before any module loads.
  EXPECT_NE(T.configError().find("iteration-bounded"), std::string::npos)
      << T.configError();
  T.loadModule(parseOk(TwoBugCorpus));
  T.run();
  EXPECT_NE(T.configError().find("iteration-bounded"), std::string::npos)
      << T.configError();

  // Feedback runs through the same epoch barrier as the thread path.
  FuzzOptions Fb = twoBugOptions(20);
  Fb.Survival.Fanout = 2;
  Fb.Feedback.Enabled = true;
  CampaignEngine F(Fb, 1);
  F.loadModule(parseOk(TwoBugCorpus));
  F.run();
  EXPECT_TRUE(F.configError().empty()) << F.configError();

  // The flight recorder's ring lives in child memory, outside the shard
  // checkpoint the parent restores.
  FuzzOptions Trace = twoBugOptions(20);
  Trace.Survival.Fanout = 2;
  Trace.TraceEnabled = true;
  CampaignEngine TE(Trace, 1);
  TE.loadModule(parseOk(TwoBugCorpus));
  TE.run();
  EXPECT_NE(TE.configError().find("-trace-json"), std::string::npos)
      << TE.configError();
}

TEST_F(SupervisorTest, FanoutProfileMatchesThreaded) {
  // The cost trackers and span folds come back in the shard checkpoints,
  // so -fanout=2 -profile ranks the same queries as -j1.
  FuzzOptions Plain = twoBugOptions(60);
  Plain.Profile.Enabled = true;
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();
  ASSERT_FALSE(Ref.profile().TopQueries.empty());

  FuzzOptions Fan = fanoutOptions(60, 2);
  Fan.Profile.Enabled = true;
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_EQ(deterministicReportPart(Engine),
            deterministicReportPart(Ref));
  // Each child's folds arrive under its worker's root.
  unsigned Roots[2] = {};
  for (const auto &[Stack, Nanos] : Engine.profile().SpanSelfNanos)
    for (unsigned W = 0; W != 2; ++W)
      Roots[W] += Stack.rfind("w" + std::to_string(W) + ";", 0) == 0;
  EXPECT_GT(Roots[0], 0u);
  EXPECT_GT(Roots[1], 0u);
}

TEST_F(SupervisorTest, FanoutChildrenHonorStepBudget) {
  // Each child's loop carries the step budget in its own token, so
  // test-slow is cut off inside the forked children too, and the timeouts
  // come back through the harvested checkpoints exactly as -j1 counts
  // them.
  FuzzOptions Fan = fanoutOptions(4, 2);
  Fan.Passes = "test-slow,dce";
  Fan.Survival.StepBudget = 10000;
  FuzzOptions Plain = Fan;
  Plain.Survival.Fanout = 0;
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();

  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_EQ(S.MutantsGenerated, 4u);
  EXPECT_EQ(S.Timeouts, 4u);
  EXPECT_EQ(Engine.registry().counterValue("survive.timeout.optimize"), 4u);
  EXPECT_EQ(deterministicReportPart(Engine),
            deterministicReportPart(Ref));
}

//===----------------------------------------------------------------------===//
// Feedback under -fanout: the children run the same epoch loop's slices,
// and the parent's barrier merges their harvested coverage.
//===----------------------------------------------------------------------===//

TEST_F(SupervisorTest, FanoutFeedbackMatchesThreadedFeedback) {
  const uint64_t Iterations = 64;
  FuzzOptions Plain = feedbackOptions(Iterations);
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();
  ASSERT_GT(Ref.bugs().size(), 0u);
  const std::string RefReport = deterministicReportPart(Ref);

  CampaignEngine Threads(Plain, 2);
  Threads.loadModule(parseOk(TwoBugCorpus));
  Threads.run();
  ASSERT_TRUE(Threads.configError().empty()) << Threads.configError();
  EXPECT_EQ(deterministicReportPart(Threads), RefReport);

  FuzzOptions Fan = feedbackOptions(Iterations);
  Fan.Survival.Fanout = 2;
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_FALSE(Engine.interrupted());
  EXPECT_EQ(Engine.registry().counterValue("feedback.epochs"), 4u);
  EXPECT_EQ(deterministicReportPart(Engine), RefReport);
  EXPECT_TRUE(Engine.feedback() == Ref.feedback());
  EXPECT_TRUE(Engine.schedule() == Ref.schedule());
}

TEST_F(SupervisorTest, InjectedChildKillUnderFeedbackIsByteStable) {
  // A feedback child never checkpoints mid-epoch, so its restart re-runs
  // the whole slice from the parent's barrier state: the report must not
  // move.
  const uint64_t Iterations = 64;
  FuzzOptions Plain = feedbackOptions(Iterations);
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();

  std::string Err;
  // Call 3 is the first child of the second epoch.
  ASSERT_TRUE(FaultPlane::instance().arm("supervisor.kill:nth:3", Err))
      << Err;
  FuzzOptions Fan = fanoutOptions(Iterations, 2);
  Fan.Feedback = Plain.Feedback;
  CampaignEngine Engine(Fan, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded());
  EXPECT_GE(Engine.registry().counterValue("survive.supervisor.restarts"),
            1u);
  EXPECT_EQ(deterministicReportPart(Engine),
            deterministicReportPart(Ref));
  EXPECT_TRUE(Engine.feedback() == Ref.feedback());
}

TEST_F(SupervisorTest, InterruptedFanoutFeedbackResumeMatchesUninterrupted) {
  const uint64_t Iterations = 64;
  const std::string Dir = scratchDir("fb_resume");
  FuzzOptions Plain = feedbackOptions(Iterations);
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();

  // A stop lands at the next epoch barrier, which is checkpointed.
  FuzzOptions Fan = fanoutOptions(Iterations, 2);
  Fan.Feedback = Plain.Feedback;
  Fan.Survival.CheckpointDir = Dir;
  CampaignEngine Leg1(Fan, 1);
  Leg1.loadModule(parseOk(TwoBugCorpus));
  Leg1.stopAfterIterations(20);
  Leg1.run();
  ASSERT_TRUE(Leg1.configError().empty()) << Leg1.configError();
  ASSERT_TRUE(Leg1.interrupted());
  EXPECT_EQ(Leg1.stats().MutantsGenerated, 32u);

  FuzzOptions ResumeOpts = Fan;
  ResumeOpts.Survival.Resume = true;
  CampaignEngine Leg2(ResumeOpts, 1);
  Leg2.loadModule(parseOk(TwoBugCorpus));
  Leg2.run();
  ASSERT_TRUE(Leg2.configError().empty()) << Leg2.configError();
  EXPECT_FALSE(Leg2.interrupted());
  EXPECT_EQ(deterministicReportPart(Leg2),
            deterministicReportPart(Ref));
  EXPECT_TRUE(Leg2.feedback() == Ref.feedback());
  EXPECT_TRUE(Leg2.schedule() == Ref.schedule());
  std::filesystem::remove_all(Dir);
}

TEST_F(SupervisorTest, LostFeedbackLeaseEndsCampaignResumably) {
  // A lease lost under feedback ends the campaign before that epoch's
  // barrier: degraded with the lost slice counted exactly, interrupted,
  // and resumable to the uninterrupted report.
  const uint64_t Iterations = 64;
  const std::string Dir = scratchDir("fb_lost");
  FuzzOptions Plain = feedbackOptions(Iterations);
  CampaignEngine Ref(Plain, 1);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();

  std::string Err;
  // Kill the first child of the second epoch, with no restart budget.
  ASSERT_TRUE(FaultPlane::instance().arm("supervisor.kill:nth:3", Err))
      << Err;
  FuzzOptions Fan = fanoutOptions(Iterations, 2);
  Fan.Feedback = Plain.Feedback;
  Fan.Survival.CheckpointDir = Dir;
  Fan.Survival.Supervision.RestartBudget = 1;
  CampaignEngine Leg1(Fan, 1);
  Leg1.loadModule(parseOk(TwoBugCorpus));
  Leg1.run();
  ASSERT_TRUE(Leg1.configError().empty()) << Leg1.configError();
  EXPECT_TRUE(Leg1.degraded());
  EXPECT_TRUE(Leg1.interrupted());
  ASSERT_EQ(Leg1.lostShards().size(), 1u);
  EXPECT_EQ(Leg1.lostShards()[0], std::make_pair(0u, uint64_t(8)));
  // Epoch 0 plus shard 1's half of epoch 1.
  EXPECT_EQ(Leg1.stats().MutantsGenerated, 24u);
  EXPECT_EQ(Leg1.registry().counterValue("feedback.epochs"), 1u);

  FaultPlane::instance().reset();
  FuzzOptions ResumeOpts = Fan;
  ResumeOpts.Survival.Resume = true;
  CampaignEngine Leg2(ResumeOpts, 1);
  Leg2.loadModule(parseOk(TwoBugCorpus));
  Leg2.run();
  ASSERT_TRUE(Leg2.configError().empty()) << Leg2.configError();
  EXPECT_FALSE(Leg2.degraded());
  EXPECT_FALSE(Leg2.interrupted());
  EXPECT_EQ(deterministicReportPart(Leg2),
            deterministicReportPart(Ref));
  EXPECT_TRUE(Leg2.feedback() == Ref.feedback());
  std::filesystem::remove_all(Dir);
}

TEST_F(SupervisorTest, FreshFanoutRunIgnoresStaleShardCheckpoints) {
  // Regression: a fresh -fanout campaign pointed at another campaign's
  // checkpoint directory used to adopt that campaign's shards. Without
  // -resume the directory's old contents must not matter.
  const std::string Dir = scratchDir("stale");
  auto RunSeed = [&](uint64_t Seed, const std::string &CkDir) {
    FuzzOptions Opts = fanoutOptions(100, 2);
    Opts.BaseSeed = Seed;
    Opts.Survival.CheckpointDir = CkDir;
    CampaignEngine Engine(Opts, 1);
    Engine.loadModule(parseOk(TwoBugCorpus));
    Engine.run();
    EXPECT_TRUE(Engine.configError().empty()) << Engine.configError();
    return deterministicReportPart(Engine);
  };
  const std::string Seed7 = RunSeed(7, Dir);
  const std::string Clean = RunSeed(9, "");
  ASSERT_NE(Seed7, Clean);
  // The killed first child's restart reads its shard file, which must
  // already be this campaign's.
  std::string Err;
  ASSERT_TRUE(FaultPlane::instance().arm("supervisor.kill:nth:1", Err))
      << Err;
  EXPECT_EQ(RunSeed(9, Dir), Clean);
  std::filesystem::remove_all(Dir);
}

TEST_F(SupervisorTest, FanoutHonoursTheDeadline) {
  // -n next to -t under -fanout: the deadline reaches the children through
  // the supervisor's stop flag, as SIGTERM does, and the cut campaign is
  // resumable rather than degraded.
  FuzzOptions Opts = fanoutOptions(1000000, 2);
  Opts.TimeLimitSeconds = 0.3;
  CampaignEngine Engine(Opts, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Engine.run();
  ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
  EXPECT_FALSE(Engine.degraded()) << Engine.fanoutIncidents();
  EXPECT_GT(S.MutantsGenerated, 0u);
  EXPECT_LT(S.MutantsGenerated, 1000000u);
  EXPECT_TRUE(Engine.interrupted());
}
