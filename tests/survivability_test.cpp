//===- tests/survivability_test.cpp - Campaign survivability tests ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// End-to-end tests for the survivability layer: the iteration watchdog
/// (step budgets), in-process signal containment, checkpoint/resume
/// byte-equality, and the robust corpus loader. Process containment
/// (-fanout) is covered by supervisor_test.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/Checkpoint.h"
#include "core/RunReport.h"
#include "corpus/CorpusLoader.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/Cancellation.h"
#include "support/JSON.h"
#include "support/Timer.h"

#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <sstream>

#include <sys/wait.h>
#include <unistd.h>

using namespace alive;

namespace {

std::unique_ptr<Module> parseOk(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

/// Same corpus the campaign tests fuzz: surfaces PR52884/PR50693 when the
/// matching injected defects are enabled.
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

/// A unique per-test scratch directory, removed on destruction.
struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const std::string &Tag) {
    Path = ::testing::TempDir() + "amr_surv_" + Tag;
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
};

/// Serializes a finished engine's run report and returns the prefix up to
/// the volatile section — the byte-comparable deterministic part.
std::string deterministicReportPart(const CampaignEngine &Engine) {
  std::ostringstream OS;
  writeRunReport(OS, Engine.runReport("survivability_test"));
  std::string R = OS.str();
  size_t Pos = R.find("\"volatile\"");
  EXPECT_NE(Pos, std::string::npos);
  return R.substr(0, Pos);
}

} // namespace

//===----------------------------------------------------------------------===//
// Iteration watchdog: step budgets.
//===----------------------------------------------------------------------===//

TEST(SurvivabilityTest, StepBudgetConvertsSlowPassIntoTimeout) {
  // test-slow spins until the watchdog trips; without one it would burn
  // its full safety cap every iteration. With a budget every iteration
  // must come back as a recorded Timeout outcome, not a hang and not a
  // bug.
  FuzzOptions Opts;
  Opts.Passes = "test-slow,dce";
  Opts.Iterations = 5;
  Opts.BaseSeed = 1;
  Opts.Survival.StepBudget = 10000;
  FuzzerLoop Loop(Opts);
  ASSERT_TRUE(Loop.configError().empty()) << Loop.configError();
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();
  EXPECT_EQ(S.MutantsGenerated, 5u);
  EXPECT_EQ(S.Timeouts, 5u);
  // The pipeline never completed, so nothing was optimized or verified.
  EXPECT_EQ(S.Optimized, 0u);
  EXPECT_EQ(S.Verified, 0u);
  EXPECT_EQ(Loop.bugs().size(), 0u);
  const StatRegistry &R = Loop.registry();
  EXPECT_EQ(R.counterValue("survive.timeout.optimize"), 5u);
}

TEST(SurvivabilityTest, TimeoutWritesForensicsBundle) {
  ScratchDir Dir("timeout_bundles");
  FuzzOptions Opts;
  Opts.Passes = "test-slow,dce";
  Opts.Iterations = 2;
  Opts.Survival.StepBudget = 10000;
  Opts.BugBundleDir = Dir.Path;
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  Loop.run();
  // Timeout bundles count like every other bundle.
  EXPECT_EQ(Loop.stats().BundlesWritten, 2u);
  EXPECT_EQ(Loop.stats().BundleFailures, 0u);
  unsigned Found = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.Path))
    if (E.is_directory())
      ++Found;
  EXPECT_EQ(Found, 2u);
}

TEST(SurvivabilityTest, StepBudgetTimeoutsAreWorkerCountInvariant) {
  // Step budgets are deterministic per seed (the budget is re-armed at
  // iteration start and before each refinement check), so the timeouts,
  // the report and every bundle, timeout bundles included, must not vary
  // with -j. Both runs write into the same directory, emptied in between,
  // so the reports name the same bundle paths.
  ScratchDir Dir("budget_bundles");
  FuzzOptions Opts = twoBugOptions(60);
  Opts.Survival.StepBudget = 20;
  Opts.BugBundleDir = Dir.Path;
  uint64_t Timeouts[2];
  std::string Reports[2];
  std::map<std::string, std::string> Bundles[2];
  unsigned I = 0;
  for (unsigned Jobs : {1u, 4u}) {
    std::filesystem::remove_all(Dir.Path);
    CampaignEngine Engine(Opts, Jobs);
    Engine.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &S = Engine.run();
    ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
    Timeouts[I] = S.Timeouts;
    Reports[I] = deterministicReportPart(Engine);
    for (const auto &E :
         std::filesystem::recursive_directory_iterator(Dir.Path))
      if (E.is_regular_file()) {
        std::ifstream In(E.path());
        std::ostringstream Text;
        Text << In.rdbuf();
        Bundles[I][std::filesystem::relative(E.path(), Dir.Path).string()] =
            Text.str();
      }
    ++I;
  }
  EXPECT_GT(Timeouts[0], 0u);
  EXPECT_EQ(Timeouts[0], Timeouts[1]);
  EXPECT_EQ(Reports[0], Reports[1]);
  unsigned TimeoutManifests = 0;
  for (const auto &[Path, Text] : Bundles[0])
    TimeoutManifests += Path.find("-timeout") != std::string::npos &&
                        Path.ends_with("manifest.json");
  EXPECT_EQ(TimeoutManifests, Timeouts[0]);
  EXPECT_TRUE(Bundles[0] == Bundles[1]);
}

//===----------------------------------------------------------------------===//
// In-process signal containment.
//===----------------------------------------------------------------------===//

TEST(SurvivabilityTest, SignalGuardContainsAbortAsCrashBug) {
  // test-abort raises a genuine SIGABRT on functions named abortme*.
  // With the guard on, each iteration records a crash bug and the loop —
  // and this test process — survives.
  FuzzOptions Opts;
  Opts.Passes = "test-abort,dce";
  Opts.Iterations = 3;
  Opts.Survival.SignalGuard = true;
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(R"(
define i8 @abortme(i8 %x) {
  %r = add i8 %x, 1
  ret i8 %r
}
)"));
  const FuzzStats &S = Loop.run();
  EXPECT_EQ(S.MutantsGenerated, 3u);
  EXPECT_EQ(S.Crashes, 3u);
  ASSERT_EQ(Loop.bugs().size(), 3u);
  for (const BugRecord &B : Loop.bugs()) {
    EXPECT_EQ(B.Kind, BugRecord::Crash);
    EXPECT_NE(B.Detail.find("SIGABRT"), std::string::npos) << B.Detail;
    EXPECT_NE(B.Detail.find("contained"), std::string::npos) << B.Detail;
  }
  EXPECT_EQ(Loop.registry().counterValue("survive.contained-signals"), 3u);
}

//===----------------------------------------------------------------------===//
// Verify-stage step budgets.
//===----------------------------------------------------------------------===//

namespace {

/// A function whose refinement check reliably outspends a small step
/// budget: the load forces the concrete path (no symbolic support) and the
/// 100-instruction chain makes each completed run consume one 64-step
/// interpreter batch.
std::string longChainIR() {
  std::ostringstream IR;
  IR << "define i32 @longchain(ptr %p, i32 %x) {\n"
        "  %v = load i32, ptr %p, align 4\n"
        "  %a0 = add i32 %v, %x\n";
  for (int I = 1; I <= 100; ++I)
    IR << "  %a" << I << " = add i32 %a" << (I - 1) << ", " << I << "\n";
  IR << "  ret i32 %a100\n}\n";
  return IR.str();
}

} // namespace

TEST(SurvivabilityTest, SelfCheckSpendsOneCompletedTrial) {
  // The self-check settles on the first trial where the source completes:
  // one run of @longchain, one 64-step batch. The two-run check of its 64
  // sampled trials needs far more than a 128-step budget. So the function
  // survives the load, and its iteration checks time out.
  const std::string IR = longChainIR();
  auto M = parseOk(IR);
  auto Clone = cloneModule(*M);
  TVOptions TV;
  TV.ConcreteTrials = 64;
  CancellationToken Token;
  TV.Token = &Token;
  Token.beginIteration(128);
  TVResult Self = checkSelfRefinement(*M->getFunction("longchain"), TV);
  EXPECT_EQ(Self.Verdict, TVVerdict::Correct) << Self.Detail;
  Token.beginIteration(128);
  TVResult TwoRun = checkRefinement(*M->getFunction("longchain"),
                                    *Clone->getFunction("longchain"), TV);
  EXPECT_EQ(tvVerdictReason(TwoRun), "inconclusive.cancelled")
      << TwoRun.Detail;

  FuzzOptions Opts;
  Opts.Passes = "dce";
  Opts.Iterations = 40;
  Opts.SkipUnchanged = false; // always reach the verify phase
  Opts.TV.ConcreteTrials = 64;
  Opts.Survival.StepBudget = 128;
  FuzzerLoop Loop(Opts);
  ASSERT_EQ(Loop.loadModule(parseOk(IR)), 1u);
  EXPECT_EQ(Loop.stats().FunctionsDropped, 0u);
  const FuzzStats &S = Loop.run();
  EXPECT_GT(S.Timeouts, 0u);
  const StatRegistry &R = Loop.registry();
  EXPECT_GT(R.counterValue("survive.timeout.verify"), 0u);
}

TEST(SurvivabilityTest, CancelledFallbackKeepsCancellationDetail) {
  // Reassociated products defeat a 1-conflict solver budget, so the check
  // falls back to concrete trials; the 100-add chain makes each run cost
  // a 64-step batch, and a 256-step budget runs out on the second trial.
  // The fallback was cut short, so the verdict must say so rather than
  // claim bounded trials that never ran.
  auto ChainIR = [](const char *Product) {
    std::ostringstream IR;
    IR << "define i16 @f(i16 %x, i16 %y, i16 %z) {\n" << Product
       << "  %a0 = add i16 %m2, %x\n";
    for (int I = 1; I <= 100; ++I)
      IR << "  %a" << I << " = add i16 %a" << (I - 1) << ", " << I << "\n";
    IR << "  ret i16 %a100\n}\n";
    return IR.str();
  };
  auto Src = parseOk(ChainIR("  %m1 = mul i16 %x, %y\n"
                             "  %m2 = mul i16 %m1, %z\n"));
  auto Tgt = parseOk(ChainIR("  %m1 = mul i16 %y, %z\n"
                             "  %m2 = mul i16 %x, %m1\n"));
  TVOptions TV;
  TV.SolverConflictBudget = 1;
  TVResult Budget = checkRefinement(*Src->getFunction("f"),
                                    *Tgt->getFunction("f"), TV);
  ASSERT_EQ(tvVerdictReason(Budget), "inconclusive.budget") << Budget.Detail;

  CancellationToken Token;
  TV.Token = &Token;
  Token.beginIteration(256);
  TVResult Cut = checkRefinement(*Src->getFunction("f"),
                                 *Tgt->getFunction("f"), TV);
  EXPECT_EQ(Cut.Verdict, TVVerdict::Inconclusive);
  EXPECT_EQ(tvVerdictReason(Cut), "inconclusive.cancelled") << Cut.Detail;
  EXPECT_EQ(Cut.Detail.find("no violation"), std::string::npos)
      << Cut.Detail;
}

TEST(SurvivabilityTest, DeadlineCutsRunningQueryShort) {
  // Reassociated i32 products take the solver far longer than the
  // deadline. The deadline cancels the query, stays tripped across the
  // next beginIteration, and only setDeadline(0) clears it.
  auto Product = [](const char *First, const char *Second) {
    return parseOk(std::string("define i32 @f(i32 %x, i32 %y, i32 %z) {\n") +
                   First + Second + "  ret i32 %m2\n}\n");
  };
  auto Src = Product("  %m1 = mul i32 %x, %y\n", "  %m2 = mul i32 %m1, %z\n");
  auto Tgt = Product("  %m1 = mul i32 %y, %z\n", "  %m2 = mul i32 %x, %m1\n");
  CancellationToken Token;
  TVOptions TV;
  TV.Token = &Token;
  Token.beginIteration(0);
  Token.setDeadline(0.1);
  Timer T;
  TVResult Cut = checkRefinement(*Src->getFunction("f"),
                                 *Tgt->getFunction("f"), TV);
  EXPECT_LT(T.seconds(), 5.0);
  EXPECT_TRUE(Token.deadlinePassed());
  EXPECT_EQ(tvVerdictReason(Cut), "inconclusive.cancelled") << Cut.Detail;
  Token.beginIteration(0);
  EXPECT_TRUE(Token.cancelled());
  Token.setDeadline(0);
  Token.beginIteration(0);
  EXPECT_FALSE(Token.cancelled());
  EXPECT_FALSE(Token.deadlinePassed());
}

//===----------------------------------------------------------------------===//
// Checkpoint serialization.
//===----------------------------------------------------------------------===//

TEST(SurvivabilityTest, WorkerCheckpointRoundTripsExactly) {
  ScratchDir Dir("ckpt_roundtrip");
  WorkerCheckpoint W;
  W.Index = 3;
  W.Lo = 100;
  W.Hi = 200;
  W.Next = 157;
  W.Stats.MutantsGenerated = 57;
  W.Stats.Verified = 41;
  W.Stats.Timeouts = 5;
  // Doubles must survive bit-for-bit (they are stored as IEEE-754 bit
  // patterns, not decimal text): pick values with no short decimal form.
  W.Stats.MutateSeconds = 0.1 + 0.2;
  W.Stats.OptimizeSeconds = 1.0 / 3.0;
  W.Stats.VerifySeconds = 2.718281828459045;
  W.Stats.WorkerSeconds = 3.3333333333333335;
  BugRecord B;
  B.Kind = BugRecord::Miscompile;
  B.FunctionName = "weird \"name\"\nwith newline";
  B.MutantSeed = 123456789;
  B.Detail = "counterexample:\n  x = 7";
  B.IssueId = "50693";
  B.MutantIR = "define i8 @f() {\n  ret i8 0\n}\n";
  B.BundlePath = "/tmp/some bundle";
  W.Bugs.push_back(B);
  W.Counters.push_back({"mutation.gep.applied", 12, false});
  W.Counters.push_back({"survive.contained-signals", 3, true});

  std::string Err;
  ASSERT_TRUE(writeWorkerCheckpoint(Dir.Path, W, Err)) << Err;
  WorkerCheckpoint R;
  ASSERT_TRUE(readWorkerCheckpoint(Dir.Path, 3, R, Err)) << Err;
  EXPECT_EQ(R.Lo, W.Lo);
  EXPECT_EQ(R.Hi, W.Hi);
  EXPECT_EQ(R.Next, W.Next);
  EXPECT_EQ(R.Stats.MutantsGenerated, W.Stats.MutantsGenerated);
  EXPECT_EQ(R.Stats.Verified, W.Stats.Verified);
  EXPECT_EQ(R.Stats.Timeouts, W.Stats.Timeouts);
  EXPECT_EQ(R.Stats.MutateSeconds, W.Stats.MutateSeconds);
  EXPECT_EQ(R.Stats.OptimizeSeconds, W.Stats.OptimizeSeconds);
  EXPECT_EQ(R.Stats.VerifySeconds, W.Stats.VerifySeconds);
  EXPECT_EQ(R.Stats.WorkerSeconds, W.Stats.WorkerSeconds);
  ASSERT_EQ(R.Bugs.size(), 1u);
  EXPECT_EQ(R.Bugs[0].Kind, B.Kind);
  EXPECT_EQ(R.Bugs[0].FunctionName, B.FunctionName);
  EXPECT_EQ(R.Bugs[0].MutantSeed, B.MutantSeed);
  EXPECT_EQ(R.Bugs[0].Detail, B.Detail);
  EXPECT_EQ(R.Bugs[0].IssueId, B.IssueId);
  EXPECT_EQ(R.Bugs[0].MutantIR, B.MutantIR);
  EXPECT_EQ(R.Bugs[0].BundlePath, B.BundlePath);
  ASSERT_EQ(R.Counters.size(), 2u);
  EXPECT_EQ(R.Counters[0].Name, "mutation.gep.applied");
  EXPECT_EQ(R.Counters[0].Value, 12u);
  EXPECT_FALSE(R.Counters[0].IsVolatile);
  EXPECT_EQ(R.Counters[1].Name, "survive.contained-signals");
  EXPECT_TRUE(R.Counters[1].IsVolatile);
}

TEST(SurvivabilityTest, CampaignConfigRoundTripsAndPinsResume) {
  // One record is the bundle manifest's config and the heart of
  // meta.json. With every setting off its default, each key must survive
  // write -> read -> write unchanged.
  FuzzOptions O;
  O.Passes = "instcombine,dce";
  O.Iterations = 1000;
  O.BaseSeed = 7;
  O.Mutation.MaxMutationsPerFunction = 5;
  O.Mutation.ValueSource = {3, 9, false};
  O.Mutation.EnabledKinds = {MutationKind::Inline, MutationKind::RemoveCall};
  O.TV = {1234, 7, 9, 99, 42};
  O.SkipUnchanged = false;
  O.Survival.StepBudget = 50;
  O.Bugs.enable(BugId::PR52884);
  O.Feedback = {true, 32};
  O.UseSharedTVCache = true;
  const std::vector<ConfigField> Record = campaignConfig(O);
  const std::vector<ConfigField> Defaults = campaignConfig(FuzzOptions());
  ASSERT_EQ(Record.size(), Defaults.size());
  for (size_t I = 0; I != Record.size(); ++I)
    EXPECT_NE(Record[I].second, Defaults[I].second) << Record[I].first;
  std::ostringstream OS;
  writeConfigObject(OS, Record, "  ");
  JSONValue J;
  std::string Err;
  ASSERT_TRUE(parseJSON(OS.str(), J, Err)) << Err;
  FuzzOptions Read;
  readCampaignConfig(J, Read);
  EXPECT_EQ(campaignConfig(Read), Record);
  // A missing key reads as its default, so an older record still reads.
  JSONValue None;
  ASSERT_TRUE(parseJSON("{}", None, Err)) << Err;
  FuzzOptions Empty;
  readCampaignConfig(None, Empty);
  EXPECT_EQ(campaignConfig(Empty), Defaults);

  // Resume pins the record: flipping any one setting fails, naming it.
  ScratchDir Dir("ckpt_identity");
  const auto Mod = parseOk("define void @f() {\n  ret void\n}\n");
  const auto Other = parseOk("define void @g() {\n  ret void\n}\n");
  ASSERT_TRUE(pinCheckpointIdentity(Dir.Path, O, 4, *Mod, Err)) << Err;
  FuzzOptions Resume = O;
  Resume.Survival.Resume = true;
  EXPECT_TRUE(pinCheckpointIdentity(Dir.Path, Resume, 4, *Mod, Err)) << Err;
  struct Flip {
    std::function<void(FuzzOptions &)> Apply;
    std::string Message;
  };
  const std::vector<Flip> Flips = {
      {[](FuzzOptions &F) { F.Passes = "O2"; },
       "pass pipeline was 'instcombine,dce', resuming with 'O2'"},
      {[](FuzzOptions &F) { F.Mutation.MaxMutationsPerFunction = 3; },
       "-max-mutations was 5, resuming with 3"},
      {[](FuzzOptions &F) { F.Mutation.ValueSource.PoisonPercent = 4; },
       "config key 'value_source' was"},
      {[](FuzzOptions &F) { F.Mutation.EnabledKinds.pop_back(); },
       "config key 'enabled_kinds' was"},
      {[](FuzzOptions &F) { F.TV.Fuel = 1; }, "config key 'tv' was"},
      {[](FuzzOptions &F) { F.SkipUnchanged = true; },
       "-no-skip-unchanged was on, resuming with off"},
      {[](FuzzOptions &F) { F.Survival.StepBudget = 0; },
       "-step-budget was 50, resuming with 0"},
      {[](FuzzOptions &F) { F.Bugs.enable(BugId::PR50693); },
       "-inject-bugs was [\"52884\"], resuming with ["},
      {[](FuzzOptions &F) { F.Feedback.Enabled = false; },
       "-feedback was on, resuming with off"},
      {[](FuzzOptions &F) { F.Feedback.EpochLength = 64; },
       "-feedback-epoch was 32, resuming with 64"},
      {[](FuzzOptions &F) { F.UseSharedTVCache = false; },
       "-shared-tv-cache was on, resuming with off"},
      {[](FuzzOptions &F) { F.TVCacheSize = 0; },
       "-shared-tv-cache was on, resuming with off"},
      {[](FuzzOptions &F) { F.Iterations = 500; },
       "-n was 1000, resuming with 500"},
      {[](FuzzOptions &F) { F.BaseSeed = 8; },
       "-seed was 7, resuming with 8"},
  };
  std::set<std::string> Named;
  for (const Flip &F : Flips) {
    FuzzOptions Wrong = Resume;
    F.Apply(Wrong);
    EXPECT_FALSE(pinCheckpointIdentity(Dir.Path, Wrong, 4, *Mod, Err))
        << F.Message;
    EXPECT_EQ(Err.rfind("checkpoint mismatch: " + F.Message, 0), 0u) << Err;
    std::vector<ConfigField> Flipped = campaignConfig(Wrong);
    for (size_t I = 0; I != Record.size(); ++I)
      if (Flipped[I] != Record[I])
        Named.insert(Record[I].first);
  }
  for (const ConfigField &F : Record)
    EXPECT_TRUE(Named.count(F.first)) << "no flip covers " << F.first;
  EXPECT_FALSE(pinCheckpointIdentity(Dir.Path, Resume, 2, *Mod, Err));
  EXPECT_EQ(Err, "checkpoint mismatch: -j was 4, resuming with 2");
  EXPECT_FALSE(pinCheckpointIdentity(Dir.Path, Resume, 4, *Other, Err));
  EXPECT_EQ(Err, "checkpoint mismatch: the input module was a different "
                 "module, resuming with this one (content hash differs)");

  // A default campaign resumed under a step budget, in the words the
  // operator sees.
  ScratchDir Plain("ckpt_identity_plain");
  FuzzOptions P;
  ASSERT_TRUE(pinCheckpointIdentity(Plain.Path, P, 1, *Mod, Err)) << Err;
  P.Survival.Resume = true;
  P.Survival.StepBudget = 50;
  EXPECT_FALSE(pinCheckpointIdentity(Plain.Path, P, 1, *Mod, Err));
  EXPECT_EQ(Err, "checkpoint mismatch: -step-budget was 0, resuming with 50");

  // Another schema version and a missing directory are errors, not
  // crashes.
  std::string Meta = Plain.Path + "/meta.json";
  std::ifstream In(Meta);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  In.close();
  Text.replace(Text.find("\"schema_version\": 5"), 19,
               "\"schema_version\": 4");
  std::ofstream(Meta) << Text;
  P.Survival.StepBudget = 0;
  EXPECT_FALSE(pinCheckpointIdentity(Plain.Path, P, 1, *Mod, Err));
  EXPECT_EQ(Err, "unsupported checkpoint schema version 4");
  EXPECT_FALSE(pinCheckpointIdentity(Plain.Path + "/nope", P, 1, *Mod, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(SurvivabilityTest, TruncatedCheckpointErrorNamesFileAndByteCount) {
  // A torn or partial shard file must produce an error naming the exact
  // file and its byte count — the operator needs to know which artifact
  // to discard, not just that "resume failed".
  ScratchDir Dir("ckpt_truncated");
  WorkerCheckpoint W;
  W.Index = 0;
  W.Lo = 0;
  W.Hi = 50;
  W.Next = 25;
  W.Stats.MutantsGenerated = 25;
  std::string Err;
  ASSERT_TRUE(writeWorkerCheckpoint(Dir.Path, W, Err)) << Err;

  // Truncate mid-file: drop the second half of the JSON.
  std::string Shard = Dir.Path + "/shard-0.json";
  std::string Full;
  {
    std::ifstream In(Shard, std::ios::binary);
    Full.assign(std::istreambuf_iterator<char>(In),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(Full.size(), 10u);
  size_t Cut = Full.size() / 2;
  {
    std::ofstream Out(Shard, std::ios::binary | std::ios::trunc);
    Out.write(Full.data(), (std::streamsize)Cut);
  }

  WorkerCheckpoint R;
  Err.clear();
  EXPECT_FALSE(readWorkerCheckpoint(Dir.Path, 0, R, Err));
  EXPECT_NE(Err.find("truncated checkpoint"), std::string::npos) << Err;
  EXPECT_NE(Err.find(Shard), std::string::npos) << Err;
  EXPECT_NE(Err.find(std::to_string(Cut) + " bytes"), std::string::npos)
      << Err;

  // Garbage (not a prefix of valid JSON) is reported as corruption, with
  // the same file-and-size identification.
  {
    std::ofstream Out(Shard, std::ios::binary | std::ios::trunc);
    Out << "{\"index\": 0, ]]garbage[[";
  }
  Err.clear();
  EXPECT_FALSE(readWorkerCheckpoint(Dir.Path, 0, R, Err));
  EXPECT_NE(Err.find("corrupt checkpoint"), std::string::npos) << Err;
  EXPECT_NE(Err.find(Shard), std::string::npos) << Err;
}

TEST(SurvivabilityTest, ResumeFailsCleanlyOnTruncatedCheckpoint) {
  // The regression the atomic writer exists to prevent, exercised from
  // the resume path: a mid-file-truncated shard checkpoint must fail the
  // -resume with a config error naming the damage — never parse as
  // half a campaign.
  ScratchDir Dir("ckpt_resume_truncated");
  FuzzOptions Opts = twoBugOptions(50);
  Opts.Survival.CheckpointDir = Dir.Path;
  Opts.Survival.CheckpointInterval = 8;
  CampaignEngine First(Opts, 1);
  First.loadModule(parseOk(TwoBugCorpus));
  First.stopAfterIterations(20);
  First.run();
  ASSERT_TRUE(First.configError().empty()) << First.configError();
  ASSERT_TRUE(First.interrupted());

  std::string Shard = Dir.Path + "/shard-0.json";
  ASSERT_TRUE(std::filesystem::exists(Shard));
  std::string Full;
  {
    std::ifstream In(Shard, std::ios::binary);
    Full.assign(std::istreambuf_iterator<char>(In),
                std::istreambuf_iterator<char>());
  }
  {
    std::ofstream Out(Shard, std::ios::binary | std::ios::trunc);
    Out.write(Full.data(), (std::streamsize)(Full.size() / 2));
  }

  FuzzOptions ResumeOpts = Opts;
  ResumeOpts.Survival.Resume = true;
  CampaignEngine Engine(ResumeOpts, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  EXPECT_NE(Engine.configError().find("cannot resume"), std::string::npos)
      << Engine.configError();
  EXPECT_NE(Engine.configError().find("truncated checkpoint"),
            std::string::npos)
      << Engine.configError();
}

TEST(SurvivabilityTest, KilledCheckpointWriteLeavesOldOrNewNeverTorn) {
  // A SIGTERM/SIGKILL landing mid-checkpoint-write must leave either the
  // previous snapshot or the new one under shard-<i>.json, byte-exact —
  // never a torn hybrid. The child below rewrites the same shard file in
  // a tight loop, alternating between two known states, until the parent
  // kills it at an arbitrary moment.
  ScratchDir Dir("ckpt_torn_kill");
  ScratchDir RefDir("ckpt_torn_ref");
  WorkerCheckpoint A;
  A.Index = 0;
  A.Lo = 0;
  A.Hi = 1000;
  A.Next = 100;
  BugRecord Pad;
  Pad.Kind = BugRecord::Miscompile;
  Pad.FunctionName = "padder";
  // A large record keeps each write multiple pages long, widening the
  // window a torn write would need to survive in.
  Pad.MutantIR = std::string(64 * 1024, 'x');
  A.Bugs.push_back(Pad);
  WorkerCheckpoint B = A;
  B.Next = 200;

  // Reference bytes for both states, from an undisturbed writer.
  std::string Err;
  ASSERT_TRUE(writeWorkerCheckpoint(RefDir.Path, A, Err)) << Err;
  std::string BytesA = [&] {
    std::ifstream In(RefDir.Path + "/shard-0.json", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  }();
  ASSERT_TRUE(writeWorkerCheckpoint(RefDir.Path, B, Err)) << Err;
  std::string BytesB = [&] {
    std::ifstream In(RefDir.Path + "/shard-0.json", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  }();
  ASSERT_NE(BytesA, BytesB);

  ASSERT_TRUE(writeWorkerCheckpoint(Dir.Path, A, Err)) << Err;
  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    std::string E;
    for (;;) {
      writeWorkerCheckpoint(Dir.Path, B, E);
      writeWorkerCheckpoint(Dir.Path, A, E);
    }
  }
  usleep(50 * 1000);
  kill(Child, SIGKILL);
  int Status = 0;
  waitpid(Child, &Status, 0);

  std::string Bytes = [&] {
    std::ifstream In(Dir.Path + "/shard-0.json", std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  }();
  EXPECT_TRUE(Bytes == BytesA || Bytes == BytesB)
      << "torn checkpoint: " << Bytes.size() << " bytes (want "
      << BytesA.size() << " or " << BytesB.size() << ")";
  // And it still parses as a complete snapshot.
  WorkerCheckpoint R;
  EXPECT_TRUE(readWorkerCheckpoint(Dir.Path, 0, R, Err)) << Err;
  EXPECT_TRUE(R.Next == A.Next || R.Next == B.Next);
}

//===----------------------------------------------------------------------===//
// Checkpoint/resume: the tentpole byte-equality guarantee.
//===----------------------------------------------------------------------===//

TEST(SurvivabilityTest, ResumedCampaignMatchesUninterruptedByteForByte) {
  const uint64_t Iterations = 200;
  ScratchDir Dir("ckpt_resume");

  // Reference: one uninterrupted, checkpoint-free run.
  FuzzOptions Plain = twoBugOptions(Iterations);
  CampaignEngine Ref(Plain, 2);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();
  ASSERT_GT(Ref.bugs().size(), 0u);
  std::string RefReport = deterministicReportPart(Ref);

  // Leg 1: same campaign, checkpointing, killed mid-flight (the test hook
  // stops at an iteration boundary exactly like a SIGTERM handler would).
  FuzzOptions Opts = twoBugOptions(Iterations);
  Opts.Survival.CheckpointDir = Dir.Path;
  Opts.Survival.CheckpointInterval = 8;
  CampaignEngine Leg1(Opts, 2);
  Leg1.loadModule(parseOk(TwoBugCorpus));
  Leg1.stopAfterIterations(60);
  Leg1.run();
  ASSERT_TRUE(Leg1.configError().empty()) << Leg1.configError();
  ASSERT_TRUE(Leg1.interrupted());
  ASSERT_LT(Leg1.stats().MutantsGenerated, Iterations);

  // Leg 2: resume from the checkpoint and run to completion.
  FuzzOptions ResumeOpts = Opts;
  ResumeOpts.Survival.Resume = true;
  CampaignEngine Leg2(ResumeOpts, 2);
  Leg2.loadModule(parseOk(TwoBugCorpus));
  Leg2.run();
  ASSERT_TRUE(Leg2.configError().empty()) << Leg2.configError();
  EXPECT_FALSE(Leg2.interrupted());
  EXPECT_EQ(Leg2.stats().MutantsGenerated, Iterations);

  // The acceptance criterion: the resumed run's deterministic report
  // section is byte-identical to the uninterrupted run's.
  EXPECT_EQ(deterministicReportPart(Leg2), RefReport);
}

TEST(SurvivabilityTest, ResumeRefusesMismatchedConfig) {
  ScratchDir Dir("ckpt_refuse");
  FuzzOptions Opts = twoBugOptions(50);
  Opts.Survival.CheckpointDir = Dir.Path;
  CampaignEngine First(Opts, 1);
  First.loadModule(parseOk(TwoBugCorpus));
  First.stopAfterIterations(10);
  First.run();
  ASSERT_TRUE(First.configError().empty()) << First.configError();

  // Resuming with a different seed must be rejected with a message that
  // names the conflicting flag and both values.
  FuzzOptions Conflict = Opts;
  Conflict.Survival.Resume = true;
  Conflict.BaseSeed = 99;
  CampaignEngine Engine(Conflict, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  EXPECT_NE(Engine.configError().find("cannot resume"), std::string::npos)
      << Engine.configError();
  EXPECT_NE(Engine.configError().find("-seed"), std::string::npos)
      << Engine.configError();

  // Resuming without any checkpoint directory is a config error too.
  FuzzOptions NoDir = twoBugOptions(50);
  NoDir.Survival.Resume = true;
  CampaignEngine NoDirEngine(NoDir, 1);
  NoDirEngine.loadModule(parseOk(TwoBugCorpus));
  NoDirEngine.run();
  EXPECT_FALSE(NoDirEngine.configError().empty());
}

TEST(SurvivabilityTest, TimeLimitedCampaignCheckpointsAndResumes) {
  // A campaign without -n runs the same static partition as any other, so
  // its shards record a reproducible position; -resume continues from it
  // with a fresh budget.
  ScratchDir Dir("ckpt_timelimited");
  FuzzOptions Opts = twoBugOptions(0);
  Opts.TimeLimitSeconds = 0.2;
  Opts.Survival.CheckpointDir = Dir.Path;
  uint64_t First = 0;
  {
    CampaignEngine Engine(Opts, 2);
    Engine.loadModule(parseOk(TwoBugCorpus));
    First = Engine.run().MutantsGenerated;
    ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
    EXPECT_GT(First, 0u);
    // Reaching the deadline is how a campaign without -n finishes.
    EXPECT_FALSE(Engine.interrupted());
  }
  Opts.Survival.Resume = true;
  Opts.TimeLimitSeconds = 0.5;
  CampaignEngine Resumed(Opts, 2);
  Resumed.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Resumed.run();
  ASSERT_TRUE(Resumed.configError().empty()) << Resumed.configError();
  EXPECT_GT(S.MutantsGenerated, First);
  for (size_t I = 1; I < Resumed.bugs().size(); ++I)
    EXPECT_LE(Resumed.bugs()[I - 1].MutantSeed, Resumed.bugs()[I].MutantSeed);
}

//===----------------------------------------------------------------------===//
// Robust corpus loading.
//===----------------------------------------------------------------------===//

TEST(SurvivabilityTest, CorpusLoaderSkipsBrokenFilesAndMerges) {
  ScratchDir Dir("corpus");
  auto WriteFile = [&](const std::string &Name, const std::string &Text) {
    std::ofstream Out(Dir.Path + "/" + Name);
    Out << Text;
  };
  WriteFile("good1.ll", "define i8 @f(i8 %x) {\n  %r = add i8 %x, 1\n"
                        "  ret i8 %r\n}\n");
  WriteFile("empty.ll", "  \n\t\n");
  WriteFile("garbage.ll", "this is not IR at all {{{");
  WriteFile("good2.ll", "define i8 @f(i8 %x) {\n  %r = mul i8 %x, 3\n"
                        "  ret i8 %r\n}\n\n"
                        "define i8 @g(i8 %x) {\n  ret i8 %x\n}\n");

  CorpusLoadResult R = loadCorpus({Dir.Path + "/good1.ll",
                                   Dir.Path + "/empty.ll",
                                   Dir.Path + "/garbage.ll",
                                   Dir.Path + "/good2.ll",
                                   Dir.Path + "/missing.ll"});
  ASSERT_NE(R.M, nullptr);
  EXPECT_EQ(R.FilesLoaded, 2u);
  EXPECT_EQ(R.FilesSkipped, 3u);
  EXPECT_EQ(R.Renamed, 1u);
  EXPECT_EQ(R.Warnings.size(), 3u);
  // Argument order is preserved; the later @f gets the ".2" suffix.
  EXPECT_NE(R.M->getFunction("f"), nullptr);
  EXPECT_NE(R.M->getFunction("f.2"), nullptr);
  EXPECT_NE(R.M->getFunction("g"), nullptr);

  // All-broken input: no module, but no abort either.
  CorpusLoadResult Bad = loadCorpus({Dir.Path + "/empty.ll"});
  EXPECT_EQ(Bad.M, nullptr);
  EXPECT_EQ(Bad.FilesSkipped, 1u);

  // A single good file is passed through unmerged (no clone, no rename).
  CorpusLoadResult One = loadCorpus({Dir.Path + "/good2.ll"});
  ASSERT_NE(One.M, nullptr);
  EXPECT_EQ(One.FilesLoaded, 1u);
  EXPECT_EQ(One.Renamed, 0u);
}

TEST(SurvivabilityTest, MergedCorpusCampaignIsDeterministic) {
  // The merged module behaves like any other module: a 2-file corpus
  // campaign is -j invariant.
  ScratchDir Dir("corpus_campaign");
  {
    std::ofstream A(Dir.Path + "/a.ll");
    A << "define i8 @smax_offset(i8 %x) {\n"
         "  %1 = add nuw i8 50, %x\n"
         "  %m = call i8 @llvm.smax.i8(i8 %1, i8 -124)\n"
         "  ret i8 %m\n}\n";
    std::ofstream B(Dir.Path + "/b.ll");
    B << "define i8 @opposite_shifts(i8 %x) {\n"
         "  %a = shl i8 -2, %x\n"
         "  %b = lshr i8 %a, %x\n"
         "  ret i8 %b\n}\n";
  }
  std::string Reports[2];
  unsigned I = 0;
  for (unsigned Jobs : {1u, 3u}) {
    CorpusLoadResult C =
        loadCorpus({Dir.Path + "/a.ll", Dir.Path + "/b.ll"});
    ASSERT_NE(C.M, nullptr);
    FuzzOptions Opts = twoBugOptions(80);
    CampaignEngine Engine(Opts, Jobs);
    Engine.loadModule(std::move(C.M));
    Engine.run();
    ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
    Reports[I++] = deterministicReportPart(Engine);
  }
  EXPECT_EQ(Reports[0], Reports[1]);
}
