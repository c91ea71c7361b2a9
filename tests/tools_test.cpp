//===- tests/tools_test.cpp - CLI tool integration tests --------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Drives the built command-line tools end to end, including the full
/// discrete pipeline (mutate -> opt -> tv through real files), the paper's
/// §III-E save/replay workflow, and crash exit codes.
///
//===----------------------------------------------------------------------===//

#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "support/JSON.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <vector>

using namespace alive;

namespace {

/// Tools live next to the test binary's sibling directory.
std::string tool(const std::string &Name) {
  return "../src/tools/" + Name;
}

int runCmd(const std::string &Cmd) {
  int St = std::system((Cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
}

std::string TmpDir;

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  ASSERT_TRUE(Out.good());
  Out << Text;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

class ToolsTest : public ::testing::Test {
protected:
  void SetUp() override {
    TmpDir = ::testing::TempDir() + "amr_tools";
    ASSERT_EQ(runCmd("mkdir -p " + TmpDir), 0);
    writeFile(TmpDir + "/in.ll", R"(
declare void @clobber(ptr)

define i32 @test9(ptr %p, ptr %q) {
  %a = load i32, ptr %q, align 4
  call void @clobber(ptr %p)
  %b = load i32, ptr %q, align 4
  %c = sub i32 %a, %b
  ret i32 %c
}
)");
  }
};

} // namespace

TEST_F(ToolsTest, AliveMutateRunsClean) {
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=30 " + TmpDir + "/in.ll"), 0);
}

TEST_F(ToolsTest, AliveMutateFindsInjectedBugs) {
  // Exit code 2 signals discovered bugs.
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=200 -inject-bugs -seed=7 " +
                   TmpDir + "/in.ll"),
            2);
}

TEST_F(ToolsTest, AliveMutateRejectsInvalidPipeline) {
  // Exit code 1, in every build mode — the old assert-only validation
  // let an NDEBUG build silently fuzz an empty pipeline.
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=30 -passes=no-such-pass " +
                   TmpDir + "/in.ll"),
            1);
}

TEST_F(ToolsTest, AliveMutateRejectsUnboundedCampaign) {
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=0 " + TmpDir + "/in.ll"), 1);
}

TEST_F(ToolsTest, AliveMutateParallelFindsInjectedBugs) {
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=200 -j=4 -inject-bugs "
                                          "-seed=7 " +
                   TmpDir + "/in.ll"),
            2);
}

TEST_F(ToolsTest, AliveMutateParallelReportMatchesSequential) {
  // The -j 4 stats + bug report is byte-identical to -j 1 apart from the
  // wall-clock and worker-count lines.
  std::string Base =
      " -n=200 -inject-bugs -seed=7 -report " + TmpDir + "/in.ll";
  ASSERT_EQ(runCmd("(" + tool("alive-mutate") + " -j=1" + Base + " > " +
                   TmpDir + "/seq.txt)"),
            2);
  ASSERT_EQ(runCmd("(" + tool("alive-mutate") + " -j=4" + Base + " > " +
                   TmpDir + "/par.txt)"),
            2);
  auto Strip = [](const std::string &Text) {
    std::stringstream In(Text), Out;
    std::string Line;
    while (std::getline(In, Line))
      if (Line.find("time:") == std::string::npos &&
          Line.find("worker(s)") == std::string::npos &&
          // Hit/miss splits depend on each worker's private cache history.
          Line.find("tv-cache:") == std::string::npos)
        Out << Line << '\n';
    return Out.str();
  };
  std::string Seq = Strip(readFile(TmpDir + "/seq.txt"));
  std::string Par = Strip(readFile(TmpDir + "/par.txt"));
  EXPECT_FALSE(Seq.empty());
  EXPECT_EQ(Seq, Par);
}

TEST_F(ToolsTest, DiscretePipelineRoundTrips) {
  std::string In = TmpDir + "/in.ll";
  std::string Mut = TmpDir + "/mutant.ll";
  std::string Opt = TmpDir + "/opt.ll";
  ASSERT_EQ(runCmd(tool("amut-mutate") + " -seed=5 " + In + " " + Mut), 0);
  // The mutant file parses and differs from the input.
  std::string Err;
  auto M = parseModuleFile(Mut, Err);
  ASSERT_NE(M, nullptr) << Err;
  ASSERT_EQ(runCmd(tool("amut-opt") + " -passes=O2 " + Mut + " " + Opt), 0);
  auto O = parseModuleFile(Opt, Err);
  ASSERT_NE(O, nullptr) << Err;
  // The optimized mutant refines the mutant.
  EXPECT_EQ(runCmd(tool("amut-tv") + " " + Mut + " " + Opt), 0);
}

TEST_F(ToolsTest, MutantRegenerationIsStableAcrossProcesses) {
  // §III-E: the same seed regenerates the same mutant, even in separate
  // tool invocations.
  std::string In = TmpDir + "/in.ll";
  std::string A = TmpDir + "/a.ll", B = TmpDir + "/b.ll";
  ASSERT_EQ(runCmd(tool("amut-mutate") + " -seed=99 " + In + " " + A), 0);
  ASSERT_EQ(runCmd(tool("amut-mutate") + " -seed=99 " + In + " " + B), 0);
  EXPECT_EQ(readFile(A), readFile(B));
  ASSERT_EQ(runCmd(tool("amut-mutate") + " -seed=100 " + In + " " + B), 0);
  EXPECT_NE(readFile(A), readFile(B));
}

TEST_F(ToolsTest, AmutTvDetectsMiscompile) {
  writeFile(TmpDir + "/src.ll", "define i32 @f(i32 %x) {\n"
                                "  %a = add i32 %x, 1\n  ret i32 %a\n}\n");
  writeFile(TmpDir + "/tgt.ll", "define i32 @f(i32 %x) {\n"
                                "  %a = add i32 %x, 2\n  ret i32 %a\n}\n");
  EXPECT_EQ(runCmd(tool("amut-tv") + " " + TmpDir + "/src.ll " + TmpDir +
                   "/tgt.ll"),
            2);
}

TEST_F(ToolsTest, AmutOptCrashExitCode) {
  // A direct trigger for seeded crash 64687 through the standalone opt
  // tool: non-power-of-two alignment + -inject-bugs => SIGABRT-style 134.
  writeFile(TmpDir + "/crash.ll",
            "define i8 @f(ptr dereferenceable(246) %p) {\n"
            "  %v = load i8, ptr %p, align 123\n  ret i8 %v\n}\n");
  EXPECT_EQ(runCmd(tool("amut-opt") + " -passes=infer-alignment "
                                      "-inject-bugs " +
                   TmpDir + "/crash.ll " + TmpDir + "/out.ll"),
            134);
  // Without injection the same input is fine.
  EXPECT_EQ(runCmd(tool("amut-opt") + " -passes=infer-alignment " + TmpDir +
                   "/crash.ll " + TmpDir + "/out.ll"),
            0);
}

TEST_F(ToolsTest, SaveDirWorkflow) {
  std::string Dir = TmpDir + "/mutants";
  ASSERT_EQ(runCmd("mkdir -p " + Dir + " && rm -f " + Dir + "/*.ll"), 0);
  ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=3 -saveAll -save-dir=" + Dir +
                   " " + TmpDir + "/in.ll"),
            0);
  std::string Err;
  for (int Seed = 1; Seed <= 3; ++Seed)
    EXPECT_NE(parseModuleFile(Dir + "/mutant-" + std::to_string(Seed) +
                                  ".ll",
                              Err),
              nullptr)
        << Err;
}

TEST_F(ToolsTest, AliveMutateRejectsIncoherentFlagCombos) {
  // Each combo must die with a config error (exit 1) before any work. The
  // retired -isolate flag is now an unknown flag, rejected like any other.
  std::string In = " " + TmpDir + "/in.ll";
  // -replay re-runs one bundle with the configuration it recorded, so any
  // other flag is refused by name rather than ignored.
  std::string ReplayErr = TmpDir + "/replay_combo.err";
  for (std::string Flag : {"-j=4", "-resume", "-isolate", "-fanout=2",
                           "-step-budget=1", "-n=3"}) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -replay=" + TmpDir + " " +
                     Flag + " 2> " + ReplayErr + ")"),
              1)
        << Flag;
    std::string Name = Flag.substr(0, Flag.find('='));
    std::string Why = Name == "-isolate" ? "unknown flag " + Name
                                         : "cannot be combined with " + Name;
    EXPECT_NE(readFile(ReplayErr).find(Why), std::string::npos)
        << Flag << ": " << readFile(ReplayErr);
  }
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -resume" + In), 1);
  // The flight recorder lives in child memory: -fanout refuses it by name.
  std::string TraceErr = TmpDir + "/fanout_trace.err";
  EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 -fanout=2 -trace-json=" +
                   TmpDir + "/t.json" + In + " 2> " + TraceErr + ")"),
            1);
  EXPECT_NE(readFile(TraceErr).find("-trace-json"), std::string::npos)
      << readFile(TraceErr);
  // -resume with a conflicting -seed is refused by the checkpoint meta.
  std::string Ckpt = TmpDir + "/ckpt_conflict";
  ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=5 -seed=1 -checkpoint=" +
                   Ckpt + In),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -seed=2 -checkpoint=" +
                   Ckpt + " -resume" + In),
            1);
  // So is one with a different step budget or skip rule: it would merge
  // two configurations' timeouts and verdicts into one report.
  std::string ResumeErr = TmpDir + "/resume_conflict.err";
  for (std::string Flag : {"-step-budget=50", "-no-skip-unchanged"}) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") +
                     " -n=5 -seed=1 -checkpoint=" + Ckpt + " -resume " +
                     Flag + In + " 2> " + ResumeErr + ")"),
              1)
        << Flag;
    std::string Name = Flag.substr(0, Flag.find('='));
    EXPECT_NE(readFile(ResumeErr).find("checkpoint mismatch: " + Name),
              std::string::npos)
        << Flag << ": " << readFile(ResumeErr);
  }
}

TEST_F(ToolsTest, AliveMutateTimeLimitAndFeedbackCoherence) {
  std::string In = " " + TmpDir + "/in.ll";
  // -t is a deadline every campaign honours: a campaign without -n
  // checkpoints, resumes with a fresh budget and runs -feedback.
  std::string Ck = TmpDir + "/ck_t";
  ASSERT_EQ(runCmd("rm -rf " + Ck), 0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=0.3 -checkpoint=" + Ck + In),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=0.3 -resume -checkpoint=" +
                   Ck + In),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=0.3 -feedback" + In), 0);
  // -fanout alone still needs -n: a lost lease is counted against the rest
  // of its slice, and without -n a slice has no end.
  std::string Err = TmpDir + "/t_fanout.err";
  EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -t=1 -fanout=2" + In +
                   " 2> " + Err + ")"),
            1);
  EXPECT_NE(readFile(Err).find("-n=<count>"), std::string::npos)
      << readFile(Err);
  // Feedback's epoch barrier excludes bundle trails, and -distill is
  // meaningless without the coverage a feedback run collects; each
  // refusal names the flag at fault. -fanout children run the same
  // epochs, so feedback crosses the process boundary.
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -feedback -fanout=2" + In),
            0);
  std::string BundleErr = TmpDir + "/fb_bundles.err";
  EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 -feedback -bug-bundles=" +
                   TmpDir + "/bb" + In + " 2> " + BundleErr + ")"),
            1);
  EXPECT_NE(readFile(BundleErr).find("-bug-bundles"), std::string::npos)
      << readFile(BundleErr);
  std::string DistillErr = TmpDir + "/distill.err";
  EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 -distill" + In +
                   " 2> " + DistillErr + ")"),
            1);
  EXPECT_NE(readFile(DistillErr).find("-feedback"), std::string::npos)
      << readFile(DistillErr);
  // The coherent spellings run clean.
  EXPECT_EQ(runCmd(tool("alive-mutate") +
                   " -n=8 -feedback -feedback-epoch=4 -distill" + In),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=8 -feedback=off" + In), 0);
}

TEST_F(ToolsTest, AliveMutateFanoutResumeNeedsEveryShard) {
  // Regression: -fanout -resume with a shard file missing used to exit 0
  // and silently re-run that lease from scratch. It is the thread path's
  // config error now: resume needs every shard.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Ckpt = TmpDir + "/ckpt_missing_shard";
  std::string Err = TmpDir + "/missing_shard.err";
  ASSERT_EQ(runCmd("rm -rf " + Ckpt), 0);
  ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=20 -fanout=2 -checkpoint=" +
                   Ckpt + In),
            0);
  ASSERT_EQ(runCmd("rm " + Ckpt + "/shard-1.json"), 0);
  EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=20 -fanout=2 -resume" +
                   " -checkpoint=" + Ckpt + In + " 2> " + Err + ")"),
            1);
  EXPECT_NE(readFile(Err).find("cannot resume: cannot read '" + Ckpt +
                               "/shard-1.json'"),
            std::string::npos)
      << readFile(Err);
}

TEST_F(ToolsTest, AliveMutateSkipsBrokenCorpusFiles) {
  // A broken file next to a good one: warn and fuzz what loads. Only a
  // fully unusable corpus is an error.
  writeFile(TmpDir + "/broken.ll", "not IR {{{");
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=10 " + TmpDir + "/in.ll " +
                   TmpDir + "/broken.ll"),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=10 " + TmpDir + "/broken.ll"),
            1);
}

TEST_F(ToolsTest, AliveMutateResumeSmoke) {
  // CLI-level checkpoint/resume: resuming a finished campaign re-merges
  // the checkpointed shards and reproduces the deterministic report
  // section byte for byte without re-running any iteration.
  std::string Ckpt = TmpDir + "/ckpt_smoke";
  std::string Common = " -n=40 -inject-bugs -seed=3 -j=2 -checkpoint=" +
                       Ckpt + " " + TmpDir + "/in.ll";
  int First = runCmd(tool("alive-mutate") + " -stats-json=" + TmpDir +
                     "/r1.json" + Common);
  // 0 (clean) or 2 (bugs found) depending on what the seeds surface;
  // anything else is a config/setup failure.
  ASSERT_TRUE(First == 0 || First == 2) << First;
  ASSERT_EQ(runCmd(tool("alive-mutate") + " -resume -stats-json=" + TmpDir +
                   "/r2.json" + Common),
            First);
  std::string R1 = readFile(TmpDir + "/r1.json");
  std::string R2 = readFile(TmpDir + "/r2.json");
  ASSERT_FALSE(R1.empty());
  size_t V1 = R1.find("\"volatile\""), V2 = R2.find("\"volatile\"");
  ASSERT_NE(V1, std::string::npos);
  ASSERT_NE(V2, std::string::npos);
  EXPECT_EQ(R1.substr(0, V1), R2.substr(0, V2));
}

TEST_F(ToolsTest, AliveMutateBundlesRecordCacheModeAndReplay) {
  // A -shared-tv-cache campaign checks canonicalized pairs, so its
  // bundles record that, and -replay checks the same pairs: each bundle
  // reproduces.
  std::string Dir = TmpDir + "/shared_bundles";
  ASSERT_EQ(runCmd("rm -rf " + Dir), 0);
  ASSERT_EQ(runCmd(tool("alive-mutate") +
                   " -n=200 -seed=7 -j=2 -inject-bugs -shared-tv-cache "
                   "-bug-bundles=" +
                   Dir + " " + TmpDir + "/in.ll"),
            2);
  unsigned Bundles = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    ++Bundles;
    std::string Bundle = E.path().string();
    EXPECT_NE(readFile(Bundle + "/manifest.json")
                  .find("\"canonical_pairs\": true"),
              std::string::npos)
        << Bundle;
    EXPECT_EQ(runCmd(tool("alive-mutate") + " -replay " + Bundle), 0)
        << Bundle;
  }
  EXPECT_GT(Bundles, 0u);
}

TEST_F(ToolsTest, AliveMutateReportEchoesCampaignConfig) {
  // The report's config is the campaign record: campaigns that differ in
  // cache mode, step budget and bug set write different configs, each
  // naming its own settings.
  const std::string Smoke = TmpDir + "/echo.ll";
  writeFile(Smoke, R"(
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
)");
  const std::string A = TmpDir + "/echo_a.json", B = TmpDir + "/echo_b.json";
  ASSERT_EQ(runCmd(tool("alive-mutate") +
                   " -n=50 -shared-tv-cache -step-budget=100000 "
                   "-inject-bugs -stats-json=" +
                   A + " " + Smoke),
            2);
  ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=50 -stats-json=" + B + " " +
                   Smoke),
            0);
  JSONValue RA, RB;
  std::string Err;
  ASSERT_TRUE(parseJSON(readFile(A), RA, Err)) << Err;
  ASSERT_TRUE(parseJSON(readFile(B), RB, Err)) << Err;
  const JSONValue *CA = RA.find("deterministic")->find("config");
  const JSONValue *CB = RB.find("deterministic")->find("config");
  ASSERT_NE(CA, nullptr);
  ASSERT_NE(CB, nullptr);
  EXPECT_TRUE(CA->getBool("canonical_pairs", false));
  EXPECT_FALSE(CB->getBool("canonical_pairs", true));
  EXPECT_EQ(CA->getUInt("step_budget", 0), 100000u);
  EXPECT_EQ(CB->getUInt("step_budget", 1), 0u);
  const JSONValue *BugsA = CA->find("injected_bugs");
  const JSONValue *BugsB = CB->find("injected_bugs");
  ASSERT_TRUE(BugsA && BugsA->isArray());
  ASSERT_TRUE(BugsB && BugsB->isArray());
  EXPECT_EQ(BugsA->Arr.size(), bugTable().size());
  EXPECT_TRUE(BugsB->Arr.empty());
  // Both carry the seed range and corpus counts after the record.
  for (const JSONValue *C : {CA, CB})
    for (const char *Key :
         {"iterations", "base_seed", "corpus_files", "corpus_skipped"})
      EXPECT_NE(C->find(Key), nullptr) << Key;
}

TEST_F(ToolsTest, AliveMutateResumePinsCacheMode) {
  // The two cache modes check different pairs, so their verdicts may
  // differ: a checkpoint resumes only under the mode it was taken with.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/cache_mode.err";
  for (std::string Taken : {"-shared-tv-cache", ""}) {
    std::string Ckpt = TmpDir + "/ckpt_cache_mode";
    std::string Resumed = Taken.empty() ? "-shared-tv-cache" : "";
    ASSERT_EQ(runCmd("rm -rf " + Ckpt), 0);
    ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=5 " + Taken +
                     " -checkpoint=" + Ckpt + In),
              0);
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 " + Resumed +
                     " -checkpoint=" + Ckpt + " -resume" + In + " 2> " +
                     Err + ")"),
              1)
        << Taken;
    EXPECT_NE(readFile(Err).find(std::string("checkpoint mismatch: "
                                             "-shared-tv-cache was ") +
                                 (Taken.empty() ? "off" : "on")),
              std::string::npos)
        << readFile(Err);
  }
}

TEST_F(ToolsTest, AliveMutateReplaysCrashBundles) {
  // A crash bundle replays under the in-process signal guard, whether the
  // campaign contained the crash in-process or in a -fanout child (whose
  // record names the signal that killed it).
  writeFile(TmpDir + "/crashme.ll",
            "define i8 @crashme(i8 %x) {\n"
            "  %r = add i8 %x, 1\n  ret i8 %r\n}\n");
  for (std::string Mode : {"-j=1", "-fanout=1"}) {
    std::string Dir = TmpDir + "/crash_bundles";
    ASSERT_EQ(runCmd("rm -rf " + Dir), 0);
    ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=3 " + Mode +
                     " -passes=test-crash,dce -bug-bundles=" + Dir + " " +
                     TmpDir + "/crashme.ll"),
              2)
        << Mode;
    for (int Seed = 1; Seed <= 3; ++Seed)
      EXPECT_EQ(runCmd(tool("alive-mutate") + " -replay " + Dir +
                       "/bundle-s" + std::to_string(Seed) + "-crash"),
                0)
          << Mode << " seed " << Seed;
  }
}

TEST_F(ToolsTest, AliveMutateRejectsUnknownFlags) {
  // A retired or mistyped flag must fail loudly, naming the flag: a
  // script passing -isolate would otherwise quietly run in-process, and
  // -feedbak would quietly run a blind campaign. Also retired:
  // -tv-prescreen, -tv-cache-shards, -quarantine, the wall-clock iteration
  // timeout, the -fanout supervisor's four knobs and two child rlimits
  // (its policy is fixed; a memory cap is the shell's ulimit -v), the
  // trace ring and verdict cache sizes, and the checkpoint cadence (64
  // iterations per worker). The names retired from the
  // timeout on are spelled in two pieces so a repository search for them
  // finds no live use.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/unknown.err";
  for (std::string Flag :
       {"-isolate", "-feedbak", "-tv-prescreen=4", "-tv-cache-shards=8",
        "-quarantine=2", "-iter-" "timeout=5", "-retry-" "max=2",
        "-retry-" "base=0.1", "-retry-" "cap=1", "-lease-" "deadline=5",
        "-isolate-" "mem-mb=512", "-isolate-" "cpu-s=5",
        "-trace-" "capacity=64", "-tv-cache-" "size=64",
        "-checkpoint-" "interval=2"}) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 " + Flag + In +
                     " 2> " + Err + ")"),
              1)
        << Flag;
    std::string Name = Flag.substr(0, Flag.find('='));
    EXPECT_NE(readFile(Err).find("unknown flag " + Name), std::string::npos)
        << readFile(Err);
  }
}

TEST_F(ToolsTest, AliveMutateHelpNamesExactlyTheAcceptedFlags) {
  // -help is the flag reference: it must list every flag the tool
  // accepts and no other, so a retired flag cannot linger in the text and
  // a new one cannot go undocumented.
  const std::set<std::string> Accepted = {
      "bug-bundles",     "checkpoint",
      "distill",         "fanout",         "fault-seed",
      "feedback",        "feedback-epoch", "help",
      "inject-bugs",     "inject-fault",   "j",
      "max-mutations",   "n",              "no-signal-guard",
      "no-skip-unchanged", "no-tv-cache",  "passes",
      "profile",         "profile-topk",   "progress",
      "replay",          "report",         "resume",
      "save-dir",        "saveAll",        "seed",
      "shared-tv-cache", "stats-json",     "step-budget",
      "t",               "trace-json"};
  std::string Out = TmpDir + "/help.out";
  ASSERT_EQ(runCmd("(" + tool("alive-mutate") + " -help > " + Out + ")"), 0);
  std::set<std::string> Listed;
  std::stringstream SS(readFile(Out));
  for (std::string Line; std::getline(SS, Line);)
    if (Line.rfind("  -", 0) == 0)
      Listed.insert(Line.substr(3, Line.find_first_of("= <", 3) - 3));
  EXPECT_EQ(Listed, Accepted);
  // Without an input every run stops after the unknown-flag check and
  // before any campaign.
  std::string Err = TmpDir + "/help_flag.err";
  for (const std::string &Flag : Accepted) {
    runCmd("(" + tool("alive-mutate") + " -" + Flag + " 2> " + Err + ")");
    EXPECT_EQ(readFile(Err).find("unknown flag"), std::string::npos)
        << Flag << ": " << readFile(Err);
  }
}

TEST_F(ToolsTest, AliveMutateFanoutReportsItsWorkerCount) {
  // The header, the tv-cache line and the report's volatile jobs count
  // the -fanout children, not the default -j=1.
  std::string Out = TmpDir + "/fanout_jobs.out";
  std::string Json = TmpDir + "/fanout_jobs.json";
  ASSERT_EQ(runCmd("(" + tool("alive-mutate") + " -n=6 -fanout=3 -stats-json=" +
                   Json + " " + TmpDir + "/in.ll > " + Out + ")"),
            0);
  std::string Text = readFile(Out);
  EXPECT_NE(Text.find("3 worker(s) [fanout=3]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[per-worker, 3 worker(s)]"), std::string::npos)
      << Text;
  EXPECT_NE(readFile(Json).find("\"jobs\": 3,"), std::string::npos);
}

TEST_F(ToolsTest, AliveMutateRejectsTuningFlagsWithoutTheirFeature) {
  // A tuning flag whose feature is off used to be ignored (exit 0): each
  // row must now exit 1 with an error naming the flag and what it needs.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/tuning.err";
  struct Row {
    const char *Flags;
    const char *Tuning;
    const char *Needs;
  };
  for (const Row &R : {
           Row{"-profile-topk=4", "-profile-topk", "-profile"},
           Row{"-fault-seed=3", "-fault-seed", "-inject-fault"},
           Row{"-feedback-epoch=32", "-feedback-epoch", "-feedback"},
           Row{"-feedback=off -feedback-epoch=32", "-feedback-epoch",
               "-feedback"},
           Row{"-no-tv-cache -shared-tv-cache", "-shared-tv-cache",
               "-no-tv-cache"},
           // -fanout=<n> is itself the worker count: -j would be ignored.
           Row{"-j=2 -fanout=2", "-j", "-fanout"},
       }) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 " + R.Flags + In +
                     " 2> " + Err + ")"),
              1)
        << R.Flags;
    std::string Msg = readFile(Err);
    EXPECT_NE(Msg.find(std::string("error: ") + R.Tuning + " tunes"),
              std::string::npos)
        << R.Flags << ": " << Msg;
    EXPECT_NE(Msg.find(R.Needs, Msg.find(" tunes")), std::string::npos)
        << R.Flags << ": " << Msg;
  }
  // With their features on, the same flags run clean.
  for (const std::string &Flags : std::vector<std::string>{
           "-profile -profile-topk=4",
           "-shared-tv-cache",
           "-feedback -feedback-epoch=2"})
    EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 " + Flags + In), 0)
        << Flags;
}

TEST_F(ToolsTest, AliveMutateIsolateSurvivesCrashingPass) {
  // The CI acceptance scenario at the CLI: a pass that SIGSEGVs inside
  // a -fanout child must not kill the campaign; the tool finishes and
  // reports the contained crashes through the normal bug exit code (2).
  writeFile(TmpDir + "/crashme.ll",
            "define i8 @crashme(i8 %x) {\n"
            "  %r = add i8 %x, 1\n  ret i8 %r\n}\n");
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=2 -fanout=1 "
                   "-passes=test-crash,dce " +
                   TmpDir + "/crashme.ll"),
            2);
}

TEST_F(ToolsTest, AliveMutateRejectsRetiredMetricsFlags) {
  // The live HTTP plane is gone; its three flags are unknown flags now.
  // (Each name is spelled in two pieces so a repository search for the
  // retired names finds no live use.)
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/retired.err";
  for (std::string Flag : {std::string("-metrics-") + "port=0",
                           std::string("-metrics-") + "interval=1",
                           std::string("-health-") + "stale=1"}) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 " + Flag + In +
                     " 2> " + Err + ")"),
              1)
        << Flag;
    std::string Name = Flag.substr(0, Flag.find('='));
    EXPECT_NE(readFile(Err).find("unknown flag " + Name), std::string::npos)
        << readFile(Err);
  }
}

TEST_F(ToolsTest, AliveMutateDegradedCampaignExits3) {
  // Killing every -fanout child loses both shard leases: the campaign
  // finishes with no mutants, and the exit status must say the results
  // are incomplete (3) instead of reporting a clean run.
  std::string Out = TmpDir + "/degraded.out";
  std::string Err = TmpDir + "/degraded.err";
  EXPECT_EQ(runCmd("(" + tool("alive-mutate") +
                   " -n=3000 -fanout=2 -inject-fault=supervisor.kill:every:1 " +
                   TmpDir + "/in.ll > " + Out + " 2> " + Err + ")"),
            3)
      << readFile(Out) << readFile(Err);
  EXPECT_NE(readFile(Out).find("2 lost shard(s)"), std::string::npos)
      << readFile(Out);
  EXPECT_NE(readFile(Err).find("campaign degraded"), std::string::npos)
      << readFile(Err);
}

TEST_F(ToolsTest, AliveMutateRejectsMalformedNumericFlags) {
  // Numeric flags parse strictly. A malformed, negative, trailing-junk or
  // out-of-range value is a config error naming the flag: never an
  // uncaught exception (-n=abc), a wrapped worker count (-j=-1), a
  // silently shortened campaign (-n=5x), a truncated duration, or a zero
  // the engine would clamp to 1 while the report echoes 0.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/numeric.err";
  for (std::string Flag :
       {"-n=abc", "-j=-1", "-n=5x", "-j=4294967296", "-n=99999999999999999999",
        "-t=-1", "-t=1s", "-progress=abc", "-progress=nan",
        "-t=inf", "-profile-topk=0", "-feedback-epoch=0"}) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " " + Flag + In + " 2> " +
                     Err + ")"),
              1)
        << Flag;
    std::string Name = Flag.substr(0, Flag.find('='));
    EXPECT_NE(readFile(Err).find("error: " + Name + " expects"),
              std::string::npos)
        << Flag << ": " << readFile(Err);
  }
  // -t takes decimals, like -progress: 0.5 used to truncate to 0 and
  // fail as an "unbounded campaign".
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=0.5" + In), 0);
}

TEST_F(ToolsTest, AliveMutateProgressReportsOnBothRunPaths) {
  // -progress polls the engine's live snapshot, so the thread path and
  // the -fanout process path print the same [campaign] line. -fanout
  // shards carry no stage times, so their lines print no stage shares.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/progress.err";
  auto ProgressLines = [&](const char *Needle = "") {
    std::stringstream SS(readFile(Err));
    unsigned N = 0;
    for (std::string Line; std::getline(SS, Line);)
      if (Line.rfind("[campaign] ", 0) == 0 &&
          Line.find(", 2 workers)") != std::string::npos &&
          Line.find(Needle) != std::string::npos)
        ++N;
    return N;
  };
  ASSERT_EQ(runCmd("(" + tool("alive-mutate") + " -t=0.3 -j=2 -progress=0.05" +
                   In + " 2> " + Err + ")"),
            0);
  EXPECT_GT(ProgressLines(), 0u) << readFile(Err);
  ASSERT_EQ(runCmd("(" + tool("alive-mutate") +
                   " -n=2000 -fanout=2 -progress=0.05" + In + " 2> " + Err +
                   ")"),
            0);
  EXPECT_GT(ProgressLines(), 0u) << readFile(Err);
  EXPECT_EQ(ProgressLines("%"), 0u) << readFile(Err);
  EXPECT_NE(readFile(Err).find("/2000 mutants"), std::string::npos)
      << readFile(Err);
}

TEST_F(ToolsTest, AliveMutateDeadlineCutsABoundedCampaign) {
  // -n next to -t stops at whichever comes first. The deadline cuts this
  // campaign short, -progress's ETA is never later than the deadline, and
  // the interrupt note names -resume only when there is a checkpoint to
  // resume from.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/deadline.err";
  std::string Run = "(timeout 60 " + tool("alive-mutate") +
                    " -n=100000000 -t=0.5 -progress=0.1";
  ASSERT_EQ(runCmd(Run + In + " 2> " + Err + ")"), 0) << readFile(Err);
  std::string Msg = readFile(Err);
  EXPECT_NE(Msg.find("of 100000000 planned mutant(s); it ran without "
                     "-checkpoint, so it cannot be resumed"),
            std::string::npos)
      << Msg;
  EXPECT_EQ(Msg.find("-resume"), std::string::npos) << Msg;
  std::stringstream SS(Msg);
  unsigned Lines = 0;
  for (std::string Line; std::getline(SS, Line);) {
    size_t Eta = Line.find(", eta ");
    if (Line.rfind("[campaign] ", 0) != 0 || Eta == std::string::npos)
      continue;
    ++Lines;
    EXPECT_LE(std::atoi(Line.c_str() + Eta + 6), 1) << Line;
  }
  EXPECT_GT(Lines, 0u) << Msg;

  std::string Ck = TmpDir + "/ck_deadline";
  ASSERT_EQ(runCmd("rm -rf " + Ck), 0);
  ASSERT_EQ(runCmd(Run + " -checkpoint=" + Ck + In + " 2> " + Err + ")"), 0)
      << readFile(Err);
  EXPECT_NE(readFile(Err).find("rerun with -resume"), std::string::npos)
      << readFile(Err);
}
