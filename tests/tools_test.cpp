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

#include "parser/Parser.h"

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

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
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -replay=" + TmpDir + " -j=4"), 1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -replay=" + TmpDir + " -resume"),
            1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -replay=" + TmpDir + " -isolate"),
            1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -resume" + In), 1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=1 -isolate" + In), 1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -isolate -trace-json=" +
                   TmpDir + "/t.json" + In),
            1);
  // -resume with a conflicting -seed is refused by the checkpoint meta.
  std::string Ckpt = TmpDir + "/ckpt_conflict";
  ASSERT_EQ(runCmd(tool("alive-mutate") + " -n=5 -seed=1 -checkpoint=" +
                   Ckpt + In),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -seed=2 -checkpoint=" +
                   Ckpt + " -resume" + In),
            1);
}

TEST_F(ToolsTest, AliveMutateRejectsTimeLimitedCheckpointAndFeedback) {
  std::string In = " " + TmpDir + "/in.ll";
  // The satellite bugfix: -checkpoint next to -t used to be accepted and
  // silently checkpointed the default iteration campaign instead. Now
  // every schedule-dependent feature demands an iteration bound.
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=1 -checkpoint=" + TmpDir +
                   "/ck_t" + In),
            1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -t=1 -feedback" + In), 1);
  // Feedback's epoch barrier excludes -fanout and bundle trails, and
  // -distill is meaningless without the coverage a feedback run collects.
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -feedback -isolate" + In),
            1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -feedback -fanout=2" + In),
            1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -feedback -bug-bundles=" +
                   TmpDir + "/bb" + In),
            1);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=5 -distill" + In), 1);
  // The coherent spellings run clean.
  EXPECT_EQ(runCmd(tool("alive-mutate") +
                   " -n=8 -feedback -feedback-epoch=4 -distill" + In),
            0);
  EXPECT_EQ(runCmd(tool("alive-mutate") + " -n=8 -feedback=off" + In), 0);
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

TEST_F(ToolsTest, AliveMutateRejectsUnknownFlags) {
  // A retired or mistyped flag must fail loudly, naming the flag: a
  // script passing -isolate would otherwise quietly run in-process, and
  // -feedbak would quietly run a blind campaign. -tv-prescreen and
  // -tv-cache-shards are retired too.
  std::string In = " " + TmpDir + "/in.ll";
  std::string Err = TmpDir + "/unknown.err";
  for (std::string Flag : {"-isolate", "-feedbak", "-tv-prescreen=4",
                           "-tv-cache-shards=8"}) {
    EXPECT_EQ(runCmd("(" + tool("alive-mutate") + " -n=5 " + Flag + In +
                     " 2> " + Err + ")"),
              1)
        << Flag;
    std::string Name = Flag.substr(0, Flag.find('='));
    EXPECT_NE(readFile(Err).find("unknown flag " + Name), std::string::npos)
        << readFile(Err);
  }
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
