//===- tests/fuzz_test.cpp - Fuzzing-loop integration tests ----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/BlindMutator.h"
#include "core/FuzzerLoop.h"
#include "corpus/Corpus.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "parser/Printer.h"

#include <gtest/gtest.h>

using namespace alive;

namespace {

std::unique_ptr<Module> parseOk(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

/// Runs a campaign on \p Seed IR with only \p Bug injected; returns true
/// if the campaign finds it within \p MaxIters mutants.
bool campaignFinds(BugId Bug, const std::string &SeedIR, uint64_t MaxIters,
                   const std::string &Passes = "O2") {
  FuzzOptions Opts;
  Opts.Bugs.enable(Bug);
  Opts.Passes = Passes;
  Opts.Iterations = MaxIters;
  Opts.BaseSeed = 1;
  Opts.TV.ConcreteTrials = 16; // keep iterations fast
  Opts.TV.SolverConflictBudget = 30000;

  FuzzerLoop Fuzzer(Opts);
  auto M = parseOk(SeedIR);
  if (!M || Fuzzer.loadModule(std::move(M)) == 0)
    return false;

  const char *WantIssue = bugInfo(Bug).IssueId;
  bool IsCrash = bugInfo(Bug).IsCrash;
  Fuzzer.run();
  for (const BugRecord &R : Fuzzer.bugs()) {
    if (IsCrash && R.Kind == BugRecord::Crash && R.IssueId == WantIssue)
      return true;
    if (!IsCrash && R.Kind == BugRecord::Miscompile)
      return true;
  }
  return false;
}

const char *seedFor(const char *IssueId) {
  for (const NearMissSeed &S : nearMissSeeds())
    if (std::string(S.IssueId) == IssueId)
      return S.Text;
  return nullptr;
}

} // namespace

class FuzzTest : public ::testing::Test {};

TEST_F(FuzzTest, PreprocessingDropsUnhandledFunctions) {
  // A function whose self-check cannot conclude anything (here: an
  // infinite loop, where every bounded trial runs out of fuel) is dropped,
  // like functions Alive2 cannot process (§III-A). An always-UB function
  // survives only on the symbolic path, where it trivially refines itself.
  // On the concrete path (memory, loops, wide bodies) no trial completes
  // either, so it is dropped like @spin.
  auto M = parseOk(R"(
define i32 @ok(i32 %x) {
  %a = add i32 %x, 1
  ret i32 %a
}

define i32 @spin(i32 %x) {
entry:
  br label %loop
loop:
  br label %loop
}
)");
  FuzzOptions Opts;
  FuzzerLoop Fuzzer(Opts);
  unsigned N = Fuzzer.loadModule(std::move(M));
  EXPECT_EQ(N, 1u);
  auto Names = Fuzzer.testableFunctions();
  ASSERT_EQ(Names.size(), 1u);
  EXPECT_EQ(Names[0], "ok");
  EXPECT_EQ(Fuzzer.stats().FunctionsDropped, 1u);
}

TEST_F(FuzzTest, MutantRegenerationIsExact) {
  // §III-E: re-running with a logged seed regenerates the mutant
  // byte-for-byte.
  FuzzOptions Opts;
  FuzzerLoop Fuzzer(Opts);
  Fuzzer.loadModule(parseOk(paperListingSeeds()[1]));
  for (uint64_t Seed : {3ull, 17ull, 123456ull}) {
    auto A = Fuzzer.makeMutant(Seed);
    auto B = Fuzzer.makeMutant(Seed);
    EXPECT_EQ(printModule(*A), printModule(*B));
  }
  auto A = Fuzzer.makeMutant(3);
  auto C = Fuzzer.makeMutant(4);
  EXPECT_NE(printModule(*A), printModule(*C));
}

TEST_F(FuzzTest, CleanOptimizerYieldsNoBugs) {
  FuzzOptions Opts;
  Opts.Iterations = 150;
  Opts.TV.ConcreteTrials = 16;
  FuzzerLoop Fuzzer(Opts);
  Fuzzer.loadModule(parseOk(paperListingSeeds()[0]));
  const FuzzStats &S = Fuzzer.run();
  EXPECT_EQ(S.MutantsGenerated, 150u);
  EXPECT_EQ(S.RefinementFailures, 0u);
  EXPECT_EQ(S.Crashes, 0u);
  EXPECT_EQ(S.InvalidMutants, 0u);
}

TEST_F(FuzzTest, CampaignFindsCrashViaMutation) {
  // 52884: the near-miss seed has add nuw (no nsw); a flag-toggle mutation
  // completes Listing 15's trigger.
  EXPECT_TRUE(campaignFinds(BugId::PR52884, seedFor("52884"), 400,
                            "instcombine"));
}

TEST_F(FuzzTest, CampaignFindsMiscompileViaMutation) {
  // 50693: constant mutation must turn -2 into -1.
  EXPECT_TRUE(
      campaignFinds(BugId::PR50693, seedFor("50693"), 600, "instcombine"));
}

TEST_F(FuzzTest, CampaignFindsGVNFlagBug) {
  EXPECT_TRUE(campaignFinds(BugId::PR53218, seedFor("53218"), 600, "gvn"));
}

TEST_F(FuzzTest, CampaignFindsAlignmentCrash) {
  // 64687: the align-randomizing arith mutation hits a non-power-of-two.
  EXPECT_TRUE(campaignFinds(BugId::PR64687, seedFor("64687"), 400,
                            "infer-alignment"));
}

TEST_F(FuzzTest, PristineSeedsDoNotTriggerSeededBugs) {
  // With ALL bugs injected, the un-mutated near-miss corpus must pass its
  // self-checks — discoveries must come from mutants (the paper's setup:
  // the regression suite is green on the buggy compiler).
  for (const NearMissSeed &S : nearMissSeeds()) {
    auto M = parseOk(S.Text);
    ASSERT_NE(M, nullptr);
    FuzzOptions Opts;
    Opts.Iterations = 0;
    Opts.Bugs.enableAll();
    FuzzerLoop Fuzzer(Opts);
    unsigned N = Fuzzer.loadModule(std::move(M));
    EXPECT_GE(N, 1u) << "seed for " << S.IssueId
                     << " was dropped in preprocessing";
  }
}

TEST_F(FuzzTest, SaveDirWritesMutants) {
  // The directory does not exist up front: saveMutant must create it
  // instead of silently dropping the §III-E reproducibility artifacts.
  std::string Dir = ::testing::TempDir() + "alive_mutants/nested";
  std::string Cmd = "rm -rf " + ::testing::TempDir() + "alive_mutants";
  ASSERT_EQ(std::system(Cmd.c_str()), 0);

  FuzzOptions Opts;
  Opts.Iterations = 5;
  Opts.SaveDir = Dir;
  Opts.SaveAll = true;
  FuzzerLoop Fuzzer(Opts);
  Fuzzer.loadModule(parseOk(paperListingSeeds()[0]));
  const FuzzStats &S = Fuzzer.run();
  EXPECT_EQ(S.MutantsSaved, 5u);
  EXPECT_EQ(S.SaveFailures, 0u);

  // Every saved mutant parses back.
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    std::string Path = Dir + "/mutant-" + std::to_string(Seed) + ".ll";
    std::string Err;
    EXPECT_NE(parseModuleFile(Path, Err), nullptr) << Path << ": " << Err;
  }
}

TEST_F(FuzzTest, TimeLimitStopsTheLoop) {
  FuzzOptions Opts;
  Opts.Iterations = 0; // unlimited
  Opts.TimeLimitSeconds = 0.2;
  FuzzerLoop Fuzzer(Opts);
  Fuzzer.loadModule(parseOk(paperListingSeeds()[0]));
  const FuzzStats &S = Fuzzer.run();
  EXPECT_GT(S.MutantsGenerated, 0u);
  EXPECT_LT(S.TotalSeconds, 5.0);
}

//===----------------------------------------------------------------------===//
// The §II structure-blind study machinery.
//===----------------------------------------------------------------------===//

TEST_F(FuzzTest, BlindMutantsAreMostlyUseless) {
  // Reproduce the paper's observation in miniature: most byte-level
  // mutants fail to parse or verify; structured mutants never do.
  RandomGenerator RNG(5);
  const std::string Original = paperListingSeeds()[0];
  unsigned Bad = 0, Boring = 0, Interesting = 0;
  const unsigned N = 300;
  for (unsigned I = 0; I != N; ++I) {
    std::string Mut = blindMutate(Original, RNG);
    switch (classifyBlindMutant(Original, Mut)) {
    case BlindOutcome::ParseError:
    case BlindOutcome::Invalid:
      ++Bad;
      break;
    case BlindOutcome::Boring:
      ++Boring;
      break;
    case BlindOutcome::Interesting:
      ++Interesting;
      break;
    }
  }
  // "the vast majority of mutated LLVM IR files were invalid".
  EXPECT_GT(Bad, N * 6 / 10) << "bad=" << Bad << " boring=" << Boring
                             << " interesting=" << Interesting;
  EXPECT_LT(Interesting, N / 4);
}

TEST_F(FuzzTest, BlindClassifierDetectsBoringRenames) {
  const std::string Original = "define i32 @f(i32 %x) {\n"
                               "  %sum = add i32 %x, 1\n"
                               "  ret i32 %sum\n"
                               "}\n";
  const std::string Renamed = "define i32 @f(i32 %x) {\n"
                              "  %total = add i32 %x, 1\n"
                              "  ret i32 %total\n"
                              "}\n";
  EXPECT_EQ(classifyBlindMutant(Original, Renamed), BlindOutcome::Boring);
  const std::string ChangedConst = "define i32 @f(i32 %x) {\n"
                                   "  %sum = add i32 %x, 2\n"
                                   "  ret i32 %sum\n"
                                   "}\n";
  EXPECT_EQ(classifyBlindMutant(Original, ChangedConst),
            BlindOutcome::Interesting);
}
