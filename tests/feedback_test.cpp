//===- tests/feedback_test.cpp - Feedback-directed scheduling tests ---------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the feedback subsystem: coverage-bitmap algebra, the
/// epoch-schedule formulas, feedback-state JSON round-trips, corpus
/// distillation idempotence, and the campaign-level guarantees — the
/// -j1 == -jN identity of the deterministic report under -feedback=on,
/// the blind-equivalence of -feedback=off, and the checkpoint/resume
/// byte-equality of an interrupted feedback campaign.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/Checkpoint.h"
#include "core/Feedback.h"
#include "core/RunReport.h"
#include "corpus/Distill.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "support/RandomGenerator.h"

#include <algorithm>
#include <filesystem>
#include <gtest/gtest.h>
#include <sstream>

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

FuzzOptions feedbackOptions(uint64_t Iterations, unsigned EpochLength) {
  FuzzOptions Opts;
  Opts.Passes = "instsimplify,constfold,instcombine,dce";
  Opts.Iterations = Iterations;
  Opts.BaseSeed = 1;
  Opts.TV.ConcreteTrials = 16;
  Opts.Bugs.enable(BugId::PR52884);
  Opts.Bugs.enable(BugId::PR50693);
  Opts.Feedback.Enabled = true;
  Opts.Feedback.EpochLength = EpochLength;
  return Opts;
}

struct ScratchDir {
  std::string Path;
  explicit ScratchDir(const std::string &Tag) {
    Path = ::testing::TempDir() + "amr_feedback_" + Tag;
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() { std::filesystem::remove_all(Path); }
};

/// The byte-comparable deterministic prefix of the engine's run report.
std::string deterministicReportPart(const CampaignEngine &Engine) {
  std::ostringstream OS;
  writeRunReport(OS, Engine.runReport("feedback_test"));
  std::string R = OS.str();
  size_t Pos = R.find("\"volatile\"");
  EXPECT_NE(Pos, std::string::npos);
  return R.substr(0, Pos);
}

CoverageBitmap bitmapOf(std::initializer_list<unsigned> Bits) {
  CoverageBitmap B;
  for (unsigned Bit : Bits)
    B.set(Bit);
  return B;
}

} // namespace

//===----------------------------------------------------------------------===//
// Coverage-bitmap algebra.
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, BitmapBasics) {
  CoverageBitmap B;
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.popcount(), 0u);
  B.set(0);
  B.set((unsigned)RuleID::NumRules + CoverageBitmap::VB_Correct);
  EXPECT_FALSE(B.empty());
  EXPECT_EQ(B.popcount(), 2u);
  EXPECT_TRUE(B.test(0));
  EXPECT_FALSE(B.test(1));

  CoverageBitmap C = bitmapOf({0});
  EXPECT_TRUE(C.subsetOf(B));
  EXPECT_FALSE(B.subsetOf(C));
  EXPECT_EQ(B.newBits(C), 1u);
  EXPECT_EQ(C.newBits(B), 0u);

  C.orWith(B);
  EXPECT_TRUE(C == B);
}

TEST(FeedbackTest, MergeIsCommutativeAndAssociative) {
  FeedbackMap A, B, C;
  A.addIteration(bitmapOf({1, 5}), {"f"}, {MutationKind::Arith});
  B.addIteration(bitmapOf({2, 5}), {"g"}, {MutationKind::Use});
  C.addIteration(bitmapOf({3}), {"f", "g"}, {MutationKind::Move});

  FeedbackMap AB = A;
  AB.merge(B);
  AB.merge(C);
  FeedbackMap CB = C;
  CB.merge(B);
  CB.merge(A);
  EXPECT_TRUE(AB == CB);
  EXPECT_EQ(AB.Global.popcount(), 4u);
  EXPECT_EQ(AB.PerFunction.at("f").popcount(), 3u);
}

//===----------------------------------------------------------------------===//
// Schedule formulas.
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, EnergyDecaysOnDryEpochsAndResetsOnNovelty) {
  ScheduleState S;
  EXPECT_EQ(S.energyFor("f"), ScheduleState::MaxEnergy);

  FeedbackMap Prev, Merged;
  Merged.addIteration(bitmapOf({1}), {"f"}, {MutationKind::Arith});
  // Novel epoch: full energy.
  S.update(Prev, Merged);
  EXPECT_EQ(S.energyFor("f"), ScheduleState::MaxEnergy);

  // Dry epochs halve the energy down to the floor: 8 -> 4 -> 2 -> 1 -> 1.
  Prev = Merged;
  S.update(Prev, Merged);
  EXPECT_EQ(S.energyFor("f"), 4u);
  S.update(Prev, Merged);
  EXPECT_EQ(S.energyFor("f"), 2u);
  S.update(Prev, Merged);
  EXPECT_EQ(S.energyFor("f"), 1u);
  S.update(Prev, Merged);
  EXPECT_EQ(S.energyFor("f"), ScheduleState::MinEnergy);

  // A novel bit resets the streak and the energy.
  FeedbackMap Novel = Merged;
  Novel.addIteration(bitmapOf({9}), {"f"}, {MutationKind::Arith});
  EXPECT_GT(S.update(Prev, Novel), 0u);
  EXPECT_EQ(S.energyFor("f"), ScheduleState::MaxEnergy);
}

TEST(FeedbackTest, FamilyWeightsDoubleAndHalveWithinClamps) {
  ScheduleState S;
  const size_t Arith = (size_t)MutationKind::Arith;
  const size_t Use = (size_t)MutationKind::Use;
  EXPECT_EQ(S.FamilyWeights[Arith], ScheduleState::InitWeight);

  FeedbackMap Prev, Merged;
  Merged.addIteration(bitmapOf({1}), {"f"}, {MutationKind::Arith});
  S.update(Prev, Merged);
  EXPECT_EQ(S.FamilyWeights[Arith], 16u);
  EXPECT_EQ(S.FamilyWeights[Use], 4u);

  // Saturation: repeated novel epochs stay at the cap, repeated dry ones
  // at the floor.
  Prev = Merged;
  for (int I = 0; I != 4; ++I)
    S.update(Prev, Merged);
  EXPECT_EQ(S.FamilyWeights[Arith], ScheduleState::MinWeight);
  EXPECT_EQ(S.FamilyWeights[Use], ScheduleState::MinWeight);
}

TEST(FeedbackTest, EnergyGateIsDeterministicAndConsumesNoRNG) {
  // Null schedule (blind) and full energy always mutate.
  EXPECT_TRUE(scheduleAllowsMutation(nullptr, "f", 123));
  ScheduleState S;
  EXPECT_TRUE(scheduleAllowsMutation(&S, "f", 123));

  // A reduced-energy function is gated by a pure hash of (seed, name):
  // the same inputs always give the same answer, and energy E admits
  // roughly E/8 of the seeds.
  S.Energy["f"] = 4;
  unsigned Allowed = 0;
  for (uint64_t Seed = 0; Seed != 1024; ++Seed) {
    bool A = scheduleAllowsMutation(&S, "f", Seed);
    EXPECT_EQ(A, scheduleAllowsMutation(&S, "f", Seed));
    Allowed += A;
  }
  EXPECT_GT(Allowed, 1024u / 4);
  EXPECT_LT(Allowed, 3 * 1024u / 4);
}

//===----------------------------------------------------------------------===//
// JSON round-trips (the checkpoint payload).
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, FeedbackCheckpointRoundTripsByteIdentically) {
  ScratchDir Dir("roundtrip");
  FeedbackCheckpoint Out;
  Out.NextOffset = 512;
  Out.Global.addIteration(bitmapOf({0, 7, 54}), {"f", "g"},
                          {MutationKind::Arith, MutationKind::Shuffle});
  Out.Schedule.Energy["f"] = 2;
  Out.Schedule.Dry["f"] = 2;
  Out.Schedule.FamilyWeights[(size_t)MutationKind::Arith] = 16;

  std::string Err;
  ASSERT_TRUE(writeFeedbackCheckpoint(Dir.Path, Out, Err)) << Err;
  FeedbackCheckpoint In;
  ASSERT_TRUE(readFeedbackCheckpoint(Dir.Path, In, Err)) << Err;
  EXPECT_EQ(In.NextOffset, Out.NextOffset);
  EXPECT_TRUE(In.Global == Out.Global);
  EXPECT_TRUE(In.Schedule == Out.Schedule);

  // Re-serializing the read-back state writes the same bytes.
  std::ostringstream S1, S2;
  Out.Global.writeJSON(S1);
  In.Global.writeJSON(S2);
  EXPECT_EQ(S1.str(), S2.str());
}

//===----------------------------------------------------------------------===//
// Corpus distillation.
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, DistillKeepsACoverAndDropsSubsumedSeeds) {
  std::vector<DistillItem> Items = {
      {"small", {0b0011}},
      {"big", {0b0111}},
      {"disjoint", {0b1000}},
      {"empty", {0}},
  };
  DistillResult R = distillCover(Items);
  // "big" subsumes "small"; "disjoint" adds a bit; "empty" contributes
  // nothing.
  ASSERT_EQ(R.Kept.size(), 2u);
  EXPECT_EQ(R.Kept[0], "big");
  EXPECT_EQ(R.Kept[1], "disjoint");
  ASSERT_EQ(R.Dropped.size(), 2u);
}

TEST(FeedbackTest, DistillIsIdempotent) {
  std::vector<DistillItem> Items = {
      {"a", {0b101}}, {"b", {0b011}}, {"c", {0b110}}, {"d", {0b111}},
      {"e", {0b1000, 0b1}},
  };
  DistillResult Once = distillCover(Items);
  std::vector<DistillItem> Surviving;
  for (const DistillItem &It : Items)
    if (std::find(Once.Kept.begin(), Once.Kept.end(), It.Name) !=
        Once.Kept.end())
      Surviving.push_back(It);
  DistillResult Twice = distillCover(Surviving);
  EXPECT_EQ(Twice.Kept, Once.Kept);
  EXPECT_TRUE(Twice.Dropped.empty());

  // Input order does not matter: the rank order is total.
  std::reverse(Items.begin(), Items.end());
  EXPECT_EQ(distillCover(Items).Kept, Once.Kept);
}

//===----------------------------------------------------------------------===//
// Satellite: RandomGenerator zero-bound rejection (release-mode UB fix).
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, MutatorWithNoBudgetOrKindsIsACleanNoOp) {
  // Empty family set / zero budget used to reach RNG.below(0) — a divide
  // by zero under NDEBUG. Now it returns before the first draw.
  auto M = parseOk(TwoBugCorpus);
  Function *F = M->getFunction("smax_offset");
  ASSERT_NE(F, nullptr);
  OriginalFunctionInfo Info(*F);
  RandomGenerator RNG(42);

  MutationOptions MO;
  MO.MaxMutationsPerFunction = 0;
  Mutator Mut(RNG, MO);
  MutantInfo MI(*F, Info);
  EXPECT_TRUE(Mut.mutateFunction(MI).empty());

  MutationOptions NoKinds;
  NoKinds.EnabledKinds.clear();
  Mutator Mut2(RNG, NoKinds);
  MutantInfo MI2(*F, Info);
  EXPECT_TRUE(Mut2.mutateFunction(MI2).empty());

#ifdef NDEBUG
  // The fail-soft path itself (assert-compiled-out builds only).
  RandomGenerator R2(7);
  EXPECT_EQ(R2.below(0), 0u);
#endif
}

//===----------------------------------------------------------------------===//
// Campaign-level guarantees.
//===----------------------------------------------------------------------===//

TEST(FeedbackTest, FeedbackReportIsWorkerCountInvariant) {
  // The tentpole guarantee: under -feedback=on the deterministic report
  // section — bug list, coverage counters, final weights — is
  // byte-identical for every worker count.
  FuzzOptions Opts = feedbackOptions(120, 16);
  std::string Reports[3];
  unsigned BugCounts[3] = {};
  unsigned Jobs[3] = {1, 2, 4};
  for (int I = 0; I != 3; ++I) {
    CampaignEngine Engine(Opts, Jobs[I]);
    Engine.loadModule(parseOk(TwoBugCorpus));
    Engine.run();
    ASSERT_TRUE(Engine.configError().empty()) << Engine.configError();
    Reports[I] = deterministicReportPart(Engine);
    BugCounts[I] = (unsigned)Engine.bugs().size();
  }
  EXPECT_GT(BugCounts[0], 0u);
  EXPECT_EQ(Reports[0], Reports[1]);
  EXPECT_EQ(Reports[0], Reports[2]);
}

TEST(FeedbackTest, FeedbackOffReproducesBlindRunExactly) {
  // A feedback campaign whose single epoch spans the whole seed range runs
  // every seed under a fresh, uniform schedule, which must consume the
  // RNG stream exactly like blind: same bugs, same mutant and mutation
  // counts. The engine's one epoch loop serves both on this property.
  const uint64_t Iterations = 80;
  FuzzOptions Blind = feedbackOptions(Iterations, 16);
  Blind.Feedback.Enabled = false;
  FuzzOptions OneEpoch = feedbackOptions(Iterations, Iterations);
  for (unsigned Jobs : {1u, 2u}) {
    CampaignEngine A(Blind, Jobs);
    A.loadModule(parseOk(TwoBugCorpus));
    A.run();
    ASSERT_TRUE(A.configError().empty()) << A.configError();
    CampaignEngine B(OneEpoch, Jobs);
    B.loadModule(parseOk(TwoBugCorpus));
    B.run();
    ASSERT_TRUE(B.configError().empty()) << B.configError();

    EXPECT_EQ(B.registry().counterValue("feedback.epochs"), 1u);
    EXPECT_EQ(A.registry().counterValue("feedback.epochs"), 0u);
    EXPECT_EQ(A.stats().MutantsGenerated, B.stats().MutantsGenerated);
    EXPECT_EQ(A.stats().MutationsApplied, B.stats().MutationsApplied);
    ASSERT_GT(A.bugs().size(), 0u);
    ASSERT_EQ(A.bugs().size(), B.bugs().size()) << "-j" << Jobs;
    for (size_t I = 0; I != A.bugs().size(); ++I) {
      EXPECT_EQ(A.bugs()[I].MutantSeed, B.bugs()[I].MutantSeed);
      EXPECT_EQ(A.bugs()[I].Kind, B.bugs()[I].Kind);
      EXPECT_EQ(A.bugs()[I].FunctionName, B.bugs()[I].FunctionName);
      EXPECT_EQ(A.bugs()[I].Detail, B.bugs()[I].Detail);
      EXPECT_EQ(A.bugs()[I].MutantIR, B.bugs()[I].MutantIR);
    }
  }
}

TEST(FeedbackTest, FeedbackCampaignResumesByteIdentically) {
  // Checkpoint/resume round-trip: an interrupted feedback campaign,
  // resumed, reports byte-identically to an uninterrupted one — the
  // coverage maps and schedule survive through feedback.json.
  const uint64_t Iterations = 96;
  ScratchDir Dir("resume");

  FuzzOptions Plain = feedbackOptions(Iterations, 16);
  CampaignEngine Ref(Plain, 2);
  Ref.loadModule(parseOk(TwoBugCorpus));
  Ref.run();
  ASSERT_TRUE(Ref.configError().empty()) << Ref.configError();
  std::string RefReport = deterministicReportPart(Ref);
  ASSERT_GT(Ref.bugs().size(), 0u);

  FuzzOptions Opts = feedbackOptions(Iterations, 16);
  Opts.Survival.CheckpointDir = Dir.Path;
  Opts.Survival.CheckpointInterval = 1;
  CampaignEngine Leg1(Opts, 2);
  Leg1.loadModule(parseOk(TwoBugCorpus));
  Leg1.stopAfterIterations(40);
  Leg1.run();
  ASSERT_TRUE(Leg1.configError().empty()) << Leg1.configError();
  ASSERT_TRUE(Leg1.interrupted());
  ASSERT_LT(Leg1.stats().MutantsGenerated, Iterations);

  FuzzOptions ResumeOpts = Opts;
  ResumeOpts.Survival.Resume = true;
  CampaignEngine Leg2(ResumeOpts, 2);
  Leg2.loadModule(parseOk(TwoBugCorpus));
  Leg2.run();
  ASSERT_TRUE(Leg2.configError().empty()) << Leg2.configError();
  EXPECT_FALSE(Leg2.interrupted());
  EXPECT_EQ(deterministicReportPart(Leg2), RefReport);
  EXPECT_TRUE(Leg2.feedback() == Ref.feedback());
  EXPECT_TRUE(Leg2.schedule() == Ref.schedule());
}

TEST(FeedbackTest, ProfiledResumeRejectsTruncatedFeedbackState) {
  // All resume state is validated before any worker starts. A profiled
  // resume that fails on a damaged feedback.json runs no iteration and
  // tears down cleanly.
  const uint64_t Iterations = 64;
  ScratchDir Dir("resume_truncated");
  FuzzOptions Opts = feedbackOptions(Iterations, 16);
  Opts.Survival.CheckpointDir = Dir.Path;
  {
    CampaignEngine Leg1(Opts, 2);
    Leg1.loadModule(parseOk(TwoBugCorpus));
    Leg1.stopAfterIterations(20);
    Leg1.run();
    ASSERT_TRUE(Leg1.configError().empty()) << Leg1.configError();
    ASSERT_TRUE(Leg1.interrupted());
  }
  const std::string State = Dir.Path + "/feedback.json";
  ASSERT_TRUE(std::filesystem::exists(State));
  std::filesystem::resize_file(State, std::filesystem::file_size(State) / 2);

  FuzzOptions ResumeOpts = Opts;
  ResumeOpts.Survival.Resume = true;
  ResumeOpts.Profile.Enabled = true;
  auto Engine = std::make_unique<CampaignEngine>(ResumeOpts, 2);
  Engine->loadModule(parseOk(TwoBugCorpus));
  Engine->run();
  EXPECT_NE(Engine->configError().find("cannot resume"), std::string::npos)
      << Engine->configError();
  EXPECT_EQ(Engine->stats().MutantsGenerated, 0u);
  Engine.reset();
}

TEST(FeedbackTest, TimeLimitedFeedbackRunsAndResumes) {
  // Without -n a feedback campaign runs epochs over the whole offset space
  // and the -t deadline stops it at a barrier, like SIGTERM would.
  FuzzOptions TimeLimited;
  TimeLimited.Passes = "instcombine";
  TimeLimited.Iterations = 0;
  TimeLimited.TimeLimitSeconds = 0.2;
  TimeLimited.Feedback.Enabled = true;
  TimeLimited.Feedback.EpochLength = 8;
  TimeLimited.Survival.CheckpointDir = ::testing::TempDir() + "amr_fb_timed";
  std::filesystem::remove_all(TimeLimited.Survival.CheckpointDir);
  uint64_t FirstEpochs = 0;
  {
    CampaignEngine E1(TimeLimited, 2);
    E1.loadModule(parseOk(TwoBugCorpus));
    E1.run();
    ASSERT_TRUE(E1.configError().empty()) << E1.configError();
    EXPECT_FALSE(E1.interrupted());
    FirstEpochs = E1.registry().counterValue("feedback.epochs");
    EXPECT_GT(FirstEpochs, 0u);
  }

  // Its barrier checkpoint resumes with a fresh (here longer) budget.
  TimeLimited.Survival.Resume = true;
  TimeLimited.TimeLimitSeconds = 0.5;
  CampaignEngine E2(TimeLimited, 2);
  E2.loadModule(parseOk(TwoBugCorpus));
  E2.run();
  ASSERT_TRUE(E2.configError().empty()) << E2.configError();
  EXPECT_GT(E2.registry().counterValue("feedback.epochs"), FirstEpochs);
  std::filesystem::remove_all(TimeLimited.Survival.CheckpointDir);
}
