//===- tests/profiler_test.cpp - Cost-attribution profiler tests ------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the deep cost-attribution layer: the stable FNV key
/// hash, the (cost desc, key asc) total order, the bounded top-K tracker's
/// record/evict/merge semantics and its exact-merge guarantee, the
/// recorder's span folds (exact self times), the JSON serializers, the
/// run report's profile blocks, and — at engine scale — the headline
/// invariants that a -j4 campaign's merged top-K table serializes
/// byte-identically to -j1's, and that a checkpointed, stopped and
/// resumed campaign reports the same table as an uninterrupted one.
///
//===----------------------------------------------------------------------===//

#include "support/Profiler.h"

#include "core/CampaignEngine.h"
#include "core/RunReport.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "support/Hash.h"
#include "support/TraceRecorder.h"

#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

using namespace alive;

namespace {

QueryCostSample sample(uint64_t Key, uint64_t Seed, uint64_t Decisions,
                       uint64_t Propagations = 0, uint64_t Conflicts = 0) {
  QueryCostSample S;
  S.KeyHash = Key;
  S.Function = "f";
  S.Verdict = "refines";
  S.Seed = Seed;
  S.Symbolic = Decisions + Propagations + Conflicts > 0;
  S.Decisions = Decisions;
  S.Propagations = Propagations;
  S.Conflicts = Conflicts;
  return S;
}

std::string topJSON(const std::vector<QueryCost> &Top) {
  std::ostringstream OS;
  writeTopQueriesJSON(OS, Top);
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Key hash and ranking order.
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors: the key hash must be stable across
  // platforms and standard libraries (std::hash is neither).
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
  // The checkpoint's module fingerprint and the fault streams keep the
  // short basis they were first written with, so old checkpoints resume.
  EXPECT_EQ(fnv1a64("a", ShortFnvBasis), 0x44bd8ad473cd9906ULL);
}

TEST(ProfilerTest, RankingIsCostDescThenKeyAsc) {
  QueryCost A, B;
  A.KeyHash = 10;
  A.Decisions = 5;
  B.KeyHash = 2;
  B.Decisions = 3;
  EXPECT_TRUE(queryCostRanksBefore(A, B));  // higher cost wins
  EXPECT_FALSE(queryCostRanksBefore(B, A));
  B.Decisions = 5;
  EXPECT_TRUE(queryCostRanksBefore(B, A));  // tie -> lower key wins
  EXPECT_FALSE(queryCostRanksBefore(A, B));
  EXPECT_FALSE(queryCostRanksBefore(A, A)); // strict
}

//===----------------------------------------------------------------------===//
// QueryCostTracker.
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, TrackerAccumulatesOccurrencesNotCost) {
  QueryCostTracker T(4);
  T.record(sample(7, 100, 10, 20, 30));
  T.record(sample(7, 101, 10, 20, 30)); // cache-hit replay: same counters
  auto Top = T.top();
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Count, 2u);
  // Per-occurrence cost, never occurrence-weighted: this is what makes
  // the per-worker trackers merge exactly.
  EXPECT_EQ(Top[0].costUnits(), 60u);
  EXPECT_EQ(Top[0].FirstSeed, 100u);
}

TEST(ProfilerTest, TrackerMinSeedAttribution) {
  QueryCostTracker T(4);
  QueryCostSample Late = sample(7, 200, 5);
  Late.Function = "late";
  QueryCostSample Early = sample(7, 50, 5);
  Early.Function = "early";
  T.record(Late);
  T.record(Early);
  auto Top = T.top();
  ASSERT_EQ(Top.size(), 1u);
  EXPECT_EQ(Top[0].Function, "early");
  EXPECT_EQ(Top[0].FirstSeed, 50u);
}

TEST(ProfilerTest, TrackerEvictsWorstAtCapacity) {
  QueryCostTracker T(2);
  T.record(sample(1, 1, 100));
  T.record(sample(2, 2, 50));
  T.record(sample(3, 3, 75)); // evicts key 2 (the cheapest)
  auto Top = T.top();
  ASSERT_EQ(Top.size(), 2u);
  EXPECT_EQ(Top[0].KeyHash, 1u);
  EXPECT_EQ(Top[1].KeyHash, 3u);
  // A cheap newcomer is itself the eviction victim.
  T.record(sample(4, 4, 1));
  EXPECT_EQ(T.top().size(), 2u);
}

TEST(ProfilerTest, ShardedTrackersMergeToTheGlobalTopK) {
  // 40 keys with distinct costs, dealt round-robin across 4 "workers"
  // with K=8 trackers; every key recurs on every worker that saw it.
  // The merged top-8 must equal the unsharded tracker's top-8, entry for
  // entry — the -j1 == -jN guarantee at unit scale.
  constexpr unsigned K = 8;
  QueryCostTracker Whole(K);
  QueryCostTracker Shards[4] = {QueryCostTracker(K), QueryCostTracker(K),
                                QueryCostTracker(K), QueryCostTracker(K)};
  for (uint64_t I = 0; I != 40; ++I) {
    QueryCostSample S = sample(1000 + I, 10 + I, (I * 37) % 101, I % 7);
    Whole.record(S);
    Whole.record(S);
    Shards[I % 4].record(S);
    Shards[I % 4].record(S);
  }
  // Merge in two different orders; both must serialize identically.
  QueryCostTracker MergedFwd(K), MergedRev(K);
  for (int I = 0; I != 4; ++I)
    MergedFwd.merge(Shards[I]);
  for (int I = 3; I >= 0; --I)
    MergedRev.merge(Shards[I]);
  std::string Expect = topJSON(Whole.top());
  EXPECT_EQ(topJSON(MergedFwd.top()), Expect);
  EXPECT_EQ(topJSON(MergedRev.top()), Expect);
}

//===----------------------------------------------------------------------===//
// Span folds.
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, SpanFoldsAddUpToTheRootSpanExactly) {
  TraceRecorder R;
  {
    TraceSpan Root(&R, "optimize");
    for (int I = 0; I != 3; ++I) {
      TraceSpan Pass(&R, I % 2 ? "pass.gvn" : "pass.instcombine");
      TraceSpan Inner(&R, "verify");
    }
  }
  { TraceSpan Other(&R, "mutate"); }

  std::map<std::string, uint64_t> Folds = R.spanFolds();
  std::vector<std::string> Stacks;
  for (const auto &[Stack, _] : Folds)
    Stacks.push_back(Stack);
  EXPECT_EQ(Stacks, (std::vector<std::string>{
                        "mutate", "optimize", "optimize;pass.gvn",
                        "optimize;pass.gvn;verify", "optimize;pass.instcombine",
                        "optimize;pass.instcombine;verify"}));
  // Self times are the root's ring duration split without remainder.
  uint64_t RootDur = 0;
  for (const TraceRecorder::Event &E : R.events())
    if (std::string(E.Name) == "optimize")
      RootDur = E.DurNanos;
  uint64_t Sum = 0;
  for (const auto &[Stack, Nanos] : Folds)
    if (Stack.rfind("optimize", 0) == 0)
      Sum += Nanos;
  EXPECT_EQ(Sum, RootDur);
}

TEST(ProfilerTest, AbandonedSpansStayInTheirParentsSelfTime) {
  // A siglongjmp out of the optimizer skips the inner spans' destructors;
  // closing the outer span drops them and keeps their time as its own.
  TraceRecorder R;
  unsigned Outer = R.openSpan("optimize");
  R.openSpan("pass.gvn");
  R.closeSpan(Outer, "optimize", 100, 600);
  { TraceSpan Next(&R, "verify"); }

  const auto &Folds = R.spanFolds();
  EXPECT_EQ(Folds.size(), 2u);
  ASSERT_EQ(Folds.count("optimize"), 1u);
  EXPECT_EQ(Folds.at("optimize"), 500u);
  // The stack unwound: the next span is a root again.
  EXPECT_EQ(Folds.count("verify"), 1u);
  EXPECT_EQ(R.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Serialization.
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, TopQueriesJSONShape) {
  QueryCostTracker T(4);
  QueryCostSample S = sample(0xabcdef, 42, 3, 2, 1);
  S.Vars = 7;
  S.Clauses = 9;
  T.record(S);
  std::string J = topJSON(T.top());
  EXPECT_NE(J.find("\"rank\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"key\": \"0000000000abcdef\""), std::string::npos);
  EXPECT_NE(J.find("\"cost\": 6"), std::string::npos);
  EXPECT_NE(J.find("\"decisions\": 3"), std::string::npos);
  EXPECT_NE(J.find("\"propagations\": 2"), std::string::npos);
  EXPECT_NE(J.find("\"conflicts\": 1"), std::string::npos);
  EXPECT_NE(J.find("\"first_seed\": 42"), std::string::npos);
  EXPECT_NE(J.find("\"symbolic\": true"), std::string::npos);
  EXPECT_NE(J.find("\"vars\": 7, \"clauses\": 9"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Engine scale: the -j1 == -j4 byte-identity of the merged table.
//===----------------------------------------------------------------------===//

namespace {

const char *ProfiledCorpus = R"(
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

FuzzOptions profiledOptions(uint64_t Iterations) {
  FuzzOptions Opts;
  Opts.Passes = "instsimplify,constfold,instcombine,dce";
  Opts.Iterations = Iterations;
  Opts.BaseSeed = 1;
  Opts.TV.ConcreteTrials = 16;
  Opts.Bugs.enable(BugId::PR52884);
  Opts.Bugs.enable(BugId::PR50693);
  Opts.Profile.Enabled = true;
  Opts.Profile.TopK = 8;
  return Opts;
}

std::unique_ptr<Module> parseProfiledCorpus() {
  std::string Err;
  auto M = parseModule(ProfiledCorpus, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

std::string runProfiledCampaign(unsigned Jobs) {
  CampaignEngine Engine(profiledOptions(60), Jobs);
  EXPECT_GT(Engine.loadModule(parseProfiledCorpus()), 0u);
  Engine.run();
  const CampaignProfile &P = Engine.profile();
  EXPECT_TRUE(P.Enabled);
  EXPECT_FALSE(P.TopQueries.empty());
  // Whatever got tracked is internally consistent and strictly ordered.
  for (size_t I = 0; I < P.TopQueries.size(); ++I) {
    const QueryCost &Q = P.TopQueries[I];
    EXPECT_GT(Q.Count, 0u);
    EXPECT_FALSE(Q.Function.empty());
    // Only a query that reached the solver has a formula.
    EXPECT_EQ(Q.Symbolic, Q.Vars > 0) << Q.Function;
    EXPECT_EQ(Q.Symbolic, Q.Clauses > 0) << Q.Function;
    if (I) {
      EXPECT_TRUE(queryCostRanksBefore(P.TopQueries[I - 1], Q));
    }
  }
  return topJSON(P.TopQueries);
}

} // namespace

TEST(ProfilerTest, MergedTopKIsByteIdenticalAcrossWorkerCounts) {
  std::string J1 = runProfiledCampaign(1);
  std::string J4 = runProfiledCampaign(4);
  EXPECT_EQ(J1, J4);
}

TEST(ProfilerTest, ResumedCampaignReportsTheUninterruptedTopK) {
  // The trackers and span folds ride the shard checkpoint, so the queries
  // the first leg ranked survive the stop.
  const std::string Dir = ::testing::TempDir() + "amr_profile_resume";
  std::filesystem::remove_all(Dir);
  FuzzOptions Opts = profiledOptions(60);
  Opts.Survival.CheckpointDir = Dir;
  std::map<std::string, uint64_t> Leg1Folds;
  {
    CampaignEngine Leg1(Opts, 2);
    Leg1.loadModule(parseProfiledCorpus());
    Leg1.stopAfterIterations(30);
    Leg1.run();
    ASSERT_TRUE(Leg1.configError().empty()) << Leg1.configError();
    ASSERT_TRUE(Leg1.interrupted());
    Leg1Folds = Leg1.profile().SpanSelfNanos;
  }
  Opts.Survival.Resume = true;
  CampaignEngine Leg2(Opts, 2);
  Leg2.loadModule(parseProfiledCorpus());
  Leg2.run();
  ASSERT_TRUE(Leg2.configError().empty()) << Leg2.configError();
  EXPECT_FALSE(Leg2.interrupted());
  EXPECT_EQ(topJSON(Leg2.profile().TopQueries), runProfiledCampaign(1));
  // The first leg's folded time is carried, not restarted from zero.
  ASSERT_FALSE(Leg1Folds.empty());
  for (const auto &[Stack, Nanos] : Leg1Folds)
    EXPECT_GE(Leg2.profile().SpanSelfNanos.at(Stack), Nanos) << Stack;
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Run report schema v10: the profile blocks.
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, RunReportV6ProfileBlocks) {
  std::string Err;
  auto M = parseModule(ProfiledCorpus, Err);
  ASSERT_NE(M, nullptr) << Err;
  FuzzOptions Opts = profiledOptions(100);
  CampaignEngine Engine(Opts, 2);
  Engine.loadModule(std::move(M));
  Engine.run();

  RunReport Rep = Engine.runReport("profiler_test");
  std::ostringstream OS;
  writeRunReport(OS, Rep);
  std::string R = OS.str();

  EXPECT_NE(R.find("\"schema_version\": 13"), std::string::npos);
  // Both sections carry a profile block: the deterministic top-K table
  // and the volatile span folds. The v10 report has no cache-shard heat.
  size_t Det = R.find("\"profile\": {\"enabled\": true, \"topk\": 8");
  ASSERT_NE(Det, std::string::npos) << R;
  EXPECT_NE(R.find("\"queries\"", Det), std::string::npos);
  size_t Vol = R.find("\"profile\": {\"enabled\": true, \"data\"", Det + 1);
  ASSERT_NE(Vol, std::string::npos) << R;
  EXPECT_NE(R.find("\"spans\": {\"stacks\": [", Vol), std::string::npos);
  EXPECT_NE(R.find("{\"stack\": \"w0;", Vol), std::string::npos);
  EXPECT_NE(R.find("{\"stack\": \"w1;", Vol), std::string::npos);
  EXPECT_NE(R.find("\"self_us\": ", Vol), std::string::npos);
  EXPECT_NE(R.find("\"query_seconds\"", Vol), std::string::npos);
  EXPECT_EQ(R.find("cache_shards"), std::string::npos);

  // Without a profile, both blocks collapse to {"enabled": false}.
  Rep.Profile = CampaignProfile();
  std::ostringstream OS2;
  writeRunReport(OS2, Rep);
  std::string Plain = OS2.str();
  size_t First = Plain.find("\"profile\": {\"enabled\": false}");
  EXPECT_NE(First, std::string::npos);
  EXPECT_NE(Plain.find("\"profile\": {\"enabled\": false}", First + 1),
            std::string::npos);
}
