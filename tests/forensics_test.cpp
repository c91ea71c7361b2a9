//===- tests/forensics_test.cpp - Tracing and forensics-bundle tests --------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tests for the observability layer: the TraceRecorder flight recorder
/// (ring semantics, Chrome trace output), the minimal JSON reader the
/// replay path depends on, the applied-mutation trail (RNG-neutral,
/// consistent with the telemetry counters), and the end-to-end forensics
/// guarantee — an injected-defect campaign writes bundles that -replay
/// reproduces with the identical verdict and counterexample, at any
/// worker count.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/Forensics.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/JSON.h"
#include "support/TraceRecorder.h"

#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <map>
#include <sstream>

using namespace alive;
namespace fs = std::filesystem;

namespace {

std::unique_ptr<Module> parseOk(const std::string &Src) {
  std::string Err;
  auto M = parseModule(Src, Err);
  EXPECT_NE(M, nullptr) << Err;
  return M;
}

/// Same near-miss corpus as campaign_test.cpp: surfaces a simulated
/// InstCombine crash (PR52884) and miscompilation (PR50693).
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

/// A fresh, empty scratch directory under the test temp root; removed by
/// the returned guard on scope exit.
struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Name)
      : Path(fs::path(::testing::TempDir()) / Name) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() { fs::remove_all(Path); }
};

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// TraceRecorder: the flight-recorder ring.
//===----------------------------------------------------------------------===//

TEST(TraceRecorderTest, RecordsSpansAndInstantsInOrder) {
  TraceRecorder R(16);
  uint64_t T0 = TraceRecorder::now();
  R.span("mutate", T0, T0 + 1000, /*Seed=*/7);
  R.instant("bug.miscompile", /*Seed=*/7, R.intern("PR50693"));
  R.span("verify", T0 + 1000, T0 + 5000, 7, R.intern("@f"));

  auto Events = R.events();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(R.dropped(), 0u);
  EXPECT_STREQ(Events[0].Name, "mutate");
  EXPECT_EQ(Events[0].DurNanos, 1000u);
  EXPECT_EQ(Events[0].Seed, 7u);
  EXPECT_STREQ(Events[1].Name, "bug.miscompile");
  EXPECT_EQ(Events[1].DurNanos, TraceRecorder::Instant);
  EXPECT_STREQ(Events[1].Detail, "PR50693");
  EXPECT_STREQ(Events[2].Detail, "@f");
}

TEST(TraceRecorderTest, RingOverwriteKeepsTheNewestEvents) {
  TraceRecorder R(4);
  std::vector<const char *> Names = {"e0", "e1", "e2", "e3", "e4",
                                     "e5", "e6", "e7", "e8", "e9"};
  for (uint64_t I = 0; I != 10; ++I)
    R.span(Names[I], I * 10, I * 10 + 5, I);

  EXPECT_EQ(R.capacity(), 4u);
  EXPECT_EQ(R.size(), 4u);
  EXPECT_EQ(R.dropped(), 6u);
  auto Events = R.events();
  ASSERT_EQ(Events.size(), 4u);
  // Flight-recorder semantics: the tail of the timeline survives.
  for (size_t I = 0; I != 4; ++I) {
    EXPECT_STREQ(Events[I].Name, Names[6 + I]);
    EXPECT_EQ(Events[I].Seed, 6 + I);
  }
}

TEST(TraceRecorderTest, InternReturnsStablePointers) {
  TraceRecorder R(8);
  const char *A = R.intern("function_a");
  // Force many inserts; std::set nodes never move, so A must stay valid
  // and equal-by-pointer for repeated interning of the same label.
  for (int I = 0; I != 100; ++I)
    R.intern("label_" + std::to_string(I));
  EXPECT_EQ(R.intern("function_a"), A);
  EXPECT_STREQ(A, "function_a");
}

TEST(TraceRecorderTest, DisabledSpanRecordsNothing) {
  // The disabled path: a TraceSpan over a null recorder must be inert
  // (this is the "one pointer test" cost model — nothing to observe, but
  // it must not crash or dereference).
  { TraceSpan S(nullptr, "mutate", 1); }
  TraceRecorder R(4);
  { TraceSpan S(&R, "mutate", 1); }
  EXPECT_EQ(R.size(), 1u);
}

TEST(TraceRecorderTest, ChromeTraceIsParsableAndComplete) {
  TraceRecorder W0(8), W1(8);
  uint64_t T0 = TraceRecorder::now();
  W0.span("mutate", T0, T0 + 2000, 3);
  W0.instant("bug.crash", 3, W0.intern("PR52884"));
  W1.span("verify", T0 + 500, T0 + 1500, 4, W1.intern("@g"));

  std::ostringstream OS;
  writeChromeTrace(OS, {&W0, &W1}, {"worker 0", "worker 1"});

  // The file we just wrote must parse with our own JSON reader.
  JSONValue Doc;
  std::string Err;
  ASSERT_TRUE(parseJSON(OS.str(), Doc, Err)) << Err;
  const JSONValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());

  unsigned Metadata = 0, Spans = 0, Instants = 0;
  std::vector<std::string> TrackNames;
  for (const JSONValue &E : Events->Arr) {
    std::string Ph = E.getString("ph");
    if (Ph == "M") {
      ++Metadata;
      EXPECT_EQ(E.getString("name"), "thread_name");
      const JSONValue *A = E.find("args");
      ASSERT_NE(A, nullptr);
      TrackNames.push_back(A->getString("name"));
    } else if (Ph == "X") {
      ++Spans;
      EXPECT_GT(E.getUInt("dur", 0), 0u);
    } else if (Ph == "i") {
      ++Instants;
    }
  }
  EXPECT_EQ(Metadata, 2u);
  EXPECT_EQ(Spans, 2u);
  EXPECT_EQ(Instants, 1u);
  ASSERT_EQ(TrackNames.size(), 2u);
  EXPECT_EQ(TrackNames[0], "worker 0");
  EXPECT_EQ(TrackNames[1], "worker 1");
}

//===----------------------------------------------------------------------===//
// The JSON reader the replay path depends on.
//===----------------------------------------------------------------------===//

TEST(JSONTest, KeepsExactUInt64) {
  // PRNG seeds exceed double's 53-bit mantissa; the parser must keep the
  // exact integer alongside the double.
  JSONValue V;
  std::string Err;
  ASSERT_TRUE(parseJSON("{\"seed\": 18446744073709551615}", V, Err)) << Err;
  EXPECT_EQ(V.getUInt("seed"), 18446744073709551615ull);
}

TEST(JSONTest, ParsesEscapesAndNesting) {
  JSONValue V;
  std::string Err;
  ASSERT_TRUE(parseJSON(
      R"({"s": "a\n\"b\"\\A", "arr": [1, true, null, {"k": -2.5}]})", V,
      Err))
      << Err;
  EXPECT_EQ(V.getString("s"), "a\n\"b\"\\A");
  const JSONValue *Arr = V.find("arr");
  ASSERT_NE(Arr, nullptr);
  ASSERT_TRUE(Arr->isArray());
  ASSERT_EQ(Arr->Arr.size(), 4u);
  EXPECT_EQ(Arr->Arr[0].Int, 1u);
  EXPECT_TRUE(Arr->Arr[1].B);
  EXPECT_EQ(Arr->Arr[2].K, JSONValue::Null);
  EXPECT_DOUBLE_EQ(Arr->Arr[3].find("k")->Num, -2.5);
}

TEST(JSONTest, RejectsMalformedDocuments) {
  JSONValue V;
  std::string Err;
  EXPECT_FALSE(parseJSON("{\"a\": 1,}", V, Err));
  EXPECT_FALSE(parseJSON("{\"a\": 1} trailing", V, Err));
  EXPECT_FALSE(parseJSON("[1, 2", V, Err));
  EXPECT_FALSE(parseJSON("", V, Err));
  EXPECT_FALSE(Err.empty());
}

TEST(JSONTest, AccessorsReturnDefaultsOnMismatch) {
  JSONValue V;
  std::string Err;
  ASSERT_TRUE(parseJSON("{\"n\": 5, \"s\": \"x\"}", V, Err));
  EXPECT_EQ(V.getString("n", "dflt"), "dflt");
  EXPECT_EQ(V.getUInt("s", 42), 42u);
  EXPECT_EQ(V.find("missing"), nullptr);
  EXPECT_EQ(V.getBool("missing", true), true);
}

TEST(JSONTest, ReusedValueStartsEmpty) {
  // Parsing into a value that held a document replaces it: none of the old
  // members may survive into the new one.
  JSONValue V;
  std::string Err;
  ASSERT_TRUE(parseJSON("{\"a\": [1, 2], \"b\": \"x\"}", V, Err)) << Err;
  ASSERT_TRUE(parseJSON("{}", V, Err)) << Err;
  EXPECT_TRUE(V.isObject());
  EXPECT_TRUE(V.Obj.empty());
  EXPECT_EQ(V.find("a"), nullptr);
  ASSERT_TRUE(parseJSON("[]", V, Err)) << Err;
  EXPECT_TRUE(V.isArray());
  EXPECT_TRUE(V.Arr.empty());
  EXPECT_TRUE(V.Obj.empty());
}

//===----------------------------------------------------------------------===//
// The applied-mutation trail.
//===----------------------------------------------------------------------===//

TEST(ForensicsTest, TrailRecordingIsRNGNeutral) {
  // §III-E cornerstone: recording the trail must not consume randomness,
  // so trailed and untrailed regenerations are byte-identical.
  FuzzOptions Opts = twoBugOptions(0);
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  for (uint64_t Seed : {1ull, 99ull, 123456789ull}) {
    MutationTrail Trail;
    auto WithTrail = Loop.makeMutant(Seed, Trail);
    auto Without = Loop.makeMutant(Seed);
    ASSERT_NE(WithTrail, nullptr);
    EXPECT_EQ(printModule(*WithTrail), printModule(*Without));
    // Every entry names a function of the module.
    for (const MutationTrailEntry &E : Trail) {
      EXPECT_FALSE(E.Function.empty());
      EXPECT_FALSE(E.Detail.empty());
    }
  }
}

TEST(ForensicsTest, TrailCountsMatchRegistryFamilyCounters) {
  // Regenerating the trail for every campaign seed reproduces exactly the
  // per-family applied counts the StatRegistry aggregated live.
  const uint64_t Iterations = 100;
  FuzzOptions Opts = twoBugOptions(Iterations);
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();

  std::map<std::string, uint64_t> FromTrails;
  uint64_t Entries = 0;
  for (uint64_t I = 0; I != Iterations; ++I) {
    MutationTrail Trail;
    Loop.makeMutant(Opts.BaseSeed + I, Trail);
    for (const MutationTrailEntry &E : Trail) {
      ++FromTrails[mutationKindName(E.Kind)];
      ++Entries;
    }
  }
  EXPECT_EQ(Entries, S.MutationsApplied);

  const StatRegistry &R = Loop.registry();
  for (unsigned K = 0; K != (unsigned)MutationKind::NumKinds; ++K) {
    std::string Family = mutationKindName((MutationKind)K);
    EXPECT_EQ(FromTrails[Family],
              R.counterValue("mutation." + Family + ".applied"))
        << "family " << Family;
  }
}

//===----------------------------------------------------------------------===//
// Forensics bundles: write, replay, tamper, parallel determinism.
//===----------------------------------------------------------------------===//

TEST(ForensicsTest, CampaignWritesReplayableBundles) {
  ScratchDir Dir("amr-forensics-bundles");
  // 400 iterations: enough for this corpus to surface both bug kinds, so
  // the replay check covers crash and miscompile (verdict) bundles.
  FuzzOptions Opts = twoBugOptions(400);
  Opts.BugBundleDir = Dir.Path.string();
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  const FuzzStats &S = Loop.run();

  ASSERT_GT(Loop.bugs().size(), 0u)
      << "corpus must surface bugs for the replay check to mean anything";
  EXPECT_GT(S.Crashes, 0u);
  EXPECT_GT(S.RefinementFailures, 0u)
      << "no miscompile in range: verdict bundles untested";
  EXPECT_GT(S.BundlesWritten, 0u);
  EXPECT_EQ(S.BundleFailures, 0u);
  EXPECT_TRUE(Loop.bundleError().empty()) << Loop.bundleError();

  for (const BugRecord &B : Loop.bugs()) {
    ASSERT_FALSE(B.BundlePath.empty())
        << "bug seed " << B.MutantSeed << " has no bundle";
    ASSERT_TRUE(fs::exists(fs::path(B.BundlePath) / "manifest.json"));
    ASSERT_TRUE(fs::exists(fs::path(B.BundlePath) / "original.ll"));

    // The manifest is valid JSON at the pinned schema version, and its
    // record echoes the bug.
    JSONValue Manifest;
    std::string Err;
    ASSERT_TRUE(parseJSON(slurp(fs::path(B.BundlePath) / "manifest.json"),
                          Manifest, Err))
        << Err;
    EXPECT_EQ(Manifest.getUInt("schema_version"), BundleManifestSchemaVersion);
    const JSONValue *Rec = Manifest.find("record");
    ASSERT_NE(Rec, nullptr);
    EXPECT_EQ(Rec->getUInt("seed"), B.MutantSeed);

    // The tentpole guarantee: the recorded verdict reproduces.
    ReplayResult R = replayBundle(B.BundlePath);
    EXPECT_TRUE(R.Ok) << B.BundlePath << ": " << R.Error;
    EXPECT_EQ(R.Seed, B.MutantSeed);
    EXPECT_EQ(R.ActualVerdict, R.ExpectedVerdict);
  }
}

TEST(ForensicsTest, ParallelBundlesAreByteIdenticalToSequential) {
  // -j4 == -j1, down to the bundle bytes: same directory names, same
  // manifests, same IR files.
  ScratchDir SeqDir("amr-forensics-j1"), ParDir("amr-forensics-j4");
  FuzzOptions Opts = twoBugOptions(150);

  auto RunInto = [&](const fs::path &Dir, unsigned Jobs) {
    FuzzOptions O = Opts;
    O.BugBundleDir = Dir.string();
    CampaignEngine Engine(O, Jobs);
    Engine.loadModule(parseOk(TwoBugCorpus));
    const FuzzStats &S = Engine.run();
    EXPECT_EQ(S.BundleFailures, 0u);
    return S.BundlesWritten;
  };
  uint64_t NSeq = RunInto(SeqDir.Path, 1);
  uint64_t NPar = RunInto(ParDir.Path, 4);
  ASSERT_GT(NSeq, 0u);
  EXPECT_EQ(NSeq, NPar);

  std::vector<fs::path> SeqFiles;
  for (const auto &E : fs::recursive_directory_iterator(SeqDir.Path))
    if (E.is_regular_file())
      SeqFiles.push_back(fs::relative(E.path(), SeqDir.Path));
  ASSERT_FALSE(SeqFiles.empty());
  for (const fs::path &Rel : SeqFiles) {
    ASSERT_TRUE(fs::exists(ParDir.Path / Rel)) << Rel;
    EXPECT_EQ(slurp(SeqDir.Path / Rel), slurp(ParDir.Path / Rel)) << Rel;
  }
  // No extra files on the parallel side either.
  size_t ParFiles = 0;
  for (const auto &E : fs::recursive_directory_iterator(ParDir.Path))
    if (E.is_regular_file())
      ++ParFiles;
  EXPECT_EQ(SeqFiles.size(), ParFiles);
}

TEST(ForensicsTest, TamperedBundleFailsReplay) {
  ScratchDir Dir("amr-forensics-tamper");
  FuzzOptions Opts = twoBugOptions(150);
  Opts.BugBundleDir = Dir.Path.string();
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  Loop.run();
  ASSERT_GT(Loop.bugs().size(), 0u);

  // Every bundle kind stores the pre-optimization mutant, so any will do.
  std::string Bundle = Loop.bugs().front().BundlePath;
  ASSERT_FALSE(Bundle.empty());
  ASSERT_TRUE(fs::exists(fs::path(Bundle) / "mutant.ll"));
  ASSERT_TRUE(replayBundle(Bundle).Ok);

  // Append a comment line to the stored mutant: the regenerated mutant no
  // longer matches byte-for-byte, so replay must refuse.
  {
    std::ofstream Out(fs::path(Bundle) / "mutant.ll", std::ios::app);
    Out << "; tampered\n";
  }
  ReplayResult R = replayBundle(Bundle);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(ForensicsTest, ReplayRejectsMissingOrBrokenBundles) {
  ReplayResult Missing = replayBundle("/nonexistent/amr-bundle");
  EXPECT_FALSE(Missing.Ok);
  EXPECT_FALSE(Missing.Error.empty());

  ScratchDir Dir("amr-forensics-broken");
  {
    std::ofstream Out(Dir.Path / "manifest.json");
    Out << "{\"schema_version\": 999}";
  }
  ReplayResult Broken = replayBundle(Dir.Path.string());
  EXPECT_FALSE(Broken.Ok);
  EXPECT_NE(Broken.Error.find("schema"), std::string::npos) << Broken.Error;
}

TEST(ForensicsTest, OutcomesAreCollectedWithoutBundleDir) {
  // lastOutcomes feeds -replay's comparison; it must be populated even
  // when bundle writing is disabled.
  FuzzOptions Opts = twoBugOptions(150);
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  Loop.run();
  ASSERT_GT(Loop.bugs().size(), 0u);

  uint64_t Seed = Loop.bugs().front().MutantSeed;
  Loop.runIteration(Seed);
  ASSERT_FALSE(Loop.lastOutcomes().empty());
  const ForensicRecord &FR = Loop.lastOutcomes().front();
  EXPECT_EQ(FR.Seed, Seed);
  EXPECT_FALSE(FR.VerdictSlug.empty());
}

//===----------------------------------------------------------------------===//
// Tracing wired through the loop and engine.
//===----------------------------------------------------------------------===//

TEST(ForensicsTest, TracedCampaignProducesStageAndPassSpans) {
  FuzzOptions Opts = twoBugOptions(30);
  Opts.TraceEnabled = true;
  FuzzerLoop Loop(Opts);
  Loop.loadModule(parseOk(TwoBugCorpus));
  Loop.run();

  ASSERT_NE(Loop.trace(), nullptr);
  std::map<std::string, unsigned> ByName;
  for (const TraceRecorder::Event &E : Loop.trace()->events())
    ++ByName[E.Name];
  EXPECT_GT(ByName["mutate"], 0u);
  EXPECT_GT(ByName["optimize"], 0u);
  EXPECT_GT(ByName["verify"], 0u);
  EXPECT_GT(ByName["pass.instcombine"], 0u);
  // The injected defects fire at least once in 30 iterations of this
  // corpus, leaving bug instants on the timeline.
  EXPECT_GT(ByName["bug.crash"] + ByName["bug.miscompile"], 0u);
}

TEST(ForensicsTest, EngineMergesWorkerTracksIntoOneTimeline) {
  ScratchDir Dir("amr-forensics-trace");
  FuzzOptions Opts = twoBugOptions(40);
  Opts.TraceEnabled = true;
  CampaignEngine Engine(Opts, 2);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();

  fs::path TracePath = Dir.Path / "trace.json";
  std::string Err;
  ASSERT_TRUE(Engine.writeTrace(TracePath.string(), Err)) << Err;

  JSONValue Doc;
  ASSERT_TRUE(parseJSON(slurp(TracePath), Doc, Err)) << Err;
  const JSONValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  std::vector<std::string> Tracks;
  for (const JSONValue &E : Events->Arr)
    if (E.getString("ph") == "M")
      Tracks.push_back(E.find("args")->getString("name"));
  // One master track plus two worker tracks.
  ASSERT_EQ(Tracks.size(), 3u);
  EXPECT_EQ(Tracks[0], "master");
  EXPECT_EQ(Tracks[1], "worker 0");
  EXPECT_EQ(Tracks[2], "worker 1");
}

TEST(ForensicsTest, UntracedEngineReportsNoTrace) {
  FuzzOptions Opts = twoBugOptions(5);
  CampaignEngine Engine(Opts, 1);
  Engine.loadModule(parseOk(TwoBugCorpus));
  Engine.run();
  std::string Err;
  EXPECT_FALSE(Engine.writeTrace("/tmp/never-written.json", Err));
  EXPECT_NE(Err.find("tracing"), std::string::npos) << Err;
}
