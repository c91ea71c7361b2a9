//===- tests/telemetry_test.cpp - Telemetry subsystem unit tests ------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the campaign telemetry subsystem: histogram bucket
/// boundaries and percentile math, the registry's commutative merge (any
/// permutation of worker registries serializes byte-identically), the
/// volatility split of writeJSON, and the ScopedTimer sinks.
///
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <cmath>
#include <gtest/gtest.h>
#include <sstream>

using namespace alive;

namespace {

std::string toJSON(const StatRegistry &R, Volatility V) {
  std::ostringstream OS;
  R.writeJSON(OS, V);
  return OS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram bucket boundaries.
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, BucketBoundariesAreExact) {
  // Bucket 0 holds everything up to (and including) 1 microsecond;
  // bucket i covers (2^(i-1) us, 2^i us].
  EXPECT_EQ(Histogram::bucketIndex(0.0), 0u);
  EXPECT_EQ(Histogram::bucketIndex(5e-7), 0u);
  EXPECT_EQ(Histogram::bucketIndex(1e-6), 0u);
  EXPECT_EQ(Histogram::bucketIndex(2e-6), 1u);
  EXPECT_EQ(Histogram::bucketIndex(2.0000001e-6), 2u);
  EXPECT_EQ(Histogram::bucketIndex(4e-6), 2u);
  // A sample exactly on a bucket's (inclusive) bound lands in that bucket.
  EXPECT_EQ(Histogram::bucketIndex(Histogram::bucketUpperBound(20)), 20u);
  // Anything past every finite bound goes to the unbounded last bucket.
  EXPECT_EQ(Histogram::bucketIndex(1e12), Histogram::NumBuckets - 1);
  // Bounds double bucket to bucket, and the last one is unbounded.
  EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(3),
                   2 * Histogram::bucketUpperBound(2));
  EXPECT_TRUE(std::isinf(Histogram::bucketUpperBound(Histogram::NumBuckets - 1)));
}

TEST(TelemetryTest, RecordTracksCountSumMinMax) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0.0);
  EXPECT_EQ(H.percentile(0.5), 0.0);
  H.record(0.001);
  H.record(0.004);
  H.record(0.002);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_DOUBLE_EQ(H.sum(), 0.007);
  EXPECT_DOUBLE_EQ(H.min(), 0.001);
  EXPECT_DOUBLE_EQ(H.max(), 0.004);
}

TEST(TelemetryTest, PercentileIsBucketUpperBoundClampedToRange) {
  Histogram H;
  // 90 fast samples in one bucket, 10 slow ones in another.
  for (int I = 0; I != 90; ++I)
    H.record(3e-6); // bucket (2us, 4us]
  for (int I = 0; I != 10; ++I)
    H.record(1.0); // bucket (0.5s, 1.05s]
  // p50 and p90 rank inside the fast bucket: its 4us upper bound.
  EXPECT_DOUBLE_EQ(H.percentile(0.5), 4e-6);
  EXPECT_DOUBLE_EQ(H.percentile(0.9), 4e-6);
  // p99 ranks into the slow bucket, clamped to the observed max.
  EXPECT_DOUBLE_EQ(H.percentile(0.99), 1.0);
  // p0 ranks as the first sample (the fast bucket's bound); p100 clamps
  // to the observed max.
  EXPECT_DOUBLE_EQ(H.percentile(0.0), 4e-6);
  EXPECT_DOUBLE_EQ(H.percentile(1.0), 1.0);
}

TEST(TelemetryTest, PercentilesAreMonotoneOnAdversarialDistributions) {
  // Distributions engineered to trip an unclamped estimator: a huge mass
  // in a tiny bucket next to a thin tail in a wide one (the wide bucket's
  // raw upper bound can exceed the max sample by almost 2x), an isolated
  // spike, samples in the unbounded last bucket, and a single sample.
  Histogram Hists[4];
  for (int I = 0; I != 999; ++I)
    Hists[0].record(3e-6);
  Hists[0].record(17.4); // bucket (16.8s, 33.6s] — bound way above max
  Hists[1].record(1e-6);
  for (int I = 0; I != 50; ++I)
    Hists[1].record(0.9);
  Hists[2].record(2.0);
  Hists[2].record(1e12); // unbounded last bucket
  Hists[3].record(0.123);
  for (const Histogram &H : Hists) {
    // Monotone over a dense grid of P, and never above the observed max.
    double Prev = 0;
    for (double P = 0.0; P <= 1.0; P += 0.01) {
      double V = H.percentile(P);
      EXPECT_GE(V, Prev) << "P=" << P;
      EXPECT_LE(V, H.max()) << "P=" << P;
      EXPECT_GE(V, H.min()) << "P=" << P;
      Prev = V;
    }
    // The specific chain every report quotes.
    EXPECT_LE(H.percentile(0.5), H.percentile(0.9));
    EXPECT_LE(H.percentile(0.9), H.percentile(0.99));
    EXPECT_LE(H.percentile(0.99), H.max());
  }
  // The regression that motivated the clamp: 999 fast + 1 slow sample must
  // report p90 <= p99, not a p90 above the slowest sample ever recorded.
  EXPECT_DOUBLE_EQ(Hists[0].percentile(0.9), 4e-6);
  // p100 ranks the slow sample into the (16.8s, 33.6s] bucket; the raw
  // 33.6s bound clamps to the 17.4s max actually observed.
  EXPECT_DOUBLE_EQ(Hists[0].percentile(1.0), 17.4);
}

TEST(TelemetryTest, HistogramMergeSumsBuckets) {
  Histogram A, B;
  A.record(1e-6);
  A.record(0.5);
  B.record(1e-3);
  B.record(2.0);
  A.merge(B);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_NEAR(A.sum(), 2.501001, 1e-12);
  EXPECT_DOUBLE_EQ(A.min(), 1e-6);
  EXPECT_DOUBLE_EQ(A.max(), 2.0);
  // Merging an empty histogram changes nothing.
  Histogram Empty;
  A.merge(Empty);
  EXPECT_EQ(A.count(), 4u);
  EXPECT_DOUBLE_EQ(A.min(), 1e-6);
}

//===----------------------------------------------------------------------===//
// Registry basics and the volatility split.
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, CountersGaugesAndLookup) {
  StatRegistry R;
  EXPECT_EQ(R.counterValue("absent"), 0u);
  std::atomic<uint64_t> &C = R.counter("c");
  C += 3;
  ++R.counter("c"); // same slot
  EXPECT_EQ(R.counterValue("c"), 4u);
  R.gauge("g") = 2.5;
  R.histogram("h").record(0.1);
  EXPECT_EQ(R.histogram("h").count(), 1u);
}

TEST(TelemetryTest, WriteJSONSeparatesVolatilityClasses) {
  StatRegistry R;
  R.counter("det.counter") = 7;
  R.counter("vol.counter", Volatility::Volatile) = 9;
  R.gauge("det.gauge") = 1.5;
  R.histogram("lat").record(0.25); // histograms are always volatile

  std::string Det = toJSON(R, Volatility::Deterministic);
  std::string Vol = toJSON(R, Volatility::Volatile);
  EXPECT_NE(Det.find("det.counter"), std::string::npos);
  EXPECT_NE(Det.find("det.gauge"), std::string::npos);
  EXPECT_EQ(Det.find("vol.counter"), std::string::npos);
  EXPECT_EQ(Det.find("lat"), std::string::npos);
  EXPECT_NE(Vol.find("vol.counter"), std::string::npos);
  EXPECT_NE(Vol.find("lat"), std::string::npos);
  EXPECT_EQ(Vol.find("det.counter"), std::string::npos);
}

TEST(TelemetryTest, MergeSumsCountersAndMaxesGauges) {
  StatRegistry A, B;
  A.counter("shared") = 2;
  B.counter("shared") = 5;
  B.counter("only-b") = 1;
  A.gauge("peak") = 3.0;
  B.gauge("peak") = 7.0;
  A.merge(B);
  EXPECT_EQ(A.counterValue("shared"), 7u);
  EXPECT_EQ(A.counterValue("only-b"), 1u);
  EXPECT_DOUBLE_EQ(A.gauge("peak"), 7.0);
}

TEST(TelemetryTest, MergeOrderDoesNotChangeSerializedOutput) {
  // The determinism contract: merging any permutation of worker
  // registries yields byte-identical JSON.
  auto MakeWorker = [](unsigned Salt) {
    StatRegistry R;
    R.counter("mutation.add-inst.applied") = 10 + Salt;
    R.counter("pass.dce.invocations") = 100 * (Salt + 1);
    R.gauge("depth") = 1.0 + Salt;
    for (unsigned I = 0; I != 5 + Salt; ++I)
      R.histogram("stage.mutate.seconds").record(1e-4 * (Salt + 1));
    return R;
  };
  StatRegistry W0 = MakeWorker(0), W1 = MakeWorker(1), W2 = MakeWorker(2);

  const unsigned Orders[][3] = {{0, 1, 2}, {2, 1, 0}, {1, 2, 0},
                                {0, 2, 1}, {2, 0, 1}, {1, 0, 2}};
  const StatRegistry *Workers[3] = {&W0, &W1, &W2};
  std::string Reference;
  for (const auto &Order : Orders) {
    StatRegistry Merged;
    for (unsigned I : Order)
      Merged.merge(*Workers[I]);
    std::string Out = toJSON(Merged, Volatility::Deterministic) +
                      toJSON(Merged, Volatility::Volatile);
    if (Reference.empty())
      Reference = Out;
    EXPECT_EQ(Out, Reference);
  }
  EXPECT_NE(Reference.find("\"mutation.add-inst.applied\": 33"),
            std::string::npos)
      << Reference;
}

TEST(TelemetryTest, VolatilityIsFixedAtCreation) {
  StatRegistry R;
  R.counter("c", Volatility::Volatile) = 1;
  R.counter("c", Volatility::Deterministic) += 1; // ignored: stays volatile
  EXPECT_EQ(toJSON(R, Volatility::Deterministic).find("\"c\""),
            std::string::npos);
  EXPECT_NE(toJSON(R, Volatility::Volatile).find("\"c\": 2"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// ScopedTimer.
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, ScopedTimerFeedsAllSinks) {
  Histogram H;
  double Accum = 0;
  {
    ScopedTimer T(&H, &Accum);
    // Spin a little so the elapsed time is non-zero.
    volatile unsigned X = 0;
    for (unsigned I = 0; I != 100000; ++I)
      X += I;
    (void)X;
  }
  EXPECT_EQ(H.count(), 1u);
  EXPECT_GT(Accum, 0.0);
  EXPECT_DOUBLE_EQ(H.sum(), Accum);
}

TEST(TelemetryTest, ScopedTimerStopIsIdempotent) {
  Histogram H;
  double Accum = 0;
  ScopedTimer T(&H, &Accum);
  double First = T.stop();
  double Second = T.stop(); // no double-record, same value
  EXPECT_EQ(First, Second);
  EXPECT_EQ(H.count(), 1u);
  EXPECT_DOUBLE_EQ(Accum, First);
}

TEST(TelemetryTest, ScopedTimerCancelRecordsNothing) {
  Histogram H;
  double Accum = 0;
  {
    ScopedTimer T(&H, &Accum);
    T.cancel();
  }
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(Accum, 0.0);
}

//===----------------------------------------------------------------------===//
// JSON helpers.
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, JSONStringEscaping) {
  std::ostringstream OS;
  writeJSONString(OS, "a\"b\\c\n\t\x01");
  EXPECT_EQ(OS.str(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(TelemetryTest, HistogramJSONHasPercentilesAndBuckets) {
  Histogram H;
  for (int I = 0; I != 100; ++I)
    H.record(1e-3);
  std::ostringstream OS;
  writeHistogramJSON(OS, H);
  const std::string S = OS.str();
  EXPECT_NE(S.find("\"count\": 100"), std::string::npos) << S;
  EXPECT_NE(S.find("\"p50_s\""), std::string::npos);
  EXPECT_NE(S.find("\"p90_s\""), std::string::npos);
  EXPECT_NE(S.find("\"p99_s\""), std::string::npos);
  EXPECT_NE(S.find("\"le_s\""), std::string::npos);
}
