//===- support/Telemetry.cpp - Campaign stat registry ----------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

using namespace alive;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

namespace {

/// Bucket bounds in seconds: 1us * 2^i. Precomputed once; the comparison
/// walk in bucketIndex is exact at the boundaries (no log() rounding).
const double *bucketBounds() {
  static double Bounds[Histogram::NumBuckets];
  static bool Init = [] {
    double B = 1e-6;
    for (unsigned I = 0; I + 1 != Histogram::NumBuckets; ++I, B *= 2)
      Bounds[I] = B;
    Bounds[Histogram::NumBuckets - 1] =
        std::numeric_limits<double>::infinity();
    return true;
  }();
  (void)Init;
  return Bounds;
}

} // namespace

double Histogram::bucketUpperBound(unsigned I) { return bucketBounds()[I]; }

unsigned Histogram::bucketIndex(double Seconds) {
  const double *B = bucketBounds();
  unsigned I = 0;
  while (I + 1 != NumBuckets && Seconds > B[I])
    ++I;
  return I;
}

void Histogram::record(double Seconds) {
  if (Seconds < 0)
    Seconds = 0;
  ++Buckets[bucketIndex(Seconds)];
  Min = std::min(Min, Seconds);
  Max = std::max(Max, Seconds);
  Sum += Seconds;
  ++Count;
}

void Histogram::merge(const Histogram &O) {
  if (O.Count == 0)
    return;
  for (unsigned I = 0; I != NumBuckets; ++I)
    Buckets[I] += O.Buckets[I];
  Min = std::min(Min, O.Min);
  Max = std::max(Max, O.Max);
  Sum += O.Sum;
  Count += O.Count;
}

double Histogram::percentile(double P) const {
  if (Count == 0)
    return 0;
  P = std::clamp(P, 0.0, 1.0);
  // The rank of the percentile sample (1-based, ceil) — p50 of 4 samples
  // is sample #2, p99 of 4 is sample #4.
  uint64_t Rank =
      std::max<uint64_t>(1, (uint64_t)std::ceil(P * (double)Count));
  // The estimate is the upper bound of the bucket holding the ranked
  // sample, clamped into [Min, Max]: a log bucket's raw bound can exceed
  // every sample actually recorded into it (by up to 2x), and an
  // unclamped bound once produced impossible reports (p90 > p99 == a
  // value above the max sample). Clamping also makes the estimate
  // monotone non-decreasing in P: the selected bucket index is monotone
  // in Rank, bucket bounds are monotone in the index, and clamping to a
  // fixed interval preserves both.
  uint64_t Cum = Buckets[0];
  unsigned I = 0;
  while (Cum < Rank && I + 1 != NumBuckets)
    Cum += Buckets[++I];
  return std::clamp(bucketUpperBound(I), Min, Max);
}

//===----------------------------------------------------------------------===//
// StatRegistry
//===----------------------------------------------------------------------===//

uint64_t &StatRegistry::counter(const std::string &Name, Volatility V) {
  auto [It, New] = Counters.try_emplace(Name);
  if (New)
    It->second.V = V;
  return It->second.Value;
}

Histogram &StatRegistry::histogram(const std::string &Name) {
  return Histograms[Name];
}

uint64_t StatRegistry::counterValue(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second.Value;
}

void StatRegistry::merge(const StatRegistry &O) {
  if (this == &O)
    return;
  for (const auto &[Name, E] : O.Counters)
    counter(Name, E.V) += E.Value;
  for (const auto &[Name, H] : O.Histograms)
    Histograms[Name].merge(H);
}

//===----------------------------------------------------------------------===//
// JSON serialization
//===----------------------------------------------------------------------===//

void alive::writeJSONString(std::ostream &OS, const std::string &S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    case '\r':
      OS << "\\r";
      break;
    default:
      if ((unsigned char)C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

void alive::writeJSONDouble(std::ostream &OS, double D) {
  if (!std::isfinite(D)) {
    // JSON has no infinity; the only infinite value we hold is the last
    // bucket bound, which callers avoid serializing. Clamp just in case.
    OS << "1e308";
    return;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.9g", D);
  OS << Buf;
}

void alive::writeHistogramJSON(std::ostream &OS, const Histogram &H) {
  OS << "{\"count\": " << H.count() << ", \"sum_s\": ";
  writeJSONDouble(OS, H.sum());
  OS << ", \"min_s\": ";
  writeJSONDouble(OS, H.min());
  OS << ", \"max_s\": ";
  writeJSONDouble(OS, H.max());
  OS << ", \"p50_s\": ";
  writeJSONDouble(OS, H.percentile(0.50));
  OS << ", \"p90_s\": ";
  writeJSONDouble(OS, H.percentile(0.90));
  OS << ", \"p99_s\": ";
  writeJSONDouble(OS, H.percentile(0.99));
  OS << ", \"buckets\": [";
  bool First = true;
  for (unsigned I = 0; I != Histogram::NumBuckets; ++I) {
    if (!H.bucketCount(I))
      continue;
    if (!First)
      OS << ", ";
    First = false;
    OS << "{\"le_s\": ";
    // The last bucket is unbounded; report its bound as the largest
    // observed sample so the JSON stays finite.
    writeJSONDouble(OS, I + 1 == Histogram::NumBuckets
                            ? H.max()
                            : Histogram::bucketUpperBound(I));
    OS << ", \"count\": " << H.bucketCount(I) << "}";
  }
  OS << "]}";
}

void StatRegistry::writeJSON(std::ostream &OS, Volatility V,
                             const std::string &Indent) const {
  OS << "{\n" << Indent << "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, E] : Counters) {
    if (E.V != V)
      continue;
    OS << (First ? "\n" : ",\n") << Indent << "    ";
    First = false;
    writeJSONString(OS, Name);
    OS << ": " << E.Value;
  }
  OS << (First ? "" : "\n" + Indent + "  ") << "}";
  if (V == Volatility::Volatile) {
    OS << ",\n" << Indent << "  \"histograms\": {";
    First = true;
    for (const auto &[Name, H] : Histograms) {
      OS << (First ? "\n" : ",\n") << Indent << "    ";
      First = false;
      writeJSONString(OS, Name);
      OS << ": ";
      writeHistogramJSON(OS, H);
    }
    OS << (First ? "" : "\n" + Indent + "  ") << "}";
  }
  OS << "\n" << Indent << "}";
}

//===----------------------------------------------------------------------===//
// ScopedTimer
//===----------------------------------------------------------------------===//

double ScopedTimer::stop() {
  if (!Armed)
    return Elapsed;
  Armed = false;
  Elapsed = T.seconds();
  if (H)
    H->record(Elapsed);
  if (Accum)
    *Accum += Elapsed;
  return Elapsed;
}
