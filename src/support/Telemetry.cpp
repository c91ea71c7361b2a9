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

constexpr auto Relaxed = std::memory_order_relaxed;

void atomicAdd(std::atomic<double> &A, double D) {
  double Old = A.load(Relaxed);
  while (!A.compare_exchange_weak(Old, Old + D, Relaxed, Relaxed))
    ;
}

void atomicMin(std::atomic<double> &A, double D) {
  double Old = A.load(Relaxed);
  while (D < Old && !A.compare_exchange_weak(Old, D, Relaxed, Relaxed))
    ;
}

void atomicMax(std::atomic<double> &A, double D) {
  double Old = A.load(Relaxed);
  while (D > Old && !A.compare_exchange_weak(Old, D, Relaxed, Relaxed))
    ;
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

Histogram &Histogram::operator=(const Histogram &O) {
  if (this == &O)
    return *this;
  for (unsigned I = 0; I != NumBuckets; ++I)
    Buckets[I].store(O.Buckets[I].load(Relaxed), Relaxed);
  Sum.store(O.Sum.load(Relaxed), Relaxed);
  Min.store(O.Min.load(Relaxed), Relaxed);
  Max.store(O.Max.load(Relaxed), Relaxed);
  // Count last: a reader of *this* copy (which is private to its owner
  // anyway) never sees a count ahead of the data.
  Count.store(O.Count.load(Relaxed), Relaxed);
  return *this;
}

void Histogram::record(double Seconds) {
  if (Seconds < 0)
    Seconds = 0;
  Buckets[bucketIndex(Seconds)].fetch_add(1, Relaxed);
  atomicMin(Min, Seconds);
  atomicMax(Max, Seconds);
  atomicAdd(Sum, Seconds);
  // Count last so a concurrent percentile() that trusts Count has the
  // bucket increment in view more often than not (relaxed order makes
  // this a heuristic, not a guarantee — percentile tolerates either skew).
  Count.fetch_add(1, Relaxed);
}

void Histogram::merge(const Histogram &O) {
  uint64_t OCount = O.Count.load(Relaxed);
  if (OCount == 0)
    return;
  for (unsigned I = 0; I != NumBuckets; ++I)
    if (uint64_t N = O.Buckets[I].load(Relaxed))
      Buckets[I].fetch_add(N, Relaxed);
  atomicMin(Min, O.Min.load(Relaxed));
  atomicMax(Max, O.Max.load(Relaxed));
  atomicAdd(Sum, O.Sum.load(Relaxed));
  Count.fetch_add(OCount, Relaxed);
}

double Histogram::percentile(double P) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  P = std::clamp(P, 0.0, 1.0);
  // The rank of the percentile sample (1-based, ceil) — p50 of 4 samples
  // is sample #2, p99 of 4 is sample #4.
  uint64_t Rank = std::max<uint64_t>(1, (uint64_t)std::ceil(P * (double)N));
  // The estimate is the upper bound of the bucket holding the ranked
  // sample, clamped into [Min, Max]: a log bucket's raw bound can exceed
  // every sample actually recorded into it (by up to 2x), and an
  // unclamped bound once produced impossible reports (p90 > p99 == a
  // value above the max sample). Clamping also makes the estimate
  // monotone non-decreasing in P: the selected bucket index is monotone
  // in Rank, bucket bounds are monotone in the index, and clamping to a
  // fixed interval preserves both. Under a concurrent writer Lo/Hi are
  // re-ordered defensively — a mid-update snapshot may transiently see
  // max < min.
  double Lo = min(), Hi = max();
  if (Lo > Hi)
    std::swap(Lo, Hi);
  uint64_t Cum = 0;
  for (unsigned I = 0; I != NumBuckets; ++I) {
    Cum += bucketCount(I);
    if (Cum >= Rank)
      return std::clamp(bucketUpperBound(I), Lo, Hi);
  }
  // Bucket sum fell short of Count (in-flight concurrent record):
  // degrade to the observed max.
  return Hi;
}

//===----------------------------------------------------------------------===//
// StatRegistry
//===----------------------------------------------------------------------===//

StatRegistry::StatRegistry(const StatRegistry &O) {
  std::lock_guard<std::mutex> L(O.M);
  copyFromLocked(O);
}

StatRegistry &StatRegistry::operator=(const StatRegistry &O) {
  if (this == &O)
    return *this;
  std::scoped_lock L(M, O.M);
  Counters.clear();
  Gauges.clear();
  Histograms.clear();
  copyFromLocked(O);
  return *this;
}

void StatRegistry::copyFromLocked(const StatRegistry &O) {
  for (const auto &[Name, E] : O.Counters) {
    auto &Slot = Counters[Name];
    Slot.V = E.V;
    Slot.Value.store(E.Value.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  for (const auto &[Name, E] : O.Gauges) {
    auto &Slot = Gauges[Name];
    Slot.V = E.V;
    Slot.Value.store(E.Value.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  for (const auto &[Name, H] : O.Histograms)
    Histograms[Name] = H;
}

std::atomic<uint64_t> &StatRegistry::counter(const std::string &Name,
                                             Volatility V) {
  std::lock_guard<std::mutex> L(M);
  auto [It, New] = Counters.try_emplace(Name);
  if (New)
    It->second.V = V;
  return It->second.Value;
}

std::atomic<double> &StatRegistry::gauge(const std::string &Name,
                                         Volatility V) {
  std::lock_guard<std::mutex> L(M);
  auto [It, New] = Gauges.try_emplace(Name);
  if (New)
    It->second.V = V;
  return It->second.Value;
}

Histogram &StatRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  return Histograms[Name];
}

uint64_t StatRegistry::counterValue(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0
                              : It->second.Value.load(std::memory_order_relaxed);
}

void StatRegistry::merge(const StatRegistry &O) {
  if (this == &O)
    return;
  std::scoped_lock L(M, O.M);
  for (const auto &[Name, E] : O.Counters) {
    auto [It, New] = Counters.try_emplace(Name);
    if (New)
      It->second.V = E.V;
    It->second.Value.fetch_add(E.Value.load(std::memory_order_relaxed),
                               std::memory_order_relaxed);
  }
  for (const auto &[Name, E] : O.Gauges) {
    auto [It, New] = Gauges.try_emplace(Name);
    if (New)
      It->second.V = E.V;
    atomicMax(It->second.Value, E.Value.load(std::memory_order_relaxed));
  }
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
  std::lock_guard<std::mutex> L(M);
  OS << "{\n" << Indent << "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, E] : Counters) {
    if (E.V != V)
      continue;
    OS << (First ? "\n" : ",\n") << Indent << "    ";
    First = false;
    writeJSONString(OS, Name);
    OS << ": " << E.Value.load(std::memory_order_relaxed);
  }
  OS << (First ? "" : "\n" + Indent + "  ") << "},\n";
  OS << Indent << "  \"gauges\": {";
  First = true;
  for (const auto &[Name, E] : Gauges) {
    if (E.V != V)
      continue;
    OS << (First ? "\n" : ",\n") << Indent << "    ";
    First = false;
    writeJSONString(OS, Name);
    OS << ": ";
    writeJSONDouble(OS, E.Value.load(std::memory_order_relaxed));
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
