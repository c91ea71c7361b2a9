//===- support/Telemetry.h - Campaign stat registry ------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign telemetry subsystem: a low-overhead registry of named
/// counters and fixed-bucket log-scale latency histograms, plus a
/// ScopedTimer RAII helper. Every stage of the pipeline (mutator, pass
/// manager, refinement checker, fuzzing loop) records into a per-loop
/// registry; the campaign engine merges worker registries deterministically
/// so a -j4 report equals a -j1 report.
///
/// Determinism contract (relied on by tests and CI):
///   - counters are *deterministic* by default: their merged value must
///     depend only on the seed range, never on the worker count or
///     scheduling. Stats that do vary (cache hit/miss splits, "how many
///     times was the checker actually invoked") are registered with
///     Volatility::Volatile and serialized separately;
///   - histograms record wall-clock latencies and are always volatile;
///   - merging sums counters and histogram buckets — commutative and
///     associative, so any merge order yields byte-identical serialized
///     output.
///
/// Ownership: a registry is plain single-owner data. Its worker is the
/// only thread that touches it while the worker runs; the engine reads
/// and merges it only once the worker is parked. -progress reads nothing
/// here (the engine publishes its own per-worker numbers).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TELEMETRY_H
#define SUPPORT_TELEMETRY_H

#include "support/Timer.h"

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>

namespace alive {

/// Whether a stat's merged value is reproducible across worker counts.
enum class Volatility {
  Deterministic, ///< depends only on the seed range (-j4 == -j1)
  Volatile,      ///< timing-, cache- or scheduling-dependent
};

/// A fixed-bucket log-scale latency histogram. Bucket 0 holds samples of
/// at most 1 microsecond; bucket i (i >= 1) holds samples in
/// (2^(i-1) us, 2^i us], and the last bucket is unbounded above (~ 6 days
/// with 40 buckets). Merging sums bucket counts, so the merge of any
/// permutation of worker histograms is identical.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 40;

  /// Inclusive upper bound of bucket \p I in seconds (+inf for the last).
  static double bucketUpperBound(unsigned I);

  /// The bucket a sample of \p Seconds lands in.
  static unsigned bucketIndex(double Seconds);

  void record(double Seconds);
  void merge(const Histogram &O);

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  /// Smallest / largest recorded sample (0 when empty).
  double min() const { return Count ? Min : 0.0; }
  double max() const { return Max; }
  uint64_t bucketCount(unsigned I) const { return Buckets[I]; }

  /// Upper-bound percentile estimate for \p P in [0, 1]: the bound of the
  /// first bucket whose cumulative count reaches ceil(P * count()),
  /// clamped to the observed [min, max] range — so the estimate never
  /// exceeds the largest recorded sample and is monotone non-decreasing
  /// in P (p50 <= p90 <= p99 <= max by construction). 0 when empty.
  double percentile(double P) const;

private:
  uint64_t Buckets[NumBuckets] = {};
  uint64_t Count = 0;
  double Sum = 0;
  double Min = std::numeric_limits<double>::infinity();
  double Max = 0;
};

/// A registry of named stats. Each campaign worker owns a private registry
/// and the engine merges them after the join (the same share-nothing model
/// as FuzzStats). Lookup is a map probe — callers on hot paths cache the
/// returned references, which stay valid for the registry's lifetime
/// (std::map nodes never move).
class StatRegistry {
public:
  /// The named counter, created at 0 on first use. \p V is fixed at
  /// creation; later calls ignore it.
  uint64_t &counter(const std::string &Name,
                    Volatility V = Volatility::Deterministic);

  /// The named latency histogram (always volatile).
  Histogram &histogram(const std::string &Name);

  /// Merges \p O into this registry: counters and histogram buckets sum.
  /// Commutative and associative.
  void merge(const StatRegistry &O);

  /// Serializes one volatility class as a JSON object
  /// {"counters": {...}, "histograms": {...}} with keys sorted by name
  /// (histograms only appear in the volatile class). Deterministic input
  /// => byte-identical output, whatever the merge order was.
  void writeJSON(std::ostream &OS, Volatility V,
                 const std::string &Indent = "") const;

  /// Visits every counter of class \p V in name order.
  template <typename Fn> void forEachCounter(Volatility V, Fn F) const {
    for (const auto &[Name, E] : Counters)
      if (E.V == V)
        F(Name, E.Value);
  }
  /// Visits every counter of *both* classes in name order, with the
  /// volatility.
  template <typename Fn> void forEachCounterAll(Fn F) const {
    for (const auto &[Name, E] : Counters)
      F(Name, E.Value, E.V);
  }
  template <typename Fn> void forEachHistogram(Fn F) const {
    for (const auto &[Name, H] : Histograms)
      F(Name, H);
  }

  /// Looks up a counter without creating it; 0 when absent.
  uint64_t counterValue(const std::string &Name) const;

private:
  struct CounterEntry {
    uint64_t Value = 0;
    Volatility V = Volatility::Deterministic;
  };
  // Ordered maps: iteration order == name order, the serialization
  // determinism hinges on it.
  std::map<std::string, CounterEntry> Counters;
  std::map<std::string, Histogram> Histograms;
};

/// RAII wall-clock timer: on destruction (or an explicit stop()) records
/// the elapsed seconds into any subset of {histogram, double accumulator}.
/// Replaces the hand-rolled Timer-start/seconds()/+= pattern.
class ScopedTimer {
public:
  explicit ScopedTimer(Histogram *H = nullptr, double *Accum = nullptr)
      : H(H), Accum(Accum) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() { stop(); }

  /// Elapsed seconds so far (does not record).
  double seconds() const { return T.seconds(); }

  /// Records the elapsed time into every attached sink and disarms the
  /// destructor. \returns the elapsed seconds. Idempotent.
  double stop();

  /// Disarms without recording anything (for abandoned measurements).
  void cancel() { Armed = false; }

private:
  Timer T;
  Histogram *H;
  double *Accum;
  bool Armed = true;
  double Elapsed = 0;
};

/// Appends \p S to \p OS as a JSON string literal (with quotes).
void writeJSONString(std::ostream &OS, const std::string &S);

/// Writes a double as a JSON number (shortest round-trippable form).
void writeJSONDouble(std::ostream &OS, double D);

/// Serializes one histogram as a JSON object: count, sum/min/max seconds,
/// p50/p90/p99, and the non-empty buckets as [{"le_s": bound, "count": n}].
void writeHistogramJSON(std::ostream &OS, const Histogram &H);

} // namespace alive

#endif // SUPPORT_TELEMETRY_H
