//===- support/Telemetry.h - Campaign stat registry ------------*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign telemetry subsystem: a low-overhead registry of named
/// counters, gauges and fixed-bucket log-scale latency histograms, plus a
/// ScopedTimer RAII helper. Every stage of the pipeline (mutator, pass
/// manager, refinement checker, fuzzing loop) records into a per-loop
/// registry; the campaign engine merges worker registries deterministically
/// so a -j4 report equals a -j1 report.
///
/// Determinism contract (relied on by tests and CI):
///   - counters and gauges are *deterministic* by default: their merged
///     value must depend only on the seed range, never on the worker count
///     or scheduling. Stats that do vary (cache hit/miss splits, "how many
///     times was the checker actually invoked") are registered with
///     Volatility::Volatile and serialized separately;
///   - histograms record wall-clock latencies and are always volatile;
///   - merging sums counters and histogram buckets and takes the max of
///     gauges — all commutative and associative, so any merge order yields
///     byte-identical serialized output.
///
/// Concurrency contract (CampaignEngine::liveSnapshot() relies on it to
/// read live stage-time histogram sums):
///   - stat *values* are relaxed atomics, so the owning worker may bump a
///     counter or record a histogram sample while an observer thread takes
///     a snapshot() — no torn reads, no locks on the value fast path;
///   - the registry *structure* (name -> slot maps) is guarded by a
///     per-registry mutex: counter()/gauge()/histogram() lookups,
///     snapshot/serialization walks and merges all take it. Hot paths keep
///     caching the returned references (std::map nodes never move), which
///     bypasses the lock entirely;
///   - a snapshot taken mid-update is a plausible point-in-time view, not
///     a linearizable one: a histogram's count may momentarily disagree
///     with its bucket sum by in-flight samples. percentile() tolerates
///     that skew (it falls back to the observed max).
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TELEMETRY_H
#define SUPPORT_TELEMETRY_H

#include "support/Timer.h"

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
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
///
/// All mutators and accessors use relaxed atomics: one writer recording
/// while another thread reads (or copies) the histogram is race-free. The
/// reader sees a near-point-in-time view, not a linearizable one.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 40;

  Histogram() = default;
  Histogram(const Histogram &O) { *this = O; }
  /// Relaxed field-by-field copy; the source may be concurrently written.
  Histogram &operator=(const Histogram &O);

  /// Inclusive upper bound of bucket \p I in seconds (+inf for the last).
  static double bucketUpperBound(unsigned I);

  /// The bucket a sample of \p Seconds lands in.
  static unsigned bucketIndex(double Seconds);

  void record(double Seconds);
  void merge(const Histogram &O);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Smallest / largest recorded sample (0 when empty).
  double min() const {
    double M = Min.load(std::memory_order_relaxed);
    return count() == 0 || M == std::numeric_limits<double>::infinity() ? 0.0
                                                                        : M;
  }
  double max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucketCount(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Upper-bound percentile estimate for \p P in [0, 1]: the bound of the
  /// first bucket whose cumulative count reaches ceil(P * count()),
  /// clamped to the observed [min, max] range — so the estimate never
  /// exceeds the largest recorded sample and is monotone non-decreasing
  /// in P (p50 <= p90 <= p99 <= max by construction). 0 when empty.
  /// Safe to call while another thread records: a mid-update read may see
  /// count() ahead of the bucket sums, in which case the estimate degrades
  /// to the observed max rather than going out of range.
  double percentile(double P) const;

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0};
  // +inf sentinel until the first sample so concurrent first-records can
  // race through the CAS min without a separate "is set" flag.
  std::atomic<double> Min{std::numeric_limits<double>::infinity()};
  std::atomic<double> Max{0};
};

/// A registry of named stats. Each campaign worker owns a private registry
/// and the engine merges them after the join (the same share-nothing model
/// as FuzzStats) — but unlike FuzzStats the registry is safe to *read*
/// concurrently: value updates are relaxed atomics and the name maps are
/// mutex-guarded, so an observer thread may snapshot() or serialize a
/// registry its worker is actively writing. Lookup is a lock + map probe —
/// callers on hot paths cache the returned references, which stay valid
/// for the registry's lifetime (std::map nodes never move) and are bumped
/// lock-free.
class StatRegistry {
public:
  StatRegistry() = default;
  StatRegistry(const StatRegistry &O);
  StatRegistry &operator=(const StatRegistry &O);

  /// The named counter, created at 0 on first use. \p V is fixed at
  /// creation; later calls ignore it.
  std::atomic<uint64_t> &counter(const std::string &Name,
                                 Volatility V = Volatility::Deterministic);

  /// The named gauge (a "current level" stat; merge takes the max).
  std::atomic<double> &gauge(const std::string &Name,
                             Volatility V = Volatility::Deterministic);

  /// The named latency histogram (always volatile).
  Histogram &histogram(const std::string &Name);

  /// Merges \p O into this registry: counters and histogram buckets sum,
  /// gauges take the max. Commutative and associative. \p O may be
  /// concurrently written by its owner (relaxed point-in-time reads).
  void merge(const StatRegistry &O);

  /// A point-in-time copy, safe to take while the owning worker writes.
  /// The copy is private to the caller — read it without any locking.
  StatRegistry snapshot() const { return *this; }

  /// Serializes one volatility class as a JSON object
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  /// sorted by name (histograms only appear in the volatile class).
  /// Deterministic input => byte-identical output, whatever the merge
  /// order was.
  void writeJSON(std::ostream &OS, Volatility V,
                 const std::string &Indent = "") const;

  /// Visits every counter of class \p V in name order. The callback runs
  /// under the registry lock: it must not call back into this registry.
  template <typename Fn> void forEachCounter(Volatility V, Fn F) const {
    std::lock_guard<std::mutex> L(M);
    for (const auto &[Name, E] : Counters)
      if (E.V == V)
        F(Name, E.Value.load(std::memory_order_relaxed));
  }
  /// Visits every counter of *both* classes in name order, with the
  /// volatility. Same no-reentrancy rule as forEachCounter.
  template <typename Fn> void forEachCounterAll(Fn F) const {
    std::lock_guard<std::mutex> L(M);
    for (const auto &[Name, E] : Counters)
      F(Name, E.Value.load(std::memory_order_relaxed), E.V);
  }
  template <typename Fn> void forEachGauge(Fn F) const {
    std::lock_guard<std::mutex> L(M);
    for (const auto &[Name, E] : Gauges)
      F(Name, E.Value.load(std::memory_order_relaxed), E.V);
  }
  template <typename Fn> void forEachHistogram(Fn F) const {
    std::lock_guard<std::mutex> L(M);
    for (const auto &[Name, H] : Histograms)
      F(Name, H);
  }

  /// Looks up a counter without creating it; 0 when absent.
  uint64_t counterValue(const std::string &Name) const;

private:
  struct CounterEntry {
    std::atomic<uint64_t> Value{0};
    Volatility V = Volatility::Deterministic;
  };
  struct GaugeEntry {
    std::atomic<double> Value{0};
    Volatility V = Volatility::Deterministic;
  };
  // Ordered maps: iteration order == name order, the serialization
  // determinism hinges on it.
  std::map<std::string, CounterEntry> Counters;
  std::map<std::string, GaugeEntry> Gauges;
  std::map<std::string, Histogram> Histograms;
  // Guards the map *structure* only; entry values are atomics.
  mutable std::mutex M;

  void copyFromLocked(const StatRegistry &O);
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
