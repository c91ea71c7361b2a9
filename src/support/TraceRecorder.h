//===- support/TraceRecorder.h - Flight-recorder event tracing -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-capacity flight recorder of timestamped span/instant events,
/// complementing the aggregate telemetry of support/Telemetry.h with a
/// per-event timeline: what was this worker doing, in order, and for how
/// long. Each campaign worker owns one recorder (share-nothing, like its
/// StatRegistry); the engine collects them after the join and flushes one
/// Chrome trace-event JSON file with one track per worker, loadable in
/// Perfetto or chrome://tracing.
///
/// Besides the ring, every TraceSpan folds its exact self time into a map
/// keyed by its span stack ("optimize;pass.instcombine"): the -profile
/// flamegraph. The owning worker is the only writer and nothing reads the
/// folds until it is parked, so they need no thread and no atomics.
///
/// Cost model: when tracing is off every recording site is a single null
/// pointer check — no clock read, no allocation. When on, a span is two
/// steady_clock reads, one ring-slot store and one fold-map update; the
/// ring never grows, so a long campaign keeps the most recent events (the
/// flight-recorder semantics: the tail of the timeline before the
/// interesting verdict), and the fold map grows once per distinct stack.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_TRACERECORDER_H
#define SUPPORT_TRACERECORDER_H

#include <cstdint>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace alive {

class TraceRecorder {
public:
  /// Default ring capacity (events). 16Ki events x 40 bytes keeps a
  /// worker's recorder under a megabyte.
  static constexpr size_t DefaultCapacity = 1 << 14;

  /// One recorded event. Name/Detail point at static strings or at labels
  /// interned in this recorder — never at caller-owned storage.
  struct Event {
    const char *Name;    ///< span/instant label ("mutate", "verify", ...)
    const char *Detail;  ///< optional context (function, pass); may be null
    uint64_t StartNanos; ///< nanoseconds since the shared process epoch
    uint64_t DurNanos;   ///< span duration; Instant marks a point event
    uint64_t Seed;       ///< associated mutant seed (0 = none)
  };
  /// DurNanos sentinel distinguishing instant events from spans.
  static constexpr uint64_t Instant = ~uint64_t(0);

  explicit TraceRecorder(size_t Capacity = DefaultCapacity);

  /// Nanoseconds since the process-wide trace epoch. The epoch is shared
  /// by every recorder in the process, so multi-worker tracks line up on
  /// one timeline.
  static uint64_t now();

  /// Interns a dynamic label (function name, pass name) into this
  /// recorder; the returned pointer stays valid for the recorder's
  /// lifetime. Callers should intern once and reuse the pointer on hot
  /// paths.
  const char *intern(const std::string &S);

  /// Records a completed span [StartNanos, EndNanos).
  void span(const char *Name, uint64_t StartNanos, uint64_t EndNanos,
            uint64_t Seed = 0, const char *Detail = nullptr);

  /// Records an instant event at the current time (bug verdicts).
  void instant(const char *Name, uint64_t Seed = 0,
               const char *Detail = nullptr);

  /// Events currently retained, oldest first. When the ring overflowed,
  /// the oldest events were overwritten (see dropped()).
  std::vector<Event> events() const;

  size_t capacity() const { return Cap; }
  /// Events retained right now (<= capacity()).
  size_t size() const { return Total < Cap ? (size_t)Total : Cap; }
  /// Events lost to ring overwrite.
  uint64_t dropped() const { return Total < Cap ? 0 : Total - Cap; }

  /// Opens a span named \p Name nested in the currently open ones.
  /// \returns its depth, which closeSpan() takes back.
  unsigned openSpan(const char *Name);

  /// Closes the span opened at \p Depth: records [StartNanos, EndNanos)
  /// in the ring and folds its self time (duration minus its closed
  /// children's) under its stack. Spans still open above \p Depth were
  /// abandoned by a non-local exit (the signal guard's siglongjmp); they
  /// are dropped unrecorded, so their time stays in this span's self time.
  void closeSpan(unsigned Depth, const char *Name, uint64_t StartNanos,
                 uint64_t EndNanos, uint64_t Seed = 0,
                 const char *Detail = nullptr);

  /// Exact self nanoseconds per span stack ("optimize;pass.gvn"), summed
  /// over every span closed through closeSpan(). Single-writer: read it
  /// only once the owning worker is parked.
  const std::map<std::string, uint64_t> &spanFolds() const { return Folds; }
  /// Replaces the folds (a worker restored from its shard checkpoint).
  void restoreSpanFolds(std::map<std::string, uint64_t> F) {
    Folds = std::move(F);
  }

private:
  void push(const Event &E);

  std::vector<Event> Ring;
  size_t Cap;
  size_t Head = 0; ///< next write slot
  /// Events ever recorded.
  uint64_t Total = 0;
  /// Interned dynamic labels. std::set nodes never move, so the stored
  /// strings' c_str() stays stable across inserts.
  std::set<std::string> Labels;
  /// The open spans, outermost first: where each one's label starts and
  /// ends in Stack, and the nanoseconds its closed children took.
  struct OpenSpan {
    size_t Begin, End;
    uint64_t ChildNanos;
  };
  std::vector<OpenSpan> Open;
  /// The open spans' labels joined by ';', the fold key of the innermost.
  std::string Stack;
  std::map<std::string, uint64_t> Folds;
};

/// RAII span recorder: reads the clock only when \p R is non-null, so a
/// disabled site costs one pointer test.
class TraceSpan {
public:
  TraceSpan(TraceRecorder *R, const char *Name, uint64_t Seed = 0,
            const char *Detail = nullptr)
      : R(R), Name(Name), Detail(Detail), Seed(Seed),
        Depth(R ? R->openSpan(Name) : 0),
        Start(R ? TraceRecorder::now() : 0) {}
  ~TraceSpan() {
    if (R)
      R->closeSpan(Depth, Name, Start, TraceRecorder::now(), Seed, Detail);
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  TraceRecorder *R;
  const char *Name;
  const char *Detail;
  uint64_t Seed;
  unsigned Depth;
  uint64_t Start;
};

/// Writes \p Tracks as Chrome trace-event JSON: one tid per track (named
/// by \p TrackNames via thread_name metadata events), spans as "ph":"X"
/// complete events, instants as "ph":"i". Timestamps are microseconds
/// since the shared process epoch, so concurrent workers interleave
/// correctly on the rendered timeline.
void writeChromeTrace(std::ostream &OS,
                      const std::vector<const TraceRecorder *> &Tracks,
                      const std::vector<std::string> &TrackNames);

} // namespace alive

#endif // SUPPORT_TRACERECORDER_H
