//===- support/TraceRecorder.cpp - Flight-recorder event tracing -----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/TraceRecorder.h"

#include "support/Telemetry.h"

#include <cassert>
#include <chrono>
#include <cstdio>
#include <sstream>

using namespace alive;

namespace {

using Clock = std::chrono::steady_clock;

/// Nanoseconds rendered as fractional microseconds ("1050" -> "1.050"):
/// Chrome trace timestamps are microseconds, and the fraction keeps the
/// nanosecond precision without float formatting.
void writeMicros(std::ostream &OS, uint64_t Nanos) {
  char Frac[8];
  std::snprintf(Frac, sizeof(Frac), "%03u", (unsigned)(Nanos % 1000));
  OS << Nanos / 1000 << "." << Frac;
}

/// The process-wide trace epoch: captured once, on the first now() call,
/// so every recorder's timestamps share one origin and multi-worker
/// tracks align.
Clock::time_point traceEpoch() {
  static const Clock::time_point Epoch = Clock::now();
  return Epoch;
}

} // namespace

TraceRecorder::TraceRecorder(size_t Capacity) : Cap(Capacity ? Capacity : 1) {
  // Reserve the whole ring up front: recording must never allocate.
  Ring.reserve(Cap);
  // Touch the epoch so a recorder constructed before any event still
  // shares the process origin.
  (void)now();
}

uint64_t TraceRecorder::now() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - traceEpoch())
      .count();
}

const char *TraceRecorder::intern(const std::string &S) {
  return Labels.insert(S).first->c_str();
}

void TraceRecorder::push(const Event &E) {
  if (Ring.size() < Cap) {
    Ring.push_back(E);
  } else {
    // Ring full: overwrite the oldest event (flight-recorder semantics).
    Ring[Head] = E;
  }
  Head = (Head + 1) % Cap;
  ++Total;
}

void TraceRecorder::span(const char *Name, uint64_t StartNanos,
                         uint64_t EndNanos, uint64_t Seed,
                         const char *Detail) {
  push({Name, Detail, StartNanos,
        EndNanos > StartNanos ? EndNanos - StartNanos : 0, Seed});
}

unsigned TraceRecorder::openSpan(const char *Name) {
  const size_t Begin = Stack.size();
  if (Begin)
    Stack += ';';
  Stack += Name;
  Open.push_back({Begin, Stack.size(), 0});
  return (unsigned)Open.size() - 1;
}

void TraceRecorder::closeSpan(unsigned Depth, const char *Name,
                              uint64_t StartNanos, uint64_t EndNanos,
                              uint64_t Seed, const char *Detail) {
  assert(Depth < Open.size() && "closing a span that is not open");
  const uint64_t Dur = EndNanos > StartNanos ? EndNanos - StartNanos : 0;
  push({Name, Detail, StartNanos, Dur, Seed});
  const OpenSpan F = Open[Depth];
  Open.resize(Depth);
  // Children close inside their parent on a monotonic clock, so their
  // durations sum to at most the parent's.
  assert(F.ChildNanos <= Dur);
  Stack.resize(F.End);
  Folds[Stack] += Dur - F.ChildNanos;
  Stack.resize(F.Begin);
  if (!Open.empty())
    Open.back().ChildNanos += Dur;
}

void TraceRecorder::instant(const char *Name, uint64_t Seed,
                            const char *Detail) {
  push({Name, Detail, now(), Instant, Seed});
}

std::vector<TraceRecorder::Event> TraceRecorder::events() const {
  std::vector<Event> Out;
  Out.reserve(size());
  if (Total <= Cap) {
    Out.assign(Ring.begin(), Ring.end());
  } else {
    // Head is both the next write slot and the oldest retained event.
    Out.insert(Out.end(), Ring.begin() + (long)Head, Ring.end());
    Out.insert(Out.end(), Ring.begin(), Ring.begin() + (long)Head);
  }
  return Out;
}

void alive::writeChromeTrace(std::ostream &OS,
                             const std::vector<const TraceRecorder *> &Tracks,
                             const std::vector<std::string> &TrackNames) {
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool First = true;
  auto emit = [&](const std::string &Line) {
    OS << (First ? "\n" : ",\n") << Line;
    First = false;
  };

  for (size_t T = 0; T != Tracks.size(); ++T) {
    // Track naming metadata, so Perfetto shows "worker 0" not "tid 0".
    {
      std::ostringstream L;
      L << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << T << ", \"args\": {\"name\": ";
      writeJSONString(L, T < TrackNames.size() ? TrackNames[T]
                                               : "track " + std::to_string(T));
      L << "}}";
      emit(L.str());
    }
    if (!Tracks[T])
      continue;
    for (const TraceRecorder::Event &E : Tracks[T]->events()) {
      std::ostringstream L;
      L << "{\"name\": ";
      writeJSONString(L, E.Name);
      // Chrome trace timestamps are microseconds; keep sub-microsecond
      // precision as a fraction.
      L << ", \"ph\": \"" << (E.DurNanos == TraceRecorder::Instant ? "i" : "X")
        << "\", \"ts\": ";
      writeMicros(L, E.StartNanos);
      if (E.DurNanos != TraceRecorder::Instant) {
        L << ", \"dur\": ";
        writeMicros(L, E.DurNanos);
      } else
        L << ", \"s\": \"t\"";
      L << ", \"pid\": 1, \"tid\": " << T;
      if (E.Seed || E.Detail) {
        L << ", \"args\": {";
        bool FirstArg = true;
        if (E.Seed) {
          L << "\"seed\": " << E.Seed;
          FirstArg = false;
        }
        if (E.Detail) {
          L << (FirstArg ? "" : ", ") << "\"detail\": ";
          writeJSONString(L, E.Detail);
        }
        L << "}";
      }
      L << "}";
      emit(L.str());
    }
  }

  // Summarize ring overwrite per track so a truncated timeline is visible
  // in the file itself, not silently missing its head.
  uint64_t Dropped = 0;
  for (const TraceRecorder *T : Tracks)
    if (T)
      Dropped += T->dropped();
  OS << (First ? "" : "\n") << "], \"otherData\": {\"dropped_events\": "
     << Dropped << "}}\n";
}
