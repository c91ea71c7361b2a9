//===- support/FaultPlane.cpp - Deterministic fault injection --------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/FaultPlane.h"

#include "support/Hash.h"

#include <cstdlib>

using namespace alive;

FaultPlane &FaultPlane::instance() {
  static FaultPlane Plane;
  return Plane;
}

const std::vector<std::string> &FaultPlane::knownPoints() {
  // Every syscall-shaped edge the campaign touches. Adding a faultAt()
  // call site means adding its name here (arm() validates against this
  // list) and a row to the DESIGN.md fault-model table.
  static const std::vector<std::string> Points = {
      // Artifact writers (shared tmp+fsync+rename path).
      "checkpoint.write", "checkpoint.fsync", "checkpoint.rename",
      "forensics.write", "forensics.fsync", "forensics.rename",
      "report.write", "report.fsync", "report.rename",
      // Supervised fan-out control loop (evaluated in the parent, so
      // counters persist across child respawns).
      "supervisor.fork", "supervisor.kill", "supervisor.wedge",
      "supervisor.mmap",
      // Corpus ingestion.
      "corpus.open", "corpus.read",
  };
  return Points;
}

void FaultPlane::setSeed(uint64_t S) {
  std::lock_guard<std::mutex> Lock(M);
  Seed = S;
  for (Point &P : Points)
    P.Stream = Seed ^ fnv1a64(P.Name, ShortFnvBasis);
}

void FaultPlane::reset() {
  std::lock_guard<std::mutex> Lock(M);
  Points.clear();
  Armed.store(false, std::memory_order_relaxed);
}

bool FaultPlane::arm(const std::string &SpecList, std::string &Error) {
  std::vector<Point> Parsed;
  size_t Pos = 0;
  while (Pos < SpecList.size()) {
    size_t End = SpecList.find(',', Pos);
    if (End == std::string::npos)
      End = SpecList.size();
    std::string Entry = SpecList.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Entry.empty())
      continue;

    size_t Colon = Entry.find(':');
    if (Colon == std::string::npos) {
      Error = "-inject-fault entry '" + Entry +
              "' has no spec (expected <point>:nth:<N>, <point>:every:<K> "
              "or <point>:p:<P>)";
      return false;
    }
    Point P;
    P.Name = Entry.substr(0, Colon);
    P.Spec = Entry.substr(Colon + 1);

    bool Known = false;
    for (const std::string &K : knownPoints())
      if (K == P.Name)
        Known = true;
    if (!Known) {
      Error = "-inject-fault names unknown fault point '" + P.Name + "'";
      return false;
    }

    size_t C2 = P.Spec.find(':');
    std::string Mode = C2 == std::string::npos ? P.Spec : P.Spec.substr(0, C2);
    std::string Arg = C2 == std::string::npos ? "" : P.Spec.substr(C2 + 1);
    char *EndPtr = nullptr;
    if (Mode == "nth" || Mode == "every") {
      P.M = Mode == "nth" ? Point::Mode::Nth : Point::Mode::Every;
      P.N = std::strtoull(Arg.c_str(), &EndPtr, 10);
      if (Arg.empty() || *EndPtr != '\0' || P.N == 0) {
        Error = "-inject-fault '" + P.Name + "': '" + Mode +
                "' needs a positive integer, got '" + Arg + "'";
        return false;
      }
    } else if (Mode == "p") {
      P.M = Point::Mode::Prob;
      P.P = std::strtod(Arg.c_str(), &EndPtr);
      if (Arg.empty() || *EndPtr != '\0' || P.P < 0.0 || P.P > 1.0) {
        Error = "-inject-fault '" + P.Name +
                "': 'p' needs a probability in [0,1], got '" + Arg + "'";
        return false;
      }
    } else {
      Error = "-inject-fault '" + P.Name + "': unknown spec mode '" + Mode +
              "' (expected nth, every or p)";
      return false;
    }
    Parsed.push_back(std::move(P));
  }

  std::lock_guard<std::mutex> Lock(M);
  Points = std::move(Parsed);
  for (Point &P : Points)
    P.Stream = Seed ^ fnv1a64(P.Name, ShortFnvBasis);
  Armed.store(!Points.empty(), std::memory_order_relaxed);
  return true;
}

bool FaultPlane::shouldFail(const char *Name) {
  std::lock_guard<std::mutex> Lock(M);
  for (Point &P : Points) {
    if (P.Name != Name)
      continue;
    ++P.Calls;
    bool Fire = false;
    switch (P.M) {
    case Point::Mode::Nth:
      Fire = P.Calls == P.N;
      break;
    case Point::Mode::Every:
      Fire = P.Calls % P.N == 0;
      break;
    case Point::Mode::Prob:
      // 53-bit uniform draw from the point's private stream.
      Fire = (double)(splitmix64(P.Stream) >> 11) * 0x1.0p-53 < P.P;
      break;
    }
    if (Fire)
      ++P.Triggers;
    return Fire;
  }
  return false;
}

std::vector<FaultPointCounters> FaultPlane::counters() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<FaultPointCounters> Out;
  Out.reserve(Points.size());
  for (const Point &P : Points)
    Out.push_back({P.Name, P.Spec, P.Calls, P.Triggers});
  return Out;
}
