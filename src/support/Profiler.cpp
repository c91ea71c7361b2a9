//===- support/Profiler.cpp - Cost attribution and span folds -------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Profiler.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>

using namespace alive;

bool alive::queryCostRanksBefore(const QueryCost &A, const QueryCost &B) {
  uint64_t CA = A.costUnits(), CB = B.costUnits();
  if (CA != CB)
    return CA > CB;
  return A.KeyHash < B.KeyHash;
}

//===----------------------------------------------------------------------===//
// QueryCostTracker
//===----------------------------------------------------------------------===//

QueryCostTracker::QueryCostTracker(unsigned K) : K(K ? K : 1) {}

void QueryCostTracker::record(const QueryCostSample &S) {
  auto [It, Inserted] = ByKey.try_emplace(S.KeyHash);
  QueryCost &Q = It->second;
  if (Inserted) {
    Q.KeyHash = S.KeyHash;
    Q.Function = std::string(S.Function);
    Q.BundlePath = std::string(S.BundlePath);
    Q.Verdict = std::string(S.Verdict);
    Q.FirstSeed = S.Seed;
    Q.Symbolic = S.Symbolic;
    Q.Decisions = S.Decisions;
    Q.Propagations = S.Propagations;
    Q.Conflicts = S.Conflicts;
    Q.LearnedClauses = S.LearnedClauses;
    Q.LearnedLiterals = S.LearnedLiterals;
    Q.Restarts = S.Restarts;
    Q.Vars = S.Vars;
    Q.Clauses = S.Clauses;
  } else if (S.Seed < Q.FirstSeed) {
    // Min-seed attribution keeps function/bundle deterministic whatever
    // order the workers saw this key in.
    Q.FirstSeed = S.Seed;
    Q.Function = std::string(S.Function);
    Q.BundlePath = std::string(S.BundlePath);
  }
  ++Q.Count;
  Q.EncodeSeconds += S.EncodeSeconds;
  Q.SolveSeconds += S.SolveSeconds;
  if (ByKey.size() > K)
    evictWorst();
}

void QueryCostTracker::restore(const std::vector<QueryCost> &Top) {
  ByKey.clear();
  for (const QueryCost &Q : Top)
    ByKey.emplace(Q.KeyHash, Q);
  while (ByKey.size() > K)
    evictWorst();
}

void QueryCostTracker::merge(const QueryCostTracker &O) {
  for (const auto &[_, In] : O.ByKey) {
    auto [It, Inserted] = ByKey.try_emplace(In.KeyHash, In);
    if (!Inserted) {
      QueryCost &Q = It->second;
      if (In.FirstSeed < Q.FirstSeed) {
        Q.FirstSeed = In.FirstSeed;
        Q.Function = In.Function;
        Q.BundlePath = In.BundlePath;
      }
      Q.Count += In.Count;
      Q.EncodeSeconds += In.EncodeSeconds;
      Q.SolveSeconds += In.SolveSeconds;
    }
    if (ByKey.size() > K)
      evictWorst();
  }
}

void QueryCostTracker::evictWorst() {
  auto Worst = ByKey.begin();
  for (auto It = ByKey.begin(); It != ByKey.end(); ++It)
    if (queryCostRanksBefore(Worst->second, It->second))
      Worst = It;
  if (Worst != ByKey.end())
    ByKey.erase(Worst);
}

std::vector<QueryCost> QueryCostTracker::top() const {
  std::vector<QueryCost> Out;
  Out.reserve(ByKey.size());
  for (const auto &[_, Q] : ByKey)
    Out.push_back(Q);
  std::sort(Out.begin(), Out.end(), queryCostRanksBefore);
  return Out;
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

/// 16-hex-digit rendering of the key hash ("0000654a88..."), fixed width
/// so the report's lexicographic diffs stay aligned.
std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

} // namespace

void alive::writeTopQueriesJSON(std::ostream &OS,
                                const std::vector<QueryCost> &Top,
                                const std::string &Indent) {
  OS << "[";
  for (size_t I = 0; I != Top.size(); ++I) {
    const QueryCost &Q = Top[I];
    OS << (I ? ",\n" : "\n") << Indent << "  {\"rank\": " << (I + 1)
       << ", \"key\": ";
    writeJSONString(OS, hex16(Q.KeyHash));
    OS << ", \"function\": ";
    writeJSONString(OS, Q.Function);
    OS << ", \"verdict\": ";
    writeJSONString(OS, Q.Verdict);
    OS << ", \"count\": " << Q.Count << ", \"first_seed\": " << Q.FirstSeed
       << ", \"symbolic\": " << (Q.Symbolic ? "true" : "false")
       << ", \"cost\": " << Q.costUnits()
       << ", \"decisions\": " << Q.Decisions
       << ", \"propagations\": " << Q.Propagations
       << ", \"conflicts\": " << Q.Conflicts
       << ", \"learned_clauses\": " << Q.LearnedClauses
       << ", \"learned_literals\": " << Q.LearnedLiterals
       << ", \"restarts\": " << Q.Restarts << ", \"vars\": " << Q.Vars
       << ", \"clauses\": " << Q.Clauses << ", \"bundle\": ";
    writeJSONString(OS, Q.BundlePath);
    OS << "}";
  }
  OS << (Top.empty() ? "" : "\n" + Indent) << "]";
}

void alive::writeProfileVolatileJSON(std::ostream &OS,
                                     const CampaignProfile &P,
                                     const std::string &Indent) {
  OS << "{\"spans\": {\"stacks\": [";
  bool First = true;
  for (const auto &[Stack, Nanos] : P.SpanSelfNanos) {
    if (Nanos < 1000)
      continue;
    OS << (First ? "\n" : ",\n") << Indent << "   {\"stack\": ";
    First = false;
    writeJSONString(OS, Stack);
    OS << ", \"self_us\": " << Nanos / 1000 << "}";
  }
  OS << (First ? "" : "\n" + Indent + " ") << "]},\n"
     << Indent << " \"query_seconds\": [";
  First = true;
  for (const QueryCost &Q : P.TopQueries) {
    OS << (First ? "\n" : ",\n") << Indent << "   {\"key\": ";
    First = false;
    writeJSONString(OS, hex16(Q.KeyHash));
    OS << ", \"encode_s\": ";
    writeJSONDouble(OS, Q.EncodeSeconds);
    OS << ", \"solve_s\": ";
    writeJSONDouble(OS, Q.SolveSeconds);
    OS << "}";
  }
  OS << (First ? "" : "\n" + Indent + " ") << "]}";
}
