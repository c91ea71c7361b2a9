//===- core/Checkpoint.cpp - Campaign checkpoint/resume --------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"

#include "parser/Printer.h"
#include "support/AtomicFile.h"
#include "support/Hash.h"
#include "support/JSON.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

using namespace alive;

namespace {

uint64_t doubleBits(double D) {
  uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof(Bits));
  return Bits;
}

double bitsDouble(uint64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, sizeof(D));
  return D;
}

std::string shardPath(const std::string &Dir, unsigned Index) {
  return Dir + "/shard-" + std::to_string(Index) + ".json";
}

/// The FuzzStats fields, serialized by name in FuzzStatsCounters /
/// FuzzStatsSeconds order. Doubles go out as raw bit patterns (the "_bits"
/// suffix marks them) so they restore exactly.
void writeStats(std::ostream &OS, const FuzzStats &S,
                const std::string &Ind) {
  OS << "{\n";
  for (const auto &F : FuzzStatsCounters)
    OS << Ind << "\"" << F.Name << "\": " << S.*F.Member << ",\n";
  const char *Sep = "";
  for (const auto &F : FuzzStatsSeconds) {
    OS << Sep << Ind << "\"" << F.Name
       << "_bits\": " << doubleBits(S.*F.Member);
    Sep = ",\n";
  }
  OS << "\n" << Ind.substr(2) << "}";
}

void readStats(const JSONValue &J, FuzzStats &S) {
  for (const auto &F : FuzzStatsCounters)
    S.*F.Member = J.getUInt(F.Name);
  for (const auto &F : FuzzStatsSeconds)
    S.*F.Member = bitsDouble(J.getUInt(std::string(F.Name) + "_bits"));
}

/// A tracked query's six per-occurrence solver counters and its formula
/// size, by name.
constexpr std::pair<const char *, uint64_t QueryCost::*> QueryCounters[] = {
    {"decisions", &QueryCost::Decisions},
    {"propagations", &QueryCost::Propagations},
    {"conflicts", &QueryCost::Conflicts},
    {"learned_clauses", &QueryCost::LearnedClauses},
    {"learned_literals", &QueryCost::LearnedLiterals},
    {"restarts", &QueryCost::Restarts},
    {"vars", &QueryCost::Vars},
    {"clauses", &QueryCost::Clauses}};

/// meta.json's members: the schema version, the config record, the seed
/// range, the shard count and the module.
std::vector<ConfigField> campaignIdentity(const FuzzOptions &O, unsigned Jobs,
                                          uint64_t ModuleHash) {
  std::vector<ConfigField> F = campaignConfig(O);
  F.insert(F.begin(), {"schema_version",
                       std::to_string(CheckpointSchemaVersion)});
  F.emplace_back("iterations", std::to_string(O.Iterations));
  F.emplace_back("base_seed", std::to_string(O.BaseSeed));
  F.emplace_back("jobs", std::to_string(Jobs));
  F.emplace_back("module_hash", std::to_string(ModuleHash));
  return F;
}

/// How a resume mismatch names an identity key: the flag that sets it
/// (Negated when the flag turns the setting off), and for the module
/// fixed words instead of the two hashes. A key not listed (a setting
/// with no flag) is named by its key.
struct IdentityName {
  const char *Key, *What;
  bool Negated = false;
  const char *Was = nullptr, *Is = nullptr;
};
constexpr IdentityName IdentityNames[] = {
    {"passes", "pass pipeline"},
    {"max_mutations_per_function", "-max-mutations"},
    {"skip_unchanged", "-no-skip-unchanged", /*Negated=*/true},
    {"step_budget", "-step-budget"},
    {"injected_bugs", "-inject-bugs"},
    {"feedback", "-feedback"},
    {"epoch_length", "-feedback-epoch"},
    {"canonical_pairs", "-shared-tv-cache"},
    {"iterations", "-n"},
    {"base_seed", "-seed"},
    {"jobs", "-j"},
    {"module_hash", "the input module", false, "a different module",
     "this one (content hash differs)"},
};

/// A member's JSON text as a mismatch message shows it: a bool as its
/// flag's on/off, a string in single quotes, an empty list as "off".
std::string shownValue(const std::string &Text, bool Negated) {
  if (Text == "true" || Text == "false")
    return (Text == "true") != Negated ? "on" : "off";
  if (Text.size() >= 2 && Text.front() == '"')
    return "'" + Text.substr(1, Text.size() - 2) + "'";
  return Text == "[]" ? "off" : Text;
}

} // namespace

bool alive::pinCheckpointIdentity(const std::string &Dir, const FuzzOptions &O,
                                  unsigned Jobs, const Module &M,
                                  std::string &Error) {
  const std::string Path = Dir + "/meta.json";
  const std::vector<ConfigField> Is = campaignIdentity(
      O, Jobs, fnv1a64(printModule(M), ShortFnvBasis));
  if (!O.Survival.Resume) {
    std::error_code EC;
    std::filesystem::create_directories(Dir, EC);
    if (EC) {
      Error = "cannot create checkpoint directory '" + Dir +
              "': " + EC.message();
      return false;
    }
    std::ostringstream OS;
    writeConfigObject(OS, Is, "  ");
    OS << "\n";
    return writeFileAtomicDurable(Path, OS.str(), "checkpoint", Error);
  }

  std::string Text;
  if (!readWholeFile(Path, Text, Error))
    return false;
  JSONValue J;
  if (!parseJSON(Text, J, Error)) {
    Error = "meta.json: " + Error;
    return false;
  }
  if (J.getUInt("schema_version") != CheckpointSchemaVersion) {
    Error = "unsupported checkpoint schema version " +
            std::to_string(J.getUInt("schema_version"));
    return false;
  }
  // The stored record goes through the same reader and writer as the
  // current one, so equal settings render as equal text, key by key.
  FuzzOptions Stored;
  readCampaignConfig(J, Stored);
  Stored.Iterations = J.getUInt("iterations");
  Stored.BaseSeed = J.getUInt("base_seed");
  const std::vector<ConfigField> Was = campaignIdentity(
      Stored, (unsigned)J.getUInt("jobs"), J.getUInt("module_hash"));
  for (size_t I = 0; I != Is.size(); ++I) {
    if (Was[I].second == Is[I].second)
      continue;
    const std::string Key = Is[I].first, Unnamed = "config key '" + Key + "'";
    const IdentityName *N = std::find_if(
        std::begin(IdentityNames), std::end(IdentityNames),
        [&](const IdentityName &N) { return Key == N.Key; });
    const IdentityName Name =
        N != std::end(IdentityNames) ? *N : IdentityName{"", Unnamed.c_str()};
    Error = std::string("checkpoint mismatch: ") + Name.What + " was " +
            (Name.Was ? Name.Was : shownValue(Was[I].second, Name.Negated)) +
            ", resuming with " +
            (Name.Is ? Name.Is : shownValue(Is[I].second, Name.Negated));
    return false;
  }
  return true;
}

bool alive::writeWorkerCheckpoint(const std::string &Dir,
                                  const WorkerCheckpoint &W,
                                  std::string &Error) {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"index\": " << W.Index << ",\n";
  OS << "  \"lo\": " << W.Lo << ",\n";
  OS << "  \"hi\": " << W.Hi << ",\n";
  OS << "  \"next\": " << W.Next << ",\n";
  OS << "  \"stats\": ";
  writeStats(OS, W.Stats, "    ");
  OS << ",\n";
  OS << "  \"bugs\": [";
  for (size_t I = 0; I != W.Bugs.size(); ++I) {
    const BugRecord &B = W.Bugs[I];
    OS << (I ? ",\n" : "\n") << "    {\"kind\": \""
       << (B.Kind == BugRecord::Miscompile ? "miscompile" : "crash")
       << "\", \"function\": ";
    writeJSONString(OS, B.FunctionName);
    OS << ", \"seed\": " << B.MutantSeed << ", \"detail\": ";
    writeJSONString(OS, B.Detail);
    OS << ", \"issue_id\": ";
    writeJSONString(OS, B.IssueId);
    OS << ", \"bundle_path\": ";
    writeJSONString(OS, B.BundlePath);
    OS << ", \"mutant_ir\": ";
    writeJSONString(OS, B.MutantIR);
    OS << "}";
  }
  OS << (W.Bugs.empty() ? "" : "\n  ") << "],\n";
  OS << "  \"counters\": [";
  for (size_t I = 0; I != W.Counters.size(); ++I) {
    const WorkerCheckpoint::Counter &C = W.Counters[I];
    OS << (I ? ",\n" : "\n") << "    {\"name\": ";
    writeJSONString(OS, C.Name);
    OS << ", \"value\": " << C.Value << ", \"volatile\": "
       << (C.IsVolatile ? "true" : "false") << "}";
  }
  OS << (W.Counters.empty() ? "" : "\n  ") << "],\n";
  OS << "  \"pending\": ";
  W.Pending.writeJSON(OS, "  ");
  OS << ",\n";
  OS << "  \"queries\": [";
  for (size_t I = 0; I != W.Queries.size(); ++I) {
    const QueryCost &Q = W.Queries[I];
    OS << (I ? ",\n" : "\n") << "    {\"key\": " << Q.KeyHash
       << ", \"function\": ";
    writeJSONString(OS, Q.Function);
    OS << ", \"bundle\": ";
    writeJSONString(OS, Q.BundlePath);
    OS << ", \"verdict\": ";
    writeJSONString(OS, Q.Verdict);
    OS << ", \"first_seed\": " << Q.FirstSeed << ", \"count\": " << Q.Count
       << ", \"symbolic\": " << (Q.Symbolic ? "true" : "false");
    for (const auto &[Name, Member] : QueryCounters)
      OS << ", \"" << Name << "\": " << Q.*Member;
    OS << ", \"encode_s_bits\": " << doubleBits(Q.EncodeSeconds)
       << ", \"solve_s_bits\": " << doubleBits(Q.SolveSeconds) << "}";
  }
  OS << (W.Queries.empty() ? "" : "\n  ") << "],\n";
  OS << "  \"spans\": [";
  bool First = true;
  for (const auto &[Stack, Nanos] : W.SpanFolds) {
    OS << (First ? "\n" : ",\n") << "    {\"stack\": ";
    First = false;
    writeJSONString(OS, Stack);
    OS << ", \"self_ns\": " << Nanos << "}";
  }
  OS << (First ? "" : "\n  ") << "]\n}\n";
  return writeFileAtomicDurable(shardPath(Dir, W.Index), OS.str(), "checkpoint",
                                Error);
}

bool alive::readWorkerCheckpoint(const std::string &Dir, unsigned Index,
                                 WorkerCheckpoint &W, std::string &Error) {
  std::string Path = shardPath(Dir, Index);
  std::string Text;
  if (!readWholeFile(Path, Text, Error))
    return false;
  JSONValue J;
  if (!parseJSON(Text, J, Error)) {
    // A parse failure whose offset sits at end-of-input is a truncation
    // (a torn or partial write); anything else is corruption. Either way
    // the message must name the file and the byte offset so the operator
    // knows exactly which artifact to discard.
    bool Truncated =
        Error.find("unexpected end of input") != std::string::npos ||
        Error.find("at offset " + std::to_string(Text.size()) + ":") !=
            std::string::npos;
    Error = std::string(Truncated ? "truncated" : "corrupt") +
            " checkpoint '" + Path + "' (" + std::to_string(Text.size()) +
            " bytes): " + Error;
    return false;
  }
  W.Index = (unsigned)J.getUInt("index");
  W.Lo = J.getUInt("lo");
  W.Hi = J.getUInt("hi");
  W.Next = J.getUInt("next");
  if (W.Index != Index || W.Next < W.Lo || W.Next > W.Hi) {
    Error = "corrupt checkpoint '" + Path +
            "': inconsistent index or seed cursor";
    return false;
  }
  if (const JSONValue *S = J.find("stats"))
    readStats(*S, W.Stats);
  if (const JSONValue *Bugs = J.find("bugs"); Bugs && Bugs->isArray())
    for (const JSONValue &E : Bugs->Arr) {
      BugRecord B;
      B.Kind = E.getString("kind") == "miscompile" ? BugRecord::Miscompile
                                                   : BugRecord::Crash;
      B.FunctionName = E.getString("function");
      B.MutantSeed = E.getUInt("seed");
      B.Detail = E.getString("detail");
      B.IssueId = E.getString("issue_id");
      B.BundlePath = E.getString("bundle_path");
      B.MutantIR = E.getString("mutant_ir");
      W.Bugs.push_back(std::move(B));
    }
  if (const JSONValue *Cs = J.find("counters"); Cs && Cs->isArray())
    for (const JSONValue &E : Cs->Arr) {
      WorkerCheckpoint::Counter C;
      C.Name = E.getString("name");
      C.Value = E.getUInt("value");
      C.IsVolatile = E.getBool("volatile", false);
      W.Counters.push_back(std::move(C));
    }
  const JSONValue *Pending = J.find("pending");
  if (!Pending || !FeedbackMap::readJSON(*Pending, W.Pending, Error)) {
    Error = "corrupt checkpoint '" + Path + "': " +
            (Error.empty() ? "missing pending coverage" : Error);
    return false;
  }
  if (const JSONValue *Qs = J.find("queries"); Qs && Qs->isArray())
    for (const JSONValue &E : Qs->Arr) {
      QueryCost Q;
      Q.KeyHash = E.getUInt("key");
      Q.Function = E.getString("function");
      Q.BundlePath = E.getString("bundle");
      Q.Verdict = E.getString("verdict");
      Q.FirstSeed = E.getUInt("first_seed");
      Q.Count = E.getUInt("count");
      Q.Symbolic = E.getBool("symbolic", false);
      for (const auto &[Name, Member] : QueryCounters)
        Q.*Member = E.getUInt(Name);
      Q.EncodeSeconds = bitsDouble(E.getUInt("encode_s_bits"));
      Q.SolveSeconds = bitsDouble(E.getUInt("solve_s_bits"));
      W.Queries.push_back(std::move(Q));
    }
  if (const JSONValue *Ss = J.find("spans"); Ss && Ss->isArray())
    for (const JSONValue &E : Ss->Arr)
      W.SpanFolds[E.getString("stack")] = E.getUInt("self_ns");
  return true;
}

WorkerCheckpoint alive::snapshotWorker(unsigned Index, uint64_t Lo,
                                       uint64_t Hi, uint64_t Next,
                                       const FuzzerLoop &Loop) {
  WorkerCheckpoint W;
  W.Index = Index;
  W.Lo = Lo;
  W.Hi = Hi;
  W.Next = Next;
  W.Stats = Loop.stats();
  W.Bugs = Loop.bugs();
  W.Pending = Loop.pendingFeedback();
  if (const QueryCostTracker *QT = Loop.queryCosts()) {
    W.Queries = QT->top();
    W.SpanFolds = Loop.trace()->spanFolds();
  }
  Loop.registry().forEachCounter(
      Volatility::Deterministic, [&](const std::string &Name, uint64_t V) {
        W.Counters.push_back({Name, V, /*IsVolatile=*/false});
      });
  Loop.registry().forEachCounter(
      Volatility::Volatile, [&](const std::string &Name, uint64_t V) {
        W.Counters.push_back({Name, V, /*IsVolatile=*/true});
      });
  return W;
}

void alive::restoreWorker(const WorkerCheckpoint &W, FuzzerLoop &Loop) {
  Loop.restoreState(W.Stats, W.Bugs);
  Loop.restoreFeedback(W.Pending);
  if (QueryCostTracker *QT = Loop.queryCosts()) {
    QT->restore(W.Queries);
    Loop.trace()->restoreSpanFolds(W.SpanFolds);
  }
  for (const WorkerCheckpoint::Counter &C : W.Counters)
    Loop.mutableRegistry().counter(C.Name, C.IsVolatile
                                               ? Volatility::Volatile
                                               : Volatility::Deterministic) =
        C.Value;
}

bool alive::writeFeedbackCheckpoint(const std::string &Dir,
                                    const FeedbackCheckpoint &F,
                                    std::string &Error) {
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"next_offset\": " << F.NextOffset << ",\n";
  OS << "  \"coverage\": ";
  F.Global.writeJSON(OS, "  ");
  OS << ",\n";
  OS << "  \"schedule\": ";
  F.Schedule.writeJSON(OS, "  ");
  OS << "\n}\n";
  return writeFileAtomicDurable(Dir + "/feedback.json", OS.str(), "checkpoint",
                                Error);
}

bool alive::readFeedbackCheckpoint(const std::string &Dir,
                                   FeedbackCheckpoint &F,
                                   std::string &Error) {
  std::string Text;
  if (!readWholeFile(Dir + "/feedback.json", Text, Error))
    return false;
  JSONValue J;
  if (!parseJSON(Text, J, Error)) {
    Error = "feedback.json: " + Error;
    return false;
  }
  F.NextOffset = J.getUInt("next_offset");
  const JSONValue *Cov = J.find("coverage");
  if (!Cov || !FeedbackMap::readJSON(*Cov, F.Global, Error)) {
    Error = "feedback.json: " + (Error.empty() ? "missing coverage" : Error);
    return false;
  }
  const JSONValue *Sch = J.find("schedule");
  if (!Sch || !ScheduleState::readJSON(*Sch, F.Schedule, Error)) {
    Error = "feedback.json: " + (Error.empty() ? "missing schedule" : Error);
    return false;
  }
  return true;
}
