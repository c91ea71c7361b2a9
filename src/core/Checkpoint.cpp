//===- core/Checkpoint.cpp - Campaign checkpoint/resume --------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Checkpoint.h"

#include "support/AtomicFile.h"
#include "support/JSON.h"
#include "support/Telemetry.h"

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

/// Atomic + durable write (tmp, fsync, rename) under the "checkpoint.*"
/// fault points. A kill at any point leaves either the old snapshot or
/// the new one, never a torn file.
bool writeFileAtomic(const std::string &Path, const std::string &Content,
                     std::string &Error) {
  return writeFileAtomicDurable(Path, Content, "checkpoint", Error);
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

} // namespace

bool alive::writeCheckpointMeta(const std::string &Dir,
                                const CheckpointMeta &M, std::string &Error) {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    Error = "cannot create checkpoint directory '" + Dir +
            "': " + EC.message();
    return false;
  }
  std::ostringstream OS;
  OS << "{\n";
  OS << "  \"schema_version\": " << CheckpointSchemaVersion << ",\n";
  OS << "  \"passes\": ";
  writeJSONString(OS, M.Passes);
  OS << ",\n";
  OS << "  \"iterations\": " << M.Iterations << ",\n";
  OS << "  \"base_seed\": " << M.BaseSeed << ",\n";
  OS << "  \"jobs\": " << M.Jobs << ",\n";
  OS << "  \"max_mutations_per_function\": " << M.MaxMutationsPerFunction
     << ",\n";
  OS << "  \"inject_bugs\": " << (M.InjectBugs ? "true" : "false") << ",\n";
  OS << "  \"feedback\": " << (M.FeedbackOn ? "true" : "false") << ",\n";
  OS << "  \"epoch_length\": " << M.EpochLength << ",\n";
  OS << "  \"step_budget\": " << M.StepBudget << ",\n";
  OS << "  \"skip_unchanged\": " << (M.SkipUnchanged ? "true" : "false")
     << ",\n";
  OS << "  \"module_hash\": " << M.ModuleHash << "\n";
  OS << "}\n";
  return writeFileAtomic(Dir + "/meta.json", OS.str(), Error);
}

bool alive::readCheckpointMeta(const std::string &Dir, CheckpointMeta &M,
                               std::string &Error) {
  std::string Text;
  if (!readWholeFile(Dir + "/meta.json", Text, Error))
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
  M.Passes = J.getString("passes");
  M.Iterations = J.getUInt("iterations");
  M.BaseSeed = J.getUInt("base_seed");
  M.Jobs = (unsigned)J.getUInt("jobs");
  M.MaxMutationsPerFunction =
      (unsigned)J.getUInt("max_mutations_per_function");
  M.InjectBugs = J.getBool("inject_bugs", false);
  M.FeedbackOn = J.getBool("feedback", false);
  M.EpochLength = (unsigned)J.getUInt("epoch_length");
  M.StepBudget = J.getUInt("step_budget", 0);
  M.SkipUnchanged = J.getBool("skip_unchanged", true);
  M.ModuleHash = J.getUInt("module_hash");
  return true;
}

bool alive::checkpointMetaMatches(const CheckpointMeta &Stored,
                                  const CheckpointMeta &Current,
                                  std::string &Error) {
  auto Mismatch = [&](const std::string &What, const std::string &Was,
                      const std::string &Is) {
    Error = "checkpoint mismatch: " + What + " was " + Was + ", resuming " +
            "with " + Is;
    return false;
  };
  if (Stored.Passes != Current.Passes)
    return Mismatch("pass pipeline", "'" + Stored.Passes + "'",
                    "'" + Current.Passes + "'");
  if (Stored.Iterations != Current.Iterations)
    return Mismatch("-n", std::to_string(Stored.Iterations),
                    std::to_string(Current.Iterations));
  if (Stored.BaseSeed != Current.BaseSeed)
    return Mismatch("-seed", std::to_string(Stored.BaseSeed),
                    std::to_string(Current.BaseSeed));
  if (Stored.Jobs != Current.Jobs)
    return Mismatch("-j", std::to_string(Stored.Jobs),
                    std::to_string(Current.Jobs));
  if (Stored.MaxMutationsPerFunction != Current.MaxMutationsPerFunction)
    return Mismatch("-max-mutations",
                    std::to_string(Stored.MaxMutationsPerFunction),
                    std::to_string(Current.MaxMutationsPerFunction));
  if (Stored.InjectBugs != Current.InjectBugs)
    return Mismatch("-inject-bugs", Stored.InjectBugs ? "on" : "off",
                    Current.InjectBugs ? "on" : "off");
  if (Stored.FeedbackOn != Current.FeedbackOn)
    return Mismatch("-feedback", Stored.FeedbackOn ? "on" : "off",
                    Current.FeedbackOn ? "on" : "off");
  if (Stored.EpochLength != Current.EpochLength)
    return Mismatch("-feedback-epoch", std::to_string(Stored.EpochLength),
                    std::to_string(Current.EpochLength));
  if (Stored.StepBudget != Current.StepBudget)
    return Mismatch("-step-budget", std::to_string(Stored.StepBudget),
                    std::to_string(Current.StepBudget));
  if (Stored.SkipUnchanged != Current.SkipUnchanged)
    return Mismatch("-no-skip-unchanged",
                    Stored.SkipUnchanged ? "off" : "on",
                    Current.SkipUnchanged ? "off" : "on");
  if (Stored.ModuleHash != Current.ModuleHash)
    return Mismatch("the input module", "a different module",
                    "this one (content hash differs)");
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
  return writeFileAtomic(shardPath(Dir, W.Index), OS.str(), Error);
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
  return writeFileAtomic(Dir + "/feedback.json", OS.str(), Error);
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
