//===- core/RunReport.cpp - Machine-readable campaign report ---------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/RunReport.h"

#include "support/AtomicFile.h"
#include "support/FaultPlane.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace alive;

namespace {

/// Derived per-pass / per-family tables: parses the registry's
/// "pass.<name>.<field>" and "mutation.<family>.<field>" counters back
/// into row objects. The raw counters stay in the report too; the tables
/// are the convenient view and check_stats_json.py cross-checks the two.
struct TableRow {
  uint64_t A = 0; // invocations / applied
  uint64_t B = 0; // changed / rejected
};

std::map<std::string, TableRow> collectTable(const StatRegistry &R,
                                             const std::string &Prefix,
                                             const std::string &FieldA,
                                             const std::string &FieldB) {
  std::map<std::string, TableRow> Rows;
  R.forEachCounter(Volatility::Deterministic, [&](const std::string &Name,
                                                  uint64_t Value) {
    if (Name.rfind(Prefix, 0) != 0)
      return;
    size_t Dot = Name.rfind('.');
    if (Dot == std::string::npos || Dot < Prefix.size())
      return;
    std::string Key = Name.substr(Prefix.size(), Dot - Prefix.size());
    std::string Field = Name.substr(Dot + 1);
    if (Field == FieldA)
      Rows[Key].A = Value;
    else if (Field == FieldB)
      Rows[Key].B = Value;
  });
  return Rows;
}

void writeTable(std::ostream &OS, const std::map<std::string, TableRow> &Rows,
                const char *KeyName, const char *AName, const char *BName) {
  OS << "[";
  bool First = true;
  for (const auto &[Key, Row] : Rows) {
    OS << (First ? "\n" : ",\n") << "      {\"" << KeyName << "\": ";
    First = false;
    writeJSONString(OS, Key);
    OS << ", \"" << AName << "\": " << Row.A << ", \"" << BName
       << "\": " << Row.B << "}";
  }
  OS << (First ? "" : "\n    ") << "]";
}

} // namespace

void alive::writeRunReport(std::ostream &OS, const RunReport &Rep) {
  const FuzzStats &S = Rep.Stats;
  const StatRegistry &R = Rep.Registry;
  const CampaignProfile &Profile = Rep.Profile;
  std::vector<ConfigField> Config = Rep.Config;
  Config.emplace_back("corpus_files", std::to_string(Rep.CorpusFiles));
  Config.emplace_back("corpus_skipped", std::to_string(Rep.CorpusSkipped));
  const bool Feedback =
      std::find(Config.begin(), Config.end(),
                ConfigField("feedback", "true")) != Config.end();
  OS << "{\n";
  OS << "  \"schema_version\": " << RunReportSchemaVersion << ",\n";
  OS << "  \"tool\": ";
  writeJSONString(OS, Rep.Tool);
  OS << ",\n";

  // --- Deterministic section: byte-identical for every worker count. ---
  OS << "  \"deterministic\": {\n";
  OS << "    \"config\": ";
  writeConfigObject(OS, Config, "      ");
  OS << ",\n";

  OS << "    \"summary\": {"
     << "\"mutants\": " << S.MutantsGenerated
     << ", \"mutations_applied\": " << S.MutationsApplied
     << ", \"optimized\": " << S.Optimized
     << ", \"verified\": " << S.Verified
     << ", \"verify_skipped\": " << S.VerifySkipped
     << ", \"refinement_failures\": " << S.RefinementFailures
     << ", \"crashes\": " << S.Crashes
     << ", \"inconclusive\": " << S.Inconclusive
     << ", \"functions_dropped\": " << S.FunctionsDropped
     << ", \"invalid_mutants\": " << S.InvalidMutants
     << ", \"mutants_saved\": " << S.MutantsSaved
     << ", \"save_failures\": " << S.SaveFailures
     << ", \"bundles\": " << S.BundlesWritten
     << ", \"bundle_failures\": " << S.BundleFailures
     << ", \"timeouts\": " << S.Timeouts << "},\n";

  OS << "    \"per_pass\": ";
  writeTable(OS, collectTable(R, "pass.", "invocations", "changed"), "pass",
             "invocations", "changed");
  OS << ",\n";

  OS << "    \"per_family\": ";
  writeTable(OS, collectTable(R, "mutation.", "applied", "rejected"),
             "family", "applied", "rejected");
  OS << ",\n";

  OS << "    \"tv_verdicts\": {";
  {
    bool First = true;
    R.forEachCounter(Volatility::Deterministic,
                     [&](const std::string &Name, uint64_t Value) {
                       if (Name.rfind("tv.verdict.", 0) != 0)
                         return;
                       OS << (First ? "" : ", ");
                       First = false;
                       writeJSONString(OS, Name.substr(sizeof("tv.verdict.") - 1));
                       OS << ": " << Value;
                     });
  }
  OS << "},\n";

  // The feedback block: derived views of the "feedback.*" deterministic
  // counters (the raw counters stay in "stats" below, like the per-pass
  // tables). The config record says whether feedback ran; an off-run's
  // block is empty.
  OS << "    \"feedback\": {";
  if (Feedback) {
    OS << "\"epochs\": " << R.counterValue("feedback.epochs")
       << ", \"bits_covered\": " << R.counterValue("feedback.bits_covered")
       << ", \"functions_tracked\": "
       << R.counterValue("feedback.functions_tracked")
       << ", \"energy_skips\": " << R.counterValue("feedback.energy_skips")
       << ", \"rules\": [";
    bool First = true;
    R.forEachCounter(Volatility::Deterministic,
                     [&](const std::string &Name, uint64_t Value) {
                       if (Name.rfind("feedback.rule.", 0) != 0)
                         return;
                       OS << (First ? "\n" : ",\n") << "      {\"rule\": ";
                       First = false;
                       writeJSONString(
                           OS, Name.substr(sizeof("feedback.rule.") - 1));
                       OS << ", \"iterations\": " << Value << "}";
                     });
    OS << (First ? "" : "\n    ") << "], \"weights\": {";
    First = true;
    R.forEachCounter(Volatility::Deterministic,
                     [&](const std::string &Name, uint64_t Value) {
                       if (Name.rfind("feedback.weight.", 0) != 0)
                         return;
                       OS << (First ? "" : ", ");
                       First = false;
                       writeJSONString(
                           OS, Name.substr(sizeof("feedback.weight.") - 1));
                       OS << ": " << Value;
                     });
    OS << "}";
  }
  OS << "},\n";

  // The cost-attribution block: the merged top-K most-expensive queries.
  // Solver counters are replayed byte-for-byte on cache hits and the
  // per-worker trackers merge exactly in worker order, so the table is
  // worker-count independent (the wall-clock side lives in the volatile
  // profile block below).
  OS << "    \"profile\": {\"enabled\": "
     << (Profile.Enabled ? "true" : "false");
  if (Profile.Enabled) {
    OS << ", \"topk\": " << Profile.TopK << ", \"queries\": ";
    writeTopQueriesJSON(OS, Profile.TopQueries, "    ");
  }
  OS << "},\n";

  OS << "    \"stats\": ";
  R.writeJSON(OS, Volatility::Deterministic, "    ");
  OS << ",\n";

  // Counted from the record list itself (not FuzzStats): callers may
  // report a filtered subset, e.g. bench_campaign's one-per-defect list.
  const std::vector<BugRecord> &Bugs = Rep.Bugs;
  uint64_t Miscompiles = 0;
  for (const BugRecord &B : Bugs)
    if (B.Kind == BugRecord::Miscompile)
      ++Miscompiles;
  OS << "    \"bugs\": {\"total\": " << Bugs.size() << ", \"miscompiles\": "
     << Miscompiles << ", \"crashes\": " << (Bugs.size() - Miscompiles)
     << ", \"records\": [";
  {
    bool First = true;
    for (const BugRecord &B : Bugs) {
      OS << (First ? "\n" : ",\n") << "      {\"kind\": \""
         << (B.Kind == BugRecord::Miscompile ? "miscompile" : "crash")
         << "\", \"function\": ";
      First = false;
      writeJSONString(OS, B.FunctionName);
      OS << ", \"seed\": " << B.MutantSeed << ", \"issue\": ";
      writeJSONString(OS, B.IssueId);
      OS << ", \"bundle\": ";
      // The forensics cross-link: "" when bundle writing was off or the
      // write failed (then bundle_failures in the summary is non-zero).
      writeJSONString(OS, B.BundlePath);
      OS << "}";
    }
    OS << (First ? "" : "\n    ") << "]}\n";
  }
  OS << "  },\n";

  // --- Volatile section: wall-clock and scheduling-dependent. ---
  OS << "  \"volatile\": {\n";
  OS << "    \"jobs\": " << Rep.Jobs << ",\n";
  OS << "    \"stage_seconds\": {\"mutate\": ";
  writeJSONDouble(OS, S.MutateSeconds);
  OS << ", \"optimize\": ";
  writeJSONDouble(OS, S.OptimizeSeconds);
  OS << ", \"verify\": ";
  writeJSONDouble(OS, S.VerifySeconds);
  OS << ", \"overhead\": ";
  writeJSONDouble(OS, S.OverheadSeconds);
  OS << ", \"worker_total\": ";
  writeJSONDouble(OS, S.WorkerSeconds);
  OS << ", \"wall\": ";
  writeJSONDouble(OS, S.TotalSeconds);
  OS << "},\n";
  OS << "    \"cache\": {\"hits\": " << S.TVCacheHits
     << ", \"misses\": " << S.TVCacheMisses
     << ", \"evictions\": " << S.TVCacheEvictions << "},\n";
  // An interrupted run is by definition a scheduling artifact — volatile.
  // The degradation ladder lives here too: whether a supervised lease
  // exhausted its retries (and exactly which iterations were lost) is a
  // property of this run's fault history, never of the seed range.
  OS << "    \"survivability\": {\"interrupted\": "
     << (Rep.Interrupted ? "true" : "false")
     << ", \"degraded\": " << (Rep.Degraded ? "true" : "false")
     << ", \"fanout\": " << Rep.FanOut << ", \"lost_shards\": [";
  {
    bool First = true;
    for (const auto &[Shard, Lost] : Rep.LostShards) {
      OS << (First ? "" : ", ") << "{\"shard\": " << Shard
         << ", \"lost_iterations\": " << Lost << "}";
      First = false;
    }
  }
  OS << "]},\n";
  // Fault-injection accounting: which -inject-fault points were armed and
  // how often each edge was reached/failed. {"armed": false} (with an
  // empty table) in production, so consumers can key on the block
  // unconditionally.
  {
    std::vector<FaultPointCounters> Faults = FaultPlane::instance().counters();
    OS << "    \"fault_injection\": {\"armed\": "
       << (Faults.empty() ? "false" : "true") << ", \"points\": [";
    bool First = true;
    for (const FaultPointCounters &F : Faults) {
      OS << (First ? "\n" : ",\n") << "      {\"point\": ";
      First = false;
      writeJSONString(OS, F.Point);
      OS << ", \"spec\": ";
      writeJSONString(OS, F.Spec);
      OS << ", \"calls\": " << F.Calls << ", \"triggers\": " << F.Triggers
         << "}";
    }
    OS << (First ? "" : "\n    ") << "]},\n";
  }
  // Flight-recorder ring overwrites: always present (empty tracks when
  // tracing was off) so consumers can key on the block unconditionally.
  {
    uint64_t TotalDropped = 0;
    for (const auto &[_, N] : Rep.TraceDropped)
      TotalDropped += N;
    OS << "    \"trace\": {\"dropped_events\": " << TotalDropped
       << ", \"tracks\": [";
    bool First = true;
    for (const auto &[Name, N] : Rep.TraceDropped) {
      OS << (First ? "" : ", ") << "{\"name\": ";
      writeJSONString(OS, Name);
      OS << ", \"dropped_events\": " << N << "}";
      First = false;
    }
    OS << "]},\n";
  }
  // The volatile half of the profile: wall-clock per query and span
  // folds — scheduling artifacts.
  OS << "    \"profile\": {\"enabled\": "
     << (Profile.Enabled ? "true" : "false");
  if (Profile.Enabled) {
    OS << ", \"data\": ";
    writeProfileVolatileJSON(OS, Profile, "    ");
  }
  OS << "},\n";
  OS << "    \"stats\": ";
  R.writeJSON(OS, Volatility::Volatile, "    ");
  OS << "\n  }\n";
  OS << "}\n";
}

bool alive::writeRunReportFile(const std::string &Path, const RunReport &R,
                               std::string &Error) {
  // tmp+fsync+rename under the "report.*" fault points: a kill mid-write
  // leaves the previous report (or nothing), never a torn JSON document.
  std::ostringstream OS;
  writeRunReport(OS, R);
  std::string WriteError;
  if (!writeFileAtomicDurable(Path, OS.str(), "report", WriteError)) {
    Error = "cannot write stats report '" + Path + "': " + WriteError;
    return false;
  }
  return true;
}
