//===- core/Forensics.cpp - Per-bug forensics bundles ----------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Forensics.h"

#include "core/FuzzerLoop.h"
#include "opt/BugInjection.h"
#include "parser/Parser.h"
#include "parser/Printer.h"
#include "support/AtomicFile.h"
#include "support/JSON.h"
#include "support/Telemetry.h"

#include <cctype>
#include <filesystem>
#include <sstream>

using namespace alive;

const char *alive::forensicKindName(ForensicRecord::Kind K) {
  switch (K) {
  case ForensicRecord::InvalidMutant:
    return "invalid-mutant";
  case ForensicRecord::Crash:
    return "crash";
  case ForensicRecord::Verdict:
    return "verdict";
  case ForensicRecord::Timeout:
    return "timeout";
  }
  return "?";
}

namespace {

/// Filesystem-safe bundle directory component for a function name.
std::string sanitize(const std::string &S) {
  std::string Out;
  for (char C : S)
    Out += (std::isalnum((unsigned char)C) || C == '-' || C == '.') ? C : '_';
  return Out.empty() ? "_" : Out;
}

/// Deterministic bundle directory name: the seed plus what failed. One
/// iteration tests each function once, so (seed, function) is unique
/// within a campaign — and identical across -j1/-jN runs.
std::string bundleDirName(const ForensicRecord &R) {
  std::string Tail;
  switch (R.K) {
  case ForensicRecord::InvalidMutant:
    Tail = "invalid";
    break;
  case ForensicRecord::Crash:
    Tail = "crash";
    break;
  case ForensicRecord::Verdict:
    Tail = sanitize(R.Function);
    break;
  case ForensicRecord::Timeout:
    // At most one timeout record per iteration (the iteration stops), so
    // the seed alone keeps the name unique; the function (when the cut
    // happened mid-verify) is advisory.
    Tail = R.Function.empty() ? "timeout" : "timeout-" + sanitize(R.Function);
    break;
  }
  return "bundle-s" + std::to_string(R.Seed) + "-" + Tail;
}

void writeManifest(std::ostream &OS, const BundleInputs &In) {
  const ForensicRecord &R = In.Record;
  const FuzzOptions &O = In.Opts;
  OS << "{\n";
  OS << "  \"schema_version\": " << BundleManifestSchemaVersion << ",\n";

  OS << "  \"record\": {\"kind\": \"" << forensicKindName(R.K)
     << "\", \"seed\": " << R.Seed << ", \"function\": ";
  writeJSONString(OS, R.Function);
  OS << ", \"verdict\": ";
  writeJSONString(OS, R.VerdictSlug);
  OS << ", \"detail\": ";
  writeJSONString(OS, R.Detail);
  OS << ", \"issue_id\": ";
  writeJSONString(OS, R.IssueId);
  OS << ", \"counterexample\": ";
  writeJSONString(OS, R.CounterExample);
  OS << "},\n";

  // The config echo: everything -replay needs to rebuild FuzzOptions so
  // the recorded iteration re-runs bit-for-bit.
  OS << "  \"config\": {\n";
  OS << "    \"passes\": ";
  writeJSONString(OS, O.Passes);
  OS << ",\n";
  OS << "    \"max_mutations_per_function\": "
     << O.Mutation.MaxMutationsPerFunction << ",\n";
  OS << "    \"value_source\": {\"max_depth\": "
     << O.Mutation.ValueSource.MaxDepth
     << ", \"poison_percent\": " << O.Mutation.ValueSource.PoisonPercent
     << ", \"allow_fresh_parameters\": "
     << (O.Mutation.ValueSource.AllowFreshParameters ? "true" : "false")
     << "},\n";
  OS << "    \"enabled_kinds\": [";
  for (size_t I = 0; I != O.Mutation.EnabledKinds.size(); ++I)
    OS << (I ? ", " : "") << '"'
       << mutationKindName(O.Mutation.EnabledKinds[I]) << '"';
  OS << "],\n";
  OS << "    \"tv\": {\"solver_conflict_budget\": " << O.TV.SolverConflictBudget
     << ", \"concrete_trials\": " << O.TV.ConcreteTrials
     << ", \"exhaustive_bits\": " << O.TV.ExhaustiveBits
     << ", \"fuel\": " << O.TV.Fuel << ", \"seed\": " << O.TV.Seed << "},\n";
  OS << "    \"skip_unchanged\": " << (O.SkipUnchanged ? "true" : "false")
     << ",\n";
  OS << "    \"step_budget\": " << O.Survival.StepBudget << ",\n";
  OS << "    \"testable_functions\": [";
  for (size_t I = 0; I != In.TestableFunctions.size(); ++I) {
    OS << (I ? ", " : "");
    writeJSONString(OS, In.TestableFunctions[I]);
  }
  OS << "],\n";
  OS << "    \"injected_bugs\": [";
  {
    bool First = true;
    for (const BugInfo &B : bugTable())
      if (O.Bugs.isEnabled(B.Id)) {
        OS << (First ? "" : ", ") << '"' << B.IssueId << '"';
        First = false;
      }
  }
  OS << "]\n  },\n";

  OS << "  \"trail\": [";
  if (In.Trail) {
    bool First = true;
    for (const MutationTrailEntry &E : *In.Trail) {
      OS << (First ? "\n" : ",\n") << "    {\"family\": \""
         << mutationKindName(E.Kind) << "\", \"function\": ";
      First = false;
      writeJSONString(OS, E.Function);
      OS << ", \"site\": ";
      writeJSONString(OS, E.Site);
      OS << ", \"detail\": ";
      writeJSONString(OS, E.Detail);
      OS << "}";
    }
    OS << (First ? "" : "\n  ");
  }
  OS << "],\n";

  OS << "  \"files\": {\"original\": \"original.ll\"";
  if (In.Mutant)
    OS << ", \"mutant\": \"mutant.ll\"";
  if (In.Optimized)
    OS << ", \"optimized\": \"optimized.ll\"";
  OS << "}\n}\n";
}

} // namespace

std::string alive::writeBugBundle(const std::string &Dir,
                                  const BundleInputs &In, std::string &Error) {
  namespace fs = std::filesystem;
  fs::path Bundle = fs::path(Dir) / bundleDirName(In.Record);
  std::error_code EC;
  fs::create_directories(Bundle, EC);
  if (EC) {
    Error = "cannot create bundle directory '" + Bundle.string() +
            "': " + EC.message();
    return "";
  }

  // Every bundle file goes through the durable tmp+fsync+rename path
  // (the manifest is written last, so a bundle with a manifest is always
  // complete — -replay never sees a torn artifact).
  auto writeFile = [&](const char *Name, const std::string &Content) {
    fs::path P = Bundle / Name;
    return writeFileAtomicDurable(P.string(), Content, "forensics", Error);
  };

  if (!writeFile("original.ll", printModule(In.Original)))
    return "";
  if (In.Mutant && !writeFile("mutant.ll", printModule(*In.Mutant)))
    return "";
  if (In.Optimized && !writeFile("optimized.ll", printModule(*In.Optimized)))
    return "";
  std::ostringstream Manifest;
  writeManifest(Manifest, In);
  if (!writeFile("manifest.json", Manifest.str()))
    return "";
  return Bundle.string();
}

ReplayResult alive::replayBundle(const std::string &BundleDir) {
  ReplayResult Out;
  std::string Text, Err;
  if (!readWholeFile(BundleDir + "/manifest.json", Text, Err)) {
    Out.Error = Err;
    return Out;
  }
  JSONValue M;
  if (!parseJSON(Text, M, Err)) {
    Out.Error = "manifest.json: " + Err;
    return Out;
  }
  if (M.getUInt("schema_version") != BundleManifestSchemaVersion) {
    Out.Error = "unsupported manifest schema version " +
                std::to_string(M.getUInt("schema_version"));
    return Out;
  }
  const JSONValue *Rec = M.find("record");
  const JSONValue *Cfg = M.find("config");
  const JSONValue *Files = M.find("files");
  if (!Rec || !Cfg || !Files) {
    Out.Error = "manifest missing record/config/files";
    return Out;
  }
  Out.Seed = Rec->getUInt("seed");
  Out.Kind = Rec->getString("kind");
  Out.Function = Rec->getString("function");
  Out.ExpectedVerdict = Rec->getString("verdict");

  // Rebuild the recorded campaign configuration. SelfCheckOnLoad stays
  // off: the recorded testable set pins the preprocessing outcome.
  FuzzOptions O;
  O.Passes = Cfg->getString("passes", "O2");
  O.Mutation.MaxMutationsPerFunction =
      (unsigned)Cfg->getUInt("max_mutations_per_function", 3);
  if (const JSONValue *VS = Cfg->find("value_source")) {
    O.Mutation.ValueSource.MaxDepth = (unsigned)VS->getUInt("max_depth", 2);
    O.Mutation.ValueSource.PoisonPercent =
        (unsigned)VS->getUInt("poison_percent", 4);
    O.Mutation.ValueSource.AllowFreshParameters =
        VS->getBool("allow_fresh_parameters", true);
  }
  if (const JSONValue *EK = Cfg->find("enabled_kinds"); EK && EK->isArray()) {
    O.Mutation.EnabledKinds.clear();
    for (const JSONValue &E : EK->Arr)
      for (unsigned K = 0; K != (unsigned)MutationKind::NumKinds; ++K)
        if (E.K == JSONValue::String &&
            E.Str == mutationKindName((MutationKind)K))
          O.Mutation.EnabledKinds.push_back((MutationKind)K);
  }
  if (const JSONValue *TV = Cfg->find("tv")) {
    O.TV.SolverConflictBudget =
        TV->getUInt("solver_conflict_budget", O.TV.SolverConflictBudget);
    O.TV.ConcreteTrials =
        (unsigned)TV->getUInt("concrete_trials", O.TV.ConcreteTrials);
    O.TV.ExhaustiveBits =
        (unsigned)TV->getUInt("exhaustive_bits", O.TV.ExhaustiveBits);
    O.TV.Fuel = TV->getUInt("fuel", O.TV.Fuel);
    O.TV.Seed = TV->getUInt("seed", O.TV.Seed);
  }
  O.SkipUnchanged = Cfg->getBool("skip_unchanged", true);
  // Timeouts are deterministic, so replaying a timeout bundle needs the
  // same step budget.
  O.Survival.StepBudget = Cfg->getUInt("step_budget", 0);
  O.SelfCheckOnLoad = false;
  O.Iterations = 1;
  O.BaseSeed = Out.Seed;
  std::vector<std::string> Fns;
  if (const JSONValue *TF = Cfg->find("testable_functions");
      TF && TF->isArray())
    for (const JSONValue &E : TF->Arr)
      if (E.K == JSONValue::String)
        Fns.push_back(E.Str);
  O.OnlyFunctions = Fns;
  if (const JSONValue *IB = Cfg->find("injected_bugs"); IB && IB->isArray())
    for (const JSONValue &E : IB->Arr)
      for (const BugInfo &B : bugTable())
        if (E.K == JSONValue::String && E.Str == B.IssueId)
          O.Bugs.enable(B.Id);

  std::string ParseErr;
  auto Mod = parseModuleFile(
      BundleDir + "/" + Files->getString("original", "original.ll"), ParseErr);
  if (!Mod) {
    Out.Error = "original.ll: " + ParseErr;
    return Out;
  }

  FuzzerLoop Loop(O);
  if (!Loop.configError().empty()) {
    Out.Error = Loop.configError();
    return Out;
  }
  if (Loop.loadModule(std::move(Mod)) == 0) {
    Out.Error = "no testable function survived loading original.ll";
    return Out;
  }

  // The mutant must regenerate byte-for-byte from the recorded seed —
  // this is the §III-E determinism claim made checkable, and it catches
  // tampered or version-skewed bundles before verdicts are compared.
  MutationTrail Trail;
  std::unique_ptr<Module> Mutant = Loop.makeMutant(Out.Seed, Trail);
  if (std::string File = Files->getString("mutant"); !File.empty()) {
    std::string Stored;
    if (!readWholeFile(BundleDir + "/" + File, Stored, Err)) {
      Out.Error = Err;
      return Out;
    }
    if (Stored != printModule(*Mutant)) {
      Out.Error = "regenerated mutant differs from stored mutant.ll";
      return Out;
    }
  }
  if (const JSONValue *TJ = M.find("trail"); TJ && TJ->isArray()) {
    if (TJ->Arr.size() != Trail.size()) {
      Out.Error = "mutation trail length mismatch: recorded " +
                  std::to_string(TJ->Arr.size()) + ", regenerated " +
                  std::to_string(Trail.size());
      return Out;
    }
    for (size_t I = 0; I != Trail.size(); ++I) {
      const JSONValue &E = TJ->Arr[I];
      if (E.getString("family") != mutationKindName(Trail[I].Kind) ||
          E.getString("function") != Trail[I].Function ||
          E.getString("site") != Trail[I].Site ||
          E.getString("detail") != Trail[I].Detail) {
        Out.Error = "mutation trail entry " + std::to_string(I) +
                    " does not match the regenerated trail";
        return Out;
      }
    }
  }

  // Re-run the full iteration and demand the recorded outcome, verbatim.
  Loop.runIteration(Out.Seed);
  for (const ForensicRecord &FR : Loop.lastOutcomes()) {
    if (forensicKindName(FR.K) != Out.Kind || FR.Function != Out.Function)
      continue;
    Out.ActualVerdict = FR.VerdictSlug;
    if (FR.VerdictSlug != Out.ExpectedVerdict) {
      Out.Error = "verdict mismatch: recorded '" + Out.ExpectedVerdict +
                  "', replay produced '" + FR.VerdictSlug + "'";
      return Out;
    }
    if (FR.Detail != Rec->getString("detail")) {
      Out.Error = "detail mismatch against the recorded verdict";
      return Out;
    }
    if (FR.CounterExample != Rec->getString("counterexample")) {
      Out.Error = "counterexample mismatch against the recorded verdict";
      return Out;
    }
    if (FR.IssueId != Rec->getString("issue_id")) {
      Out.Error = "issue id mismatch: recorded '" +
                  Rec->getString("issue_id") + "', replay produced '" +
                  FR.IssueId + "'";
      return Out;
    }
    Out.Ok = true;
    return Out;
  }
  Out.Error = "recorded outcome did not reproduce: no " + Out.Kind +
              " record for '" + Out.Function + "' in the replayed iteration";
  return Out;
}
