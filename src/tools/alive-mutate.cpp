//===- tools/alive-mutate.cpp - The main fuzzing tool ----------------------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alive-mutate command-line tool: runs the in-process
/// mutate-optimize-verify loop over an input corpus (one or more .ll
/// files; paper §III and the artifact appendix's CLI: -n, -t, -seed,
/// -passes, -save-dir, -saveAll), sharded across -j worker threads with a
/// deterministic merge. The survivability flags (-step-budget, -fanout,
/// -checkpoint/-resume) keep a long campaign alive across hangs and
/// optimizer crashes.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/Forensics.h"
#include "corpus/CorpusLoader.h"
#include "corpus/Distill.h"
#include "opt/BugInjection.h"
#include "support/FaultPlane.h"
#include "tools/ToolCommon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include <unistd.h>

using namespace alive;

static void printHelp() {
  std::puts(
      "usage: alive-mutate [options] input.ll [more.ll ...]\n"
      "  -n=<count>        number of mutants to generate (default 1000)\n"
      "  -t=<seconds>      deadline (may be fractional): without -n the\n"
      "                    campaign runs until it; with -n it stops at\n"
      "                    whichever comes first\n"
      "  -seed=<n>         base PRNG seed (default 1)\n"
      "  -j=<n>            worker threads (0 = all hardware threads; "
      "default 1;\n"
      "                    not with -fanout, which sets the worker count)\n"
      "  -passes=<desc>    pipeline, e.g. O2 or instcombine,dce (default O2)\n"
      "  -max-mutations=<n> mutations per function per mutant (default 3)\n"
      "  -no-tv-cache      disable the TV verdict cache and the solve\n"
      "                    memo (4096 entries each)\n"
      "  -shared-tv-cache  share one canonicalized verdict cache across\n"
      "                    all workers (alpha-renamed, commutative-\n"
      "                    normalized keys; bug report stays -j invariant)\n"
      "  -feedback         feedback-directed scheduling: per-rule coverage\n"
      "                    steers seed energy and family weights\n"
      "                    (-feedback=off is the default blind schedule)\n"
      "  -feedback-epoch=<n> seed offsets per schedule epoch (default 256)\n"
      "  -distill          after a -feedback campaign, print the minimal\n"
      "                    corpus function set covering everything observed\n"
      "  -no-skip-unchanged verify even functions no pass modified\n"
      "  -save-dir=<dir>   write mutants to <dir> (created if missing)\n"
      "  -saveAll          save every mutant, not only failing ones\n"
      "  -inject-bugs      enable the 33 seeded Table I defects\n"
      "  -step-budget=<n>  deterministic per-phase watchdog budget; a\n"
      "                    tripped iteration is recorded as a timeout\n"
      "  -no-signal-guard  do not contain optimizer SIGABRT/SIGSEGV/...\n"
      "                    in-process (guard is on by default; -fanout\n"
      "                    supersedes it with process isolation)\n"
      "  -fanout=<n>       run <n> workers' epoch slices in supervised\n"
      "                    child processes: heartbeat deadlines, backoff\n"
      "                    restart of dead/wedged children, shard results\n"
      "                    restored at each epoch (requires -n; the\n"
      "                    deterministic report stays byte-identical to -j1\n"
      "                    unless a lease is permanently lost). Children\n"
      "                    inherit the shell's limits (ulimit -v)\n"
      "  -inject-fault=<pt>:<spec>[,...] arm deterministic fault injection\n"
      "                    at named syscall edges; spec is nth:<n> (exactly\n"
      "                    the nth call), every:<k>, or p:<prob> (dedicated\n"
      "                    RNG stream — campaign randomness and the\n"
      "                    deterministic report are never perturbed)\n"
      "  -fault-seed=<n>   reseed the fault-injection probability streams\n"
      "  -checkpoint=<dir> write periodic campaign checkpoints to <dir>\n"
      "  -resume           resume the campaign recorded in -checkpoint\n"
      "  -progress=<sec>   print campaign progress every <sec> seconds\n"
      "                    (may be fractional)\n"
      "  -profile          deep cost attribution: per-query solver effort\n"
      "                    (top-K table in the report, -j invariant) and\n"
      "                    exact self time per worker span stack; kept\n"
      "                    across -resume and -fanout\n"
      "  -profile-topk=<n> most-expensive-query tracker capacity "
      "(default 16)\n"
      "  -stats-json=<file> write a schema-versioned JSON run report\n"
      "  -trace-json=<file> write a Chrome trace (flight recorder, one\n"
      "                    track per worker; open in Perfetto)\n"
      "  -bug-bundles=<dir> write a replayable forensics bundle per bug\n"
      "  -replay <bundle>  re-run a recorded bundle; exit 0 only when the\n"
      "                    recorded verdict reproduces\n"
      "  -report           print bug records at the end\n"
      "  -help             this text");
}

// SIGINT/SIGTERM wind the campaign down at the next iteration boundary:
// run() returns normally, so -stats-json, the final checkpoint and the
// interrupted-note all still happen. A second signal gives up and exits
// with the conventional 128+SIGINT code. Everything the handler touches
// is async-signal-safe (atomic load, atomic store, _exit).
static std::atomic<alive::CampaignEngine *> GSignalEngine{nullptr};
static volatile std::sig_atomic_t GSignalSeen = 0;

static void onTerminateSignal(int) {
  if (GSignalSeen) {
    _exit(130);
  }
  GSignalSeen = 1;
  if (alive::CampaignEngine *E =
          GSignalEngine.load(std::memory_order_relaxed))
    E->requestStop();
}

static void installTerminateHandler(alive::CampaignEngine *E) {
  GSignalEngine.store(E, std::memory_order_relaxed);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTerminateSignal;
  sigemptyset(&SA.sa_mask);
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
}

/// One -progress line from a live snapshot: done/target, rate, ETA (the
/// earlier of the rate's ETA to -n and the time left before the -t
/// deadline) and each stage's share of this run's summed stage time. With
/// no stage time to split (always under -fanout, whose children keep
/// theirs) it says so instead of printing shares. The rate counts only
/// this run's iterations: a -resume'd prefix was done before Elapsed
/// started.
static std::string progressLine(const CampaignLiveSnapshot &S,
                                double TimeLimit) {
  double Rate =
      S.Elapsed > 0 ? (double)(S.Done - S.Restored) / S.Elapsed : 0;
  double EtaSec =
      S.Target && Rate > 0 ? (double)(S.Target - S.Done) / Rate : HUGE_VAL;
  if (TimeLimit > 0)
    EtaSec = std::min(EtaSec, std::max(0.0, TimeLimit - S.Elapsed));
  char Eta[32] = "eta ?";
  if (EtaSec != HUGE_VAL)
    std::snprintf(Eta, sizeof(Eta), "eta %.0fs", EtaSec);
  const uint64_t *Stage = S.StageNanos;
  double StageSum = (double)Stage[0] + Stage[1] + Stage[2] + Stage[3];
  char Split[64] = "no stage times";
  if (StageSum > 0)
    std::snprintf(Split, sizeof(Split),
                  "mut %.0f%% opt %.0f%% tv %.0f%% ovh %.0f%%",
                  100 * Stage[0] / StageSum, 100 * Stage[1] / StageSum,
                  100 * Stage[2] / StageSum, 100 * Stage[3] / StageSum);
  char Done[48];
  if (S.Target)
    std::snprintf(Done, sizeof(Done), "%llu/%llu", (unsigned long long)S.Done,
                  (unsigned long long)S.Target);
  else
    std::snprintf(Done, sizeof(Done), "%llu", (unsigned long long)S.Done);
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "[campaign] %s mutants, %.1fs, %.0f/s, %s (%s, %u workers)",
                Done, S.Elapsed, Rate, Eta, Split, S.Workers);
  return Line;
}

/// The -replay mode: everything the iteration needs is inside the bundle.
static int runReplay(const std::string &Bundle) {
  ReplayResult R = replayBundle(Bundle);
  std::printf("replay: %s\n", Bundle.c_str());
  if (!R.Kind.empty())
    std::printf("  seed=%llu kind=%s%s%s recorded=%s\n",
                (unsigned long long)R.Seed, R.Kind.c_str(),
                R.Function.empty() ? "" : " function=",
                R.Function.c_str(), R.ExpectedVerdict.c_str());
  if (R.Ok) {
    std::printf("  reproduced: yes (verdict '%s')\n",
                R.ActualVerdict.c_str());
    return 0;
  }
  std::fprintf(stderr, "replay FAILED: %s\n", R.Error.c_str());
  return 1;
}

int main(int Argc, char **Argv) {
  ArgParser Args(Argc, Argv);
  // A mistyped or retired flag must not quietly change the campaign (a
  // misspelled -feedback would run blind), so any other flag is an error.
  if (std::string Unknown = Args.firstUnknown(
          {"bug-bundles",     "checkpoint",       "distill",
           "fanout",          "fault-seed",       "feedback",
           "feedback-epoch",  "help",             "inject-bugs",
           "inject-fault",    "j",                "max-mutations",
           "n",               "no-signal-guard",  "no-skip-unchanged",
           "no-tv-cache",     "passes",           "profile",
           "profile-topk",    "progress",         "replay",
           "report",          "resume",           "save-dir",
           "saveAll",         "seed",             "shared-tv-cache",
           "stats-json",      "step-budget",      "t",
           "trace-json"});
      !Unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag -%s (see -help)\n",
                 Unknown.c_str());
    return 1;
  }
  if (Args.has("replay")) {
    // A replay re-runs exactly one recorded iteration in-process, with the
    // configuration its bundle recorded; every other flag would be
    // ignored. Reject it instead.
    if (std::string Bad = Args.firstUnknown({"replay"}); !Bad.empty()) {
      std::fprintf(stderr,
                   "error: -replay cannot be combined with -%s: a replay "
                   "re-runs one recorded bundle, not a campaign; drop -%s "
                   "or run the campaign without -replay\n",
                   Bad.c_str(), Bad.c_str());
      return 1;
    }
    // Both `-replay=<bundle>` and `-replay <bundle>` (positional) work.
    std::string Bundle = Args.get("replay");
    if (Bundle.empty() && !Args.positional().empty())
      Bundle = Args.positional()[0];
    if (Bundle.empty()) {
      std::fprintf(stderr, "error: -replay needs a bundle directory\n");
      return 1;
    }
    return runReplay(Bundle);
  }
  if (Args.has("help") || Args.positional().empty()) {
    printHelp();
    return Args.has("help") ? 0 : 1;
  }

  FuzzOptions Opts;
  Opts.Passes = Args.get("passes", "O2");
  Opts.Iterations = Args.getInt("n", Args.has("t") ? 0 : 1000);
  Opts.TimeLimitSeconds = Args.getSeconds("t", 0);
  Opts.BaseSeed = Args.getInt("seed", 1);
  Opts.Mutation.MaxMutationsPerFunction =
      Args.getInt<unsigned>("max-mutations", 3);
  Opts.SaveDir = Args.get("save-dir");
  Opts.SaveAll = Args.has("saveAll");
  if (Args.has("no-tv-cache"))
    Opts.TVCacheSize = 0;
  Opts.UseSharedTVCache = Args.has("shared-tv-cache");
  Opts.SkipUnchanged = !Args.has("no-skip-unchanged");
  Opts.Feedback.Enabled = Args.has("feedback") && Args.get("feedback") != "off";
  Opts.Feedback.EpochLength = Args.getInt<unsigned>("feedback-epoch", 256, 1);
  if (Args.has("inject-bugs"))
    Opts.Bugs.enableAll();
  Opts.BugBundleDir = Args.get("bug-bundles");
  std::string TracePath = Args.get("trace-json");
  Opts.TraceEnabled = !TracePath.empty();
  Opts.Profile.Enabled = Args.has("profile");
  Opts.Profile.TopK = Args.getInt<unsigned>("profile-topk", 16, 1);

  // Survivability. The in-process signal guard is on by default for the
  // fuzzing tool — a real optimizer abort should be a recorded crash bug,
  // not a dead campaign. Under -fanout the engine turns it off in every
  // worker (workerOptions): process isolation both contains the signal
  // and survives the signals no in-process handler can (the OOM killer's
  // SIGKILL, stack-smashing SIGSEGV).
  SurvivalOptions &SV = Opts.Survival;
  SV.StepBudget = Args.getInt("step-budget", 0);
  SV.Fanout = Args.getInt<unsigned>("fanout", 0);
  SV.SignalGuard = !Args.has("no-signal-guard");
  SV.CheckpointDir = Args.get("checkpoint");
  SV.Resume = Args.has("resume");

  // A tuning flag whose feature is off would be ignored without a word,
  // so the campaign would not be the one asked for: reject it by name.
  struct TuningFlag {
    const char *Name;
    bool FeatureOn;
    const char *Feature;
    const char *Fix;
  };
  for (const TuningFlag &T : {
           TuningFlag{"profile-topk", Opts.Profile.Enabled, "-profile",
                      "add -profile"},
           TuningFlag{"fault-seed", !Args.get("inject-fault").empty(),
                      "-inject-fault", "add -inject-fault=<point>:<spec>"},
           TuningFlag{"feedback-epoch", Opts.Feedback.Enabled, "-feedback",
                      "add -feedback"},
           TuningFlag{"shared-tv-cache", Opts.TVCacheSize > 0,
                      "the verdict cache", "drop -no-tv-cache"},
           TuningFlag{"j", SV.Fanout == 0,
                      "the worker threads, which -fanout=<n> replaces",
                      "drop -fanout"},
       })
    if (!T.FeatureOn && Args.has(T.Name)) {
      std::fprintf(stderr, "error: -%s tunes %s; %s, or drop -%s\n", T.Name,
                   T.Feature, T.Fix, T.Name);
      return 1;
    }

  // The fault plane arms before anything it guards can run. Unknown point
  // names and malformed specs are config errors, not warnings: a chaos
  // test that silently armed nothing would prove nothing.
  if (std::string Faults = Args.get("inject-fault"); !Faults.empty()) {
    if (Args.has("fault-seed"))
      FaultPlane::instance().setSeed(Args.getInt("fault-seed", 0));
    std::string FaultErr;
    if (!FaultPlane::instance().arm(Faults, FaultErr)) {
      std::fprintf(stderr, "error: %s\n", FaultErr.c_str());
      return 1;
    }
  }

  if (Args.has("distill") && !Opts.Feedback.Enabled) {
    std::fprintf(stderr,
                 "error: -distill needs -feedback: distillation ranks the "
                 "corpus by the coverage a feedback campaign collected\n");
    return 1;
  }

  unsigned Jobs = Args.getInt<unsigned>("j", 1);
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());

  // The engine checks the pipeline and every flag combination on
  // construction, before the corpus is read.
  CampaignEngine Engine(Opts, Jobs);
  if (!Engine.configError().empty()) {
    std::fprintf(stderr, "error: %s\n", Engine.configError().c_str());
    return 1;
  }

  // The corpus: every positional argument is a .ll file, merged into one
  // campaign module. Broken files are skipped with a warning (counted in
  // the report), not fatal — real test suites always have a few.
  CorpusLoadResult Corpus = loadCorpus(Args.positional());
  for (const std::string &W : Corpus.Warnings)
    std::fprintf(stderr, "warning: %s\n", W.c_str());
  if (!Corpus.M) {
    std::fprintf(stderr,
                 "error: no usable corpus file among %zu input(s)\n",
                 Args.positional().size());
    return 1;
  }

  unsigned Testable = Engine.loadModule(std::move(Corpus.M));
  char Mode[32] = "";
  if (SV.Fanout)
    std::snprintf(Mode, sizeof(Mode), " [fanout=%u]", SV.Fanout);
  std::printf("alive-mutate: %u testable function(s) from %u corpus "
              "file(s), pipeline '%s', %u worker(s)%s\n",
              Testable, Corpus.FilesLoaded, Opts.Passes.c_str(),
              Engine.jobs(), Mode);
  if (Corpus.FilesSkipped)
    std::printf("corpus:         %u file(s) skipped, %u function(s) "
                "renamed\n",
                Corpus.FilesSkipped, Corpus.Renamed);
  if (Testable == 0)
    return 0;

  // From here a SIGINT/SIGTERM stops the campaign cleanly instead of
  // killing the process: checkpoints and -stats-json still flush.
  installTerminateHandler(&Engine);

  // -progress reads the engine's live snapshot every interval. On a TTY
  // the line rewrites itself in place; redirected stderr (CI logs) gets
  // plain periodic lines instead.
  ProgressPrinter Printer;
  std::mutex ProgressM;
  std::condition_variable ProgressCV;
  bool Finished = false;
  std::thread Reporter;
  if (double Interval = Args.getSeconds("progress", 0); Interval > 0)
    Reporter = std::thread([&, Interval] {
      std::unique_lock<std::mutex> Lock(ProgressM);
      while (!ProgressCV.wait_for(Lock, std::chrono::duration<double>(Interval),
                                  [&] { return Finished; }))
        if (CampaignLiveSnapshot Live = Engine.liveSnapshot(); Live.Running)
          Printer.update(progressLine(Live, Opts.TimeLimitSeconds));
    });

  const FuzzStats &S = Engine.run();
  GSignalEngine.store(nullptr, std::memory_order_relaxed);
  if (Reporter.joinable()) {
    {
      std::lock_guard<std::mutex> Lock(ProgressM);
      Finished = true;
    }
    ProgressCV.notify_all();
    Reporter.join();
  }
  Printer.finish();
  if (!Engine.configError().empty()) {
    std::fprintf(stderr, "error: %s\n", Engine.configError().c_str());
    return 1;
  }
  std::printf("mutants:        %llu\n",
              (unsigned long long)S.MutantsGenerated);
  std::printf("mutations:      %llu\n",
              (unsigned long long)S.MutationsApplied);
  std::printf("verified:       %llu\n", (unsigned long long)S.Verified);
  std::printf("verify-skipped: %llu\n", (unsigned long long)S.VerifySkipped);
  if (Opts.TVCacheSize > 0)
    // Hit/miss splits depend on cache history (per-worker private caches,
    // or scheduling with -shared-tv-cache), so this line (like time)
    // varies with -j; the bug report does not.
    std::printf("tv-cache:       %llu hit(s), %llu miss(es), %llu "
                "eviction(s) [%s, %u worker(s)]\n",
                (unsigned long long)S.TVCacheHits,
                (unsigned long long)S.TVCacheMisses,
                (unsigned long long)S.TVCacheEvictions,
                Opts.UseSharedTVCache ? "shared" : "per-worker",
                Engine.jobs());
  std::printf("miscompiles:    %llu\n",
              (unsigned long long)S.RefinementFailures);
  std::printf("crashes:        %llu\n", (unsigned long long)S.Crashes);
  std::printf("inconclusive:   %llu\n", (unsigned long long)S.Inconclusive);
  std::printf("invalid:        %llu\n",
              (unsigned long long)S.InvalidMutants);
  if (S.Timeouts)
    std::printf("timeouts:       %llu\n", (unsigned long long)S.Timeouts);
  if (uint64_t Contained =
          Engine.registry().counterValue("survive.contained-signals"))
    std::printf("contained:      %llu optimizer signal(s) caught "
                "in-process\n",
                (unsigned long long)Contained);
  if (SV.Fanout)
    std::printf("supervision:    %llu restart(s), %llu wedge kill(s), "
                "%llu fork failure(s), %zu lost shard(s)\n",
                (unsigned long long)Engine.registry().counterValue(
                    "survive.supervisor.restarts"),
                (unsigned long long)Engine.registry().counterValue(
                    "survive.supervisor.wedges"),
                (unsigned long long)Engine.registry().counterValue(
                    "survive.supervisor.fork_failures"),
                Engine.lostShards().size());
  if (FaultPlane::instance().armed())
    for (const FaultPointCounters &FC : FaultPlane::instance().counters())
      std::printf("fault:          %s (%s): %llu trigger(s) in %llu "
                  "call(s)\n",
                  FC.Point.c_str(), FC.Spec.c_str(),
                  (unsigned long long)FC.Triggers,
                  (unsigned long long)FC.Calls);
  if (Opts.Feedback.Enabled)
    std::printf("feedback:       %llu epoch(s), %llu coverage bit(s), "
                "%llu energy skip(s)\n",
                (unsigned long long)Engine.registry().counterValue(
                    "feedback.epochs"),
                (unsigned long long)Engine.registry().counterValue(
                    "feedback.bits_covered"),
                (unsigned long long)Engine.registry().counterValue(
                    "feedback.energy_skips"));
  if (!SV.CheckpointDir.empty())
    std::printf("checkpoints:    %llu written (%llu failure(s))\n",
                (unsigned long long)Engine.registry().counterValue(
                    "survive.checkpoint.writes"),
                (unsigned long long)Engine.registry().counterValue(
                    "survive.checkpoint.failures"));
  if (!Opts.SaveDir.empty())
    std::printf("saved:          %llu (%llu save failure(s))\n",
                (unsigned long long)S.MutantsSaved,
                (unsigned long long)S.SaveFailures);
  if (!Opts.BugBundleDir.empty())
    std::printf("bundles:        %llu (%llu failure(s))\n",
                (unsigned long long)S.BundlesWritten,
                (unsigned long long)S.BundleFailures);
  std::printf("time:           %.3fs wall, %.3fs worker (mutate %.3fs, opt "
              "%.3fs, verify %.3fs, overhead %.3fs)\n",
              S.TotalSeconds, S.WorkerSeconds, S.MutateSeconds,
              S.OptimizeSeconds, S.VerifySeconds, S.OverheadSeconds);
  if (const CampaignProfile &P = Engine.profile(); P.Enabled) {
    uint64_t Folded = 0;
    for (const auto &[Stack, Nanos] : P.SpanSelfNanos)
      Folded += Nanos;
    std::printf("profile:        %zu tracked quer%s, %.3fs folded over %zu "
                "span stack(s)\n",
                P.TopQueries.size(), P.TopQueries.size() == 1 ? "y" : "ies",
                Folded / 1e9, P.SpanSelfNanos.size());
    if (!P.TopQueries.empty()) {
      const QueryCost &Q = P.TopQueries.front();
      std::printf("profile-top:    %s (%s): cost %llu (%llu dec, %llu "
                  "prop, %llu confl; %llu vars, %llu clauses) x%llu\n",
                  Q.Function.c_str(), Q.Verdict.c_str(),
                  (unsigned long long)Q.costUnits(),
                  (unsigned long long)Q.Decisions,
                  (unsigned long long)Q.Propagations,
                  (unsigned long long)Q.Conflicts,
                  (unsigned long long)Q.Vars,
                  (unsigned long long)Q.Clauses,
                  (unsigned long long)Q.Count);
    }
  }

  if (Args.has("distill")) {
    // Greedy set cover over the campaign's per-function coverage: the
    // kept set reaches every rule/verdict bit any function reached. The
    // ranking is total (popcount, then name), so running the distillation
    // on an already-distilled corpus keeps exactly the same set.
    std::vector<DistillItem> Items;
    for (const auto &[Fn, Cov] : Engine.feedback().PerFunction) {
      DistillItem It;
      It.Name = Fn;
      It.Words.assign(Cov.Words, Cov.Words + CoverageBitmap::NumWords);
      Items.push_back(std::move(It));
    }
    DistillResult D = distillCover(std::move(Items));
    std::printf("distill:        kept %zu of %zu covering function(s)\n",
                D.Kept.size(), D.Kept.size() + D.Dropped.size());
    for (const std::string &K : D.Kept)
      std::printf("distill-keep:   %s\n", K.c_str());
    for (const std::string &Dr : D.Dropped)
      std::printf("distill-drop:   %s\n", Dr.c_str());
  }

  if (Args.has("report"))
    for (const BugRecord &B : Engine.bugs()) {
      std::printf("--- %s seed=%llu %s%s\n%s\n",
                  B.Kind == BugRecord::Miscompile ? "MISCOMPILE" : "CRASH",
                  (unsigned long long)B.MutantSeed, B.Detail.c_str(),
                  B.IssueId.empty() ? "" : (" [PR" + B.IssueId + "]").c_str(),
                  B.MutantIR.c_str());
    }

  if (std::string StatsPath = Args.get("stats-json"); !StatsPath.empty()) {
    RunReport Rep = Engine.runReport("alive-mutate");
    Rep.CorpusFiles = Corpus.FilesLoaded;
    Rep.CorpusSkipped = Corpus.FilesSkipped;
    std::string ReportErr;
    if (!writeRunReportFile(StatsPath, Rep, ReportErr))
      std::fprintf(stderr, "warning: %s\n", ReportErr.c_str());
  }

  if (!TracePath.empty()) {
    std::string TraceErr;
    if (!Engine.writeTrace(TracePath, TraceErr))
      std::fprintf(stderr, "warning: %s\n", TraceErr.c_str());
  }

  if (!Engine.saveDirError().empty())
    // The directory never came up: reported once, not per mutant.
    std::fprintf(stderr, "warning: %s\n", Engine.saveDirError().c_str());
  if (!Engine.bundleError().empty())
    std::fprintf(stderr, "warning: %s\n", Engine.bundleError().c_str());
  if (!Engine.fanoutIncidents().empty())
    std::fprintf(stderr, "warning: %s\n", Engine.fanoutIncidents().c_str());
  if (S.SaveFailures > 0)
    std::fprintf(stderr,
                 "warning: %llu mutant(s) could not be saved to '%s'\n",
                 (unsigned long long)S.SaveFailures, Opts.SaveDir.c_str());
  if (Engine.degraded())
    std::fprintf(stderr,
                 "warning: campaign degraded: %zu shard lease(s) "
                 "permanently lost after exhausting retries; results are "
                 "incomplete and flagged degraded in the report\n",
                 Engine.lostShards().size());
  if (Engine.interrupted() && !SV.CheckpointDir.empty())
    std::fprintf(stderr,
                 "note: campaign interrupted before finishing; rerun with "
                 "-resume and the same flags to continue from the last "
                 "checkpoint\n");
  else if (Engine.interrupted())
    std::fprintf(stderr,
                 "note: campaign interrupted after %llu%s mutant(s); it ran "
                 "without -checkpoint, so it cannot be resumed\n",
                 (unsigned long long)S.MutantsGenerated,
                 Opts.Iterations ? (" of " + std::to_string(Opts.Iterations) +
                                    " planned").c_str()
                                 : "");
  if (S.RefinementFailures || S.Crashes)
    return 2;
  return S.SaveFailures || Engine.degraded() ? 3 : 0;
}
