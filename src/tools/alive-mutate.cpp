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
/// deterministic merge. The survivability flags (-step-budget,
/// -iter-timeout, -fanout, -checkpoint/-resume, -quarantine) keep a long
/// campaign alive across hangs and optimizer crashes.
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "core/Forensics.h"
#include "core/MetricsExporter.h"
#include "core/RunReport.h"
#include "corpus/CorpusLoader.h"
#include "corpus/Distill.h"
#include "opt/BugInjection.h"
#include "support/FaultPlane.h"
#include "tools/ToolCommon.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include <unistd.h>

using namespace alive;

static void printHelp() {
  std::puts(
      "usage: alive-mutate [options] input.ll [more.ll ...]\n"
      "  -n=<count>        number of mutants to generate (default 1000)\n"
      "  -t=<seconds>      time budget instead of a mutant count\n"
      "  -seed=<n>         base PRNG seed (default 1)\n"
      "  -j=<n>            worker threads (0 = all hardware threads; "
      "default 1)\n"
      "  -passes=<desc>    pipeline, e.g. O2 or instcombine,dce (default O2)\n"
      "  -max-mutations=<n> mutations per function per mutant (default 3)\n"
      "  -no-tv-cache      disable the per-worker TV verdict cache\n"
      "  -tv-cache-size=<n> TV verdict cache capacity (default 4096)\n"
      "  -shared-tv-cache  share one canonicalized verdict cache across\n"
      "                    all workers (alpha-renamed, commutative-\n"
      "                    normalized keys; bug report stays -j invariant)\n"
      "  -feedback         feedback-directed scheduling: per-rule coverage\n"
      "                    steers seed energy and family weights (needs -n;\n"
      "                    -feedback=off is the default blind schedule)\n"
      "  -feedback-epoch=<n> seed offsets per schedule epoch (default 256)\n"
      "  -distill          after a -feedback campaign, print the minimal\n"
      "                    corpus function set covering everything observed\n"
      "  -no-skip-unchanged verify even functions no pass modified\n"
      "  -save-dir=<dir>   write mutants to <dir> (created if missing)\n"
      "  -saveAll          save every mutant, not only failing ones\n"
      "  -inject-bugs      enable the 33 seeded Table I defects\n"
      "  -step-budget=<n>  deterministic per-phase watchdog budget; a\n"
      "                    tripped iteration is recorded as a timeout\n"
      "  -iter-timeout=<s> wall-clock backstop per iteration phase (may be\n"
      "                    fractional; timeouts are volatile stats)\n"
      "  -quarantine=<n>   back off a function's refinement checks after\n"
      "                    <n> watchdog timeouts (default: off)\n"
      "  -no-signal-guard  do not contain optimizer SIGABRT/SIGSEGV/...\n"
      "                    in-process (guard is on by default; -fanout\n"
      "                    supersedes it with process isolation)\n"
      "  -fanout=<n>       supervised multi-process campaign: <n> shard\n"
      "                    leases with heartbeat deadlines, bounded-backoff\n"
      "                    restart of dead/wedged children and partial-\n"
      "                    result harvest (requires -n; the deterministic\n"
      "                    report stays byte-identical to -j1 unless a\n"
      "                    lease is permanently lost)\n"
      "  -isolate-mem-mb=<n> RLIMIT_AS for -fanout children, in MiB\n"
      "  -isolate-cpu-s=<n>  RLIMIT_CPU for -fanout children, in seconds\n"
      "  -retry-max=<n>    restart budget per shard lease; checkpoint\n"
      "                    progress refills it (default 5)\n"
      "  -retry-base=<s>   first restart backoff delay, doubling per\n"
      "                    consecutive failure (default 0.05)\n"
      "  -retry-cap=<s>    restart backoff ceiling (default 5)\n"
      "  -lease-deadline=<s> heartbeat deadline after which a wedged child\n"
      "                    is killed and its lease retried (default 30)\n"
      "  -inject-fault=<pt>:<spec>[,...] arm deterministic fault injection\n"
      "                    at named syscall edges; spec is nth:<n> (exactly\n"
      "                    the nth call), every:<k>, or p:<prob> (dedicated\n"
      "                    RNG stream — campaign randomness and the\n"
      "                    deterministic report are never perturbed)\n"
      "  -fault-seed=<n>   reseed the fault-injection probability streams\n"
      "  -checkpoint=<dir> write periodic campaign checkpoints to <dir>\n"
      "  -checkpoint-interval=<n> iterations between checkpoints\n"
      "  -resume           resume the campaign recorded in -checkpoint\n"
      "  -progress=<sec>   print campaign progress every <sec> seconds\n"
      "  -metrics-port=<p> serve live observability HTTP endpoints on\n"
      "                    127.0.0.1:<p> (/metrics /status /healthz /readyz\n"
      "                    /events /series /dashboard, plus /profile.json\n"
      "                    and /flamegraph.json with -profile; 0 = ephemeral\n"
      "                    port, printed on stdout). Observer-only: the\n"
      "                    report stays byte-identical with or without the\n"
      "                    server\n"
      "  -metrics-interval=<s> seconds between /series samples (default 1)\n"
      "  -health-stale=<s> /healthz flips to 503 when a live shard makes no\n"
      "                    progress for <s> seconds (default 10; 0 = off)\n"
      "  -profile          deep cost attribution: per-query solver effort\n"
      "                    (top-K table in the report, -j invariant), a\n"
      "                    wall-clock sampling profiler over the worker\n"
      "                    span stacks, and cache shard heat\n"
      "  -profile-topk=<n> most-expensive-query tracker capacity "
      "(default 16)\n"
      "  -profile-interval=<ms> sampling profiler period (default 10)\n"
      "  -stats-json=<file> write a schema-versioned JSON run report\n"
      "  -trace-json=<file> write a Chrome trace (flight recorder, one\n"
      "                    track per worker; open in Perfetto)\n"
      "  -trace-capacity=<n> flight-recorder ring capacity (default 16384)\n"
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
          {"bug-bundles",     "checkpoint",       "checkpoint-interval",
           "distill",         "fanout",           "fault-seed",
           "feedback",        "feedback-epoch",   "health-stale",
           "help",            "inject-bugs",      "inject-fault",
           "isolate-cpu-s",   "isolate-mem-mb",   "iter-timeout",
           "j",               "lease-deadline",   "max-mutations",
           "metrics-interval", "metrics-port",    "n",
           "no-signal-guard", "no-skip-unchanged", "no-tv-cache",
           "passes",          "profile",          "profile-interval",
           "profile-topk",    "progress",         "quarantine",
           "replay",          "report",           "resume",
           "retry-base",      "retry-cap",        "retry-max",
           "save-dir",        "saveAll",          "seed",
           "shared-tv-cache", "stats-json",       "step-budget",
           "t",               "trace-capacity",   "trace-json",
           "tv-cache-size"});
      !Unknown.empty()) {
    std::fprintf(stderr, "error: unknown flag -%s (see -help)\n",
                 Unknown.c_str());
    return 1;
  }
  if (Args.has("replay")) {
    // A replay re-runs exactly one recorded iteration in-process; campaign
    // flags make no sense next to it. Reject instead of silently ignoring.
    for (const char *Bad : {"j", "resume", "checkpoint"})
      if (Args.has(Bad)) {
        std::fprintf(stderr,
                     "error: -replay cannot be combined with -%s: a replay "
                     "re-runs one recorded bundle, not a campaign; drop -%s "
                     "or run the campaign without -replay\n",
                     Bad, Bad);
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
  Opts.TimeLimitSeconds = (double)Args.getInt("t", 0);
  Opts.BaseSeed = Args.getInt("seed", 1);
  Opts.Mutation.MaxMutationsPerFunction =
      (unsigned)Args.getInt("max-mutations", 3);
  Opts.SaveDir = Args.get("save-dir");
  Opts.SaveAll = Args.has("saveAll");
  Opts.TVCacheSize = Args.has("no-tv-cache")
                         ? 0
                         : (size_t)Args.getInt("tv-cache-size",
                                               Opts.TVCacheSize);
  Opts.UseSharedTVCache = Args.has("shared-tv-cache");
  Opts.SkipUnchanged = !Args.has("no-skip-unchanged");
  Opts.Feedback.Enabled = Args.has("feedback") && Args.get("feedback") != "off";
  Opts.Feedback.EpochLength = (unsigned)Args.getInt("feedback-epoch", 256);
  if (Args.has("inject-bugs"))
    Opts.Bugs.enableAll();
  Opts.BugBundleDir = Args.get("bug-bundles");
  std::string TracePath = Args.get("trace-json");
  Opts.TraceEnabled = !TracePath.empty();
  Opts.TraceCapacity =
      (size_t)Args.getInt("trace-capacity", TraceRecorder::DefaultCapacity);
  Opts.Profile.Enabled = Args.has("profile");
  Opts.Profile.TopK = (unsigned)Args.getInt("profile-topk", 16);
  Opts.Profile.SamplingIntervalMs =
      (unsigned)Args.getInt("profile-interval", 10);
  if (!Opts.Profile.Enabled &&
      (Args.has("profile-topk") || Args.has("profile-interval"))) {
    std::fprintf(stderr, "error: -profile-topk/-profile-interval tune "
                         "-profile; add -profile or drop them\n");
    return 1;
  }

  // Survivability. The in-process signal guard is on by default for the
  // fuzzing tool — a real optimizer abort should be a recorded crash bug,
  // not a dead campaign — and off under -fanout, where process isolation
  // both contains the signal and survives the signals no in-process
  // handler can (SIGKILL from RLIMIT_AS, stack-smashing SIGSEGV).
  SurvivalOptions &SV = Opts.Survival;
  SV.StepBudget = Args.getInt("step-budget", 0);
  if (std::string V = Args.get("iter-timeout"); !V.empty())
    SV.WallTimeoutSeconds = std::atof(V.c_str());
  SV.QuarantineThreshold = (unsigned)Args.getInt("quarantine", 0);
  SV.IsolateMemMB = Args.getInt("isolate-mem-mb", 0);
  SV.IsolateCpuSeconds = Args.getInt("isolate-cpu-s", 0);
  SV.Fanout = (unsigned)Args.getInt("fanout", 0);
  SV.RetryMaxAttempts =
      (unsigned)Args.getInt("retry-max", SV.RetryMaxAttempts);
  if (std::string V = Args.get("retry-base"); !V.empty())
    SV.RetryBaseDelay = std::atof(V.c_str());
  if (std::string V = Args.get("retry-cap"); !V.empty())
    SV.RetryMaxDelay = std::atof(V.c_str());
  if (std::string V = Args.get("lease-deadline"); !V.empty())
    SV.LeaseHeartbeatSeconds = std::atof(V.c_str());
  SV.SignalGuard = !Args.has("no-signal-guard") && !SV.Fanout;
  SV.CheckpointDir = Args.get("checkpoint");
  SV.CheckpointInterval = Args.getInt("checkpoint-interval", 0);
  SV.Resume = Args.has("resume");

  // The fault plane arms before anything it guards can run. Unknown point
  // names and malformed specs are config errors, not warnings: a chaos
  // test that silently armed nothing would prove nothing.
  if (std::string Faults = Args.get("inject-fault"); !Faults.empty()) {
    if (Args.has("fault-seed"))
      FaultPlane::instance().setSeed((uint64_t)Args.getInt("fault-seed", 0));
    std::string FaultErr;
    if (!FaultPlane::instance().arm(Faults, FaultErr)) {
      std::fprintf(stderr, "error: %s\n", FaultErr.c_str());
      return 1;
    }
  } else if (Args.has("fault-seed")) {
    std::fprintf(stderr, "error: -fault-seed tunes -inject-fault; add "
                         "-inject-fault=<point>:<spec> or drop it\n");
    return 1;
  }

  if (Args.has("distill") && !Opts.Feedback.Enabled) {
    std::fprintf(stderr,
                 "error: -distill needs -feedback: distillation ranks the "
                 "corpus by the coverage a feedback campaign collected\n");
    return 1;
  }

  unsigned Jobs = (unsigned)Args.getInt("j", 1);
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

  // The live observability plane (-metrics-port): strictly observer-only,
  // so attaching it cannot perturb the deterministic report. The resolved
  // port goes to stdout so scripts can use -metrics-port=0.
  std::unique_ptr<MetricsServer> Metrics;
  if (Args.has("metrics-port")) {
    MetricsOptions MO;
    MO.Port = (uint16_t)Args.getInt("metrics-port", 0);
    if (std::string V = Args.get("metrics-interval"); !V.empty())
      MO.SnapshotInterval = std::atof(V.c_str());
    if (std::string V = Args.get("health-stale"); !V.empty())
      MO.HealthStaleSeconds = std::atof(V.c_str());
    Metrics = std::make_unique<MetricsServer>(MO);
    Metrics->setEngine(&Engine);
    RunReportConfig Echo;
    Echo.Tool = "alive-mutate";
    Echo.Passes = Opts.Passes;
    Echo.Iterations = Opts.Iterations;
    Echo.BaseSeed = Opts.BaseSeed;
    Echo.FeedbackOn = Opts.Feedback.Enabled;
    Echo.Jobs = Engine.jobs();
    Metrics->setConfigEcho(Echo);
    Engine.setEventQueue(&Metrics->events());
    std::string MetricsErr;
    if (!Metrics->start(MetricsErr)) {
      std::fprintf(stderr, "error: metrics server: %s\n", MetricsErr.c_str());
      return 1;
    }
    std::printf("metrics: listening on http://127.0.0.1:%u\n",
                (unsigned)Metrics->port());
    std::fflush(stdout);
  }

  // From here a SIGINT/SIGTERM stops the campaign cleanly instead of
  // killing the process: checkpoints and -stats-json still flush.
  installTerminateHandler(&Engine);

  // On a TTY the progress line rewrites itself in place; redirected
  // stderr (CI logs) gets plain periodic lines instead.
  ProgressPrinter Printer;
  double ProgressSec = (double)Args.getInt("progress", 0);
  if (ProgressSec > 0)
    Engine.setProgress(ProgressSec, [&Printer](const CampaignProgress &P) {
      char Eta[32] = "eta ?";
      if (P.EtaSeconds >= 0)
        std::snprintf(Eta, sizeof(Eta), "eta %.0fs", P.EtaSeconds);
      char Line[256];
      if (P.Target)
        std::snprintf(Line, sizeof(Line),
                      "[campaign] %llu/%llu mutants, %.1fs, %.0f/s, %s "
                      "(mut %.0f%% opt %.0f%% tv %.0f%% ovh %.0f%%, %u "
                      "workers)",
                      (unsigned long long)P.Done, (unsigned long long)P.Target,
                      P.Elapsed, P.Rate, Eta, 100 * P.MutateShare,
                      100 * P.OptimizeShare, 100 * P.VerifyShare,
                      100 * P.OverheadShare, P.Workers);
      else
        std::snprintf(Line, sizeof(Line),
                      "[campaign] %llu mutants, %.1fs, %.0f/s, %s "
                      "(mut %.0f%% opt %.0f%% tv %.0f%% ovh %.0f%%, %u "
                      "workers)",
                      (unsigned long long)P.Done, P.Elapsed, P.Rate, Eta,
                      100 * P.MutateShare, 100 * P.OptimizeShare,
                      100 * P.VerifyShare, 100 * P.OverheadShare, P.Workers);
      Printer.update(Line);
    });

  const FuzzStats &S = Engine.run();
  GSignalEngine.store(nullptr, std::memory_order_relaxed);
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
    std::printf("timeouts:       %llu (quarantine: %llu check(s) "
                "skipped)\n",
                (unsigned long long)S.Timeouts,
                (unsigned long long)Engine.registry().counterValue(
                    "survive.quarantine.skips"));
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
    std::printf("profile:        %zu tracked quer%s, %llu sample(s) at "
                "%ums\n",
                P.TopQueries.size(), P.TopQueries.size() == 1 ? "y" : "ies",
                (unsigned long long)P.Samples, P.SamplingIntervalMs);
    if (!P.TopQueries.empty()) {
      const QueryCost &Q = P.TopQueries.front();
      std::printf("profile-top:    %s (%s): cost %llu (%llu dec, %llu "
                  "prop, %llu confl) x%llu\n",
                  Q.Function.c_str(), Q.Verdict.c_str(),
                  (unsigned long long)Q.costUnits(),
                  (unsigned long long)Q.Decisions,
                  (unsigned long long)Q.Propagations,
                  (unsigned long long)Q.Conflicts,
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
    RunReportConfig RC;
    RC.Tool = "alive-mutate";
    RC.Passes = Opts.Passes;
    RC.Iterations = Opts.Iterations;
    RC.BaseSeed = Opts.BaseSeed;
    RC.MaxMutationsPerFunction = Opts.Mutation.MaxMutationsPerFunction;
    RC.CorpusFiles = Corpus.FilesLoaded;
    RC.CorpusSkipped = Corpus.FilesSkipped;
    RC.FeedbackOn = Opts.Feedback.Enabled;
    RC.FeedbackEpochLength = Opts.Feedback.EpochLength;
    RC.Jobs = Engine.jobs();
    RC.WallSeconds = S.TotalSeconds;
    RC.Interrupted = Engine.interrupted();
    RC.Degraded = Engine.degraded();
    RC.FanOut = SV.Fanout;
    RC.LostShards = Engine.lostShards();
    RC.TraceDropped = Engine.traceDropped();
    std::string ReportErr;
    if (!writeRunReportFile(StatsPath, RC, S, Engine.bugs(),
                            Engine.registry(), ReportErr, &Engine.profile()))
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
  if (Engine.interrupted())
    std::fprintf(stderr,
                 "note: campaign interrupted before finishing; rerun with "
                 "-resume and the same flags to continue from the last "
                 "checkpoint\n");
  if (S.RefinementFailures || S.Crashes)
    return 2;
  return S.SaveFailures ? 3 : 0;
}
