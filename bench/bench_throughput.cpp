//===- bench/bench_throughput.cpp - The §V-B throughput experiment ---------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's §V-B throughput experiment. For each corpus
/// file (<2KB, InstCombine-unit-test-shaped) it performs the same amount
/// of mutation testing three ways:
///
///   1. alive-mutate (in-process): the single-process
///      mutate-optimize-verify loop, with change-tracking skips and the
///      TV verdict cache on (the defaults);
///   2. alive-mutate without memoization (-no-tv-cache
///      -no-skip-unchanged): the same loop re-verifying every function of
///      every mutant — isolates what the skip/cache layer buys;
///   3. discrete tools: a loop that, per mutant, spawns amut-mutate,
///      amut-opt and amut-tv as separate UNIX processes communicating
///      through real files — the Figure 2 baseline with its process
///      creation/destruction, file I/O, parsing and printing overheads.
///
/// All conditions are driven by the same PRNG seeds, so "the actual work
/// performed under both conditions is exactly the same". Output ends in
/// the artifact's Listing-20 format.
///
/// Environment knobs: AMR_THROUGHPUT_FILES (default 24; paper used 194),
/// AMR_THROUGHPUT_COUNT (mutants per file, default 40; paper used 1000),
/// AMR_THROUGHPUT_JOBS (in-process worker threads, default 1 — the
/// discrete baseline is inherently one process chain at a time, so extra
/// workers widen the in-process advantage on multi-core hosts) and
/// AMR_THROUGHPUT_JSON (when set: path of a machine-readable JSON report
/// with the per-file rows and the aggregated skip/cache counters; CI's
/// smoke job diffs its structure against BENCH_baseline.json), and
/// AMR_THROUGHPUT_SHARED (default 1: the memoized condition uses the
/// process-wide canonicalized verdict cache; 0 reverts to the per-worker
/// text-keyed cache so CI can compare the two hit rates).
///
//===----------------------------------------------------------------------===//

#include "core/CampaignEngine.h"
#include "corpus/Corpus.h"
#include "tv/SharedTVCache.h"
#include "parser/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace alive;

namespace {

std::string ToolDir;

/// Spawns Tool with Args; waits; returns exit status (-1 on spawn error).
int runTool(const std::string &Tool, const std::vector<std::string> &Args) {
  // Flush before forking so the child does not inherit (and re-emit) the
  // parent's buffered output when it redirects its streams.
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    std::string Path = ToolDir + "/" + Tool;
    std::vector<char *> Argv;
    Argv.push_back(const_cast<char *>(Path.c_str()));
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    // Silence the children: their stdout/stderr is not the experiment.
    freopen("/dev/null", "w", stdout);
    freopen("/dev/null", "w", stderr);
    execv(Path.c_str(), Argv.data());
    _exit(127);
  }
  int Status = 0;
  waitpid(Pid, &Status, 0);
  return Status;
}

unsigned envOr(const char *Name, unsigned Default) {
  const char *V = std::getenv(Name);
  return V ? (unsigned)std::strtoul(V, nullptr, 10) : Default;
}

/// Exact nearest-rank percentile: the smallest sample with at least
/// \p Pct percent of the samples at or below it. Always one of the
/// samples, never an interpolation or a bucket bound.
double nearestRank(std::vector<double> Samples, unsigned Pct) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = (Pct * Samples.size() + 99) / 100; // ceil(Pct% of N)
  return Samples[std::max<size_t>(Rank, 1) - 1];
}

} // namespace

int main(int argc, char **argv) {
  // Locate the sibling tools relative to this binary.
  std::string Self = argv[0];
  size_t Slash = Self.rfind('/');
  std::string BenchDir = Slash == std::string::npos ? "." : Self.substr(0, Slash);
  ToolDir = BenchDir + "/../src/tools";

  const unsigned NumFiles = envOr("AMR_THROUGHPUT_FILES", 24);
  const unsigned Count = envOr("AMR_THROUGHPUT_COUNT", 40);
  const unsigned Jobs = std::max(1u, envOr("AMR_THROUGHPUT_JOBS", 1));
  const bool Shared = envOr("AMR_THROUGHPUT_SHARED", 1) != 0;
  const std::string Tmp = "/tmp/amr-throughput";
  std::string Cmd = "mkdir -p " + Tmp;
  if (std::system(Cmd.c_str()) != 0)
    return 1;

  std::printf("=== Throughput experiment (paper §V-B) ===\n");
  std::printf("files: %u (paper: 194), mutants per file: %u (paper: 1000), "
              "in-process workers: %u, tv-cache: %s\n\n",
              NumFiles, Count, Jobs, Shared ? "shared" : "per-worker");

  // The corpus: generated files under 2KB, InstCombine-test shaped, plus
  // the paper's own listings; files the validator cannot handle would be
  // discarded, mirroring the paper's 200 -> 194.
  std::vector<std::string> Files = generateCorpusFiles(2024, NumFiles);

  struct Row {
    std::string Name;
    double InProcess;
    double NoMemo;
    double Discrete;
    /// The file's most expensive TV query (cost attribution of the
    /// memoized condition); HasTop false when nothing was tracked.
    bool HasTop = false;
    QueryCost Top;
  };
  std::vector<Row> Rows;
  FuzzStats Agg; // the memoized condition's stats, summed
  unsigned Invalid = 0, NotVerified = 0;

  // One process-wide verdict cache spanning every per-file campaign:
  // generated corpus files share structural patterns, so canonicalized
  // verdicts computed for one file replay for later ones.
  SharedTVCache ProcessCache;

  for (unsigned FI = 0; FI != Files.size(); ++FI) {
    std::string Name = "test" + std::to_string(FI) + ".ll";
    std::string Path = Tmp + "/" + Name;
    {
      std::ofstream Out(Path);
      Out << Files[FI];
    }

    std::string Err;
    auto M = parseModule(Files[FI], Err);
    if (!M) {
      ++Invalid;
      continue;
    }
    FuzzOptions Opts;
    Opts.Iterations = Count;
    Opts.BaseSeed = 1;
    Opts.TV.ConcreteTrials = 16;
    Opts.TV.SolverConflictBudget = 4000; // matched in the amut-tv calls
    if (Shared) {
      Opts.UseSharedTVCache = true;
      Opts.SharedCache = &ProcessCache; // spans all files, not per-engine
    }
    // Cost attribution on the memoized condition: the per-file top query
    // names what dominates that file's verify time in the JSON report.
    // The tracker rides the verify path (a mutex-guarded map update per
    // function); the slight drag lands on the in-process condition only,
    // which can only understate the reported speedups.
    Opts.Profile.Enabled = true;
    Opts.Profile.TopK = 8;

    // --- Condition 1: alive-mutate (in-process), memoization on. ---
    CampaignEngine Fuzzer(Opts, Jobs);
    Timer T1;
    unsigned Testable = Fuzzer.loadModule(std::move(M));
    if (Testable == 0) {
      ++NotVerified; // the paper discarded 6 of 200 this way
      continue;
    }
    const FuzzStats &S = Fuzzer.run();
    double InProc = T1.seconds();
    accumulate(Agg, S);

    // --- Condition 2: in-process, memoization off (the old loop). ---
    FuzzOptions Bare = Opts;
    Bare.SkipUnchanged = false;
    Bare.TVCacheSize = 0;
    Bare.UseSharedTVCache = false;
    CampaignEngine BareFuzzer(Bare, Jobs);
    auto M2 = parseModule(Files[FI], Err);
    Timer T1b;
    BareFuzzer.loadModule(std::move(M2));
    BareFuzzer.run();
    double NoMemo = T1b.seconds();

    // --- Condition 3: discrete tools with files and processes. ---
    std::string MutPath = Tmp + "/mutant.ll";
    std::string OptPath = Tmp + "/optimized.ll";
    Timer T2;
    for (unsigned I = 0; I != Count; ++I) {
      runTool("amut-mutate",
              {"-seed=" + std::to_string(Opts.BaseSeed + I), Path, MutPath});
      runTool("amut-opt", {"-passes=O2", MutPath, OptPath});
      runTool("amut-tv", {"-budget=4000", "-trials=16", MutPath, OptPath});
    }
    double Discrete = T2.seconds();

    Row R;
    R.Name = Name;
    R.InProcess = InProc;
    R.NoMemo = NoMemo;
    R.Discrete = Discrete;
    if (const CampaignProfile &P = Fuzzer.profile();
        P.Enabled && !P.TopQueries.empty()) {
      R.HasTop = true;
      R.Top = P.TopQueries.front();
    }
    Rows.push_back(std::move(R));
    std::printf("%-12s in-process %8.3fs   no-memo %8.3fs   discrete %8.3fs"
                "   speedup %7.2fx\n",
                Name.c_str(), InProc, NoMemo, Discrete, Discrete / InProc);
    if (Rows.back().HasTop) {
      const QueryCost &Q = Rows.back().Top;
      std::printf("             top query: %s (%s) cost %llu (%llu dec, "
                  "%llu prop, %llu confl) x%llu\n",
                  Q.Function.c_str(), Q.Verdict.c_str(),
                  (unsigned long long)Q.costUnits(),
                  (unsigned long long)Q.Decisions,
                  (unsigned long long)Q.Propagations,
                  (unsigned long long)Q.Conflicts,
                  (unsigned long long)Q.Count);
    }
  }

  // Summary in the shape the paper reports.
  double Sum = 0, Best = 0, Worst = 1e9;
  std::string BestName, WorstName;
  for (const Row &R : Rows) {
    double S = R.Discrete / R.InProcess;
    Sum += S;
    if (S > Best) {
      Best = S;
      BestName = R.Name;
    }
    if (S < Worst) {
      Worst = S;
      WorstName = R.Name;
    }
  }
  double Avg = Rows.empty() ? 0 : Sum / Rows.size();
  double MemoSum = 0;
  for (const Row &R : Rows)
    MemoSum += R.NoMemo / R.InProcess;
  double MemoAvg = Rows.empty() ? 0 : MemoSum / Rows.size();
  uint64_t Lookups = Agg.TVCacheHits + Agg.TVCacheMisses;
  std::printf("\naverage speedup: %.2fx  (paper: ~12x)\n", Avg);
  std::printf("best case:       %.2fx on %s (paper: 786x)\n", Best,
              BestName.c_str());
  std::printf("worst case:      %.2fx on %s (paper: 1.01x)\n", Worst,
              WorstName.c_str());
  std::printf("memoization:     %.2fx over no-memo in-process; "
              "%llu verified, %llu skipped, cache %llu/%llu hit "
              "(%.1f%%), %llu evicted\n",
              MemoAvg, (unsigned long long)Agg.Verified,
              (unsigned long long)Agg.VerifySkipped,
              (unsigned long long)Agg.TVCacheHits,
              (unsigned long long)Lookups,
              Lookups ? 100.0 * Agg.TVCacheHits / Lookups : 0.0,
              (unsigned long long)Agg.TVCacheEvictions);
  // Per-file latency per condition, as exact nearest-rank p50/p90/p99 of
  // the rows' samples. Each condition reports the same three percentiles
  // as the JSON block below, so the two can be cross-checked.
  struct Latency {
    const char *Key;
    double Row::*Field;
    double P50 = 0, P90 = 0, P99 = 0;
  };
  Latency Latencies[] = {{"in_process", &Row::InProcess},
                         {"no_memo", &Row::NoMemo},
                         {"discrete", &Row::Discrete}};
  for (Latency &L : Latencies) {
    std::vector<double> Samples;
    for (const Row &R : Rows)
      Samples.push_back(R.*L.Field);
    L.P50 = nearestRank(Samples, 50);
    L.P90 = nearestRank(Samples, 90);
    L.P99 = nearestRank(Samples, 99);
  }
  std::printf("latency/file:   ");
  for (const Latency &L : Latencies)
    std::printf("%s %s p50 %.3fs p90 %.3fs p99 %.3fs",
                &L == Latencies ? "" : " |", L.Key, L.P50, L.P90, L.P99);
  std::printf("\n");

  // Listing 20 output format from the artifact appendix.
  std::printf("\n--- res.txt (Listing 20 format) ---\n");
  std::printf("Total: %zu\n", Rows.size());
  std::printf("Alive-mutate lst:[");
  for (size_t I = 0; I != Rows.size(); ++I)
    std::printf("%s(%g, '%s')", I ? ", " : "", Rows[I].InProcess,
                Rows[I].Name.c_str());
  std::printf("]\n");
  std::printf("Discrete tools lst:[");
  for (size_t I = 0; I != Rows.size(); ++I)
    std::printf("%s(%g, '%s')", I ? ", " : "", Rows[I].Discrete,
                Rows[I].Name.c_str());
  std::printf("]\n");
  std::printf("perf lst:[");
  for (size_t I = 0; I != Rows.size(); ++I)
    std::printf("%s(%g, '%s')", I ? ", " : "",
                Rows[I].Discrete / Rows[I].InProcess, Rows[I].Name.c_str());
  std::printf("]\n");
  std::printf("Avg perf:%g\n", Avg);
  std::printf("Total not-verified:%u\n", NotVerified);
  std::printf("Not-verified files:[]\n");
  std::printf("Total invalid file:%u\n", Invalid);
  std::printf("Invalid files:[]\n");

  // Machine-readable report for CI trend tracking (schema mirrored by
  // BENCH_baseline.json; scripts/check_bench_json.py validates it).
  if (const char *JsonPath = std::getenv("AMR_THROUGHPUT_JSON")) {
    std::ofstream J(JsonPath);
    if (!J) {
      std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath);
      return 1;
    }
    char Buf[256];
    J << "{\n"
      << "  \"experiment\": \"throughput\",\n"
      << "  \"config\": {\"files\": " << NumFiles << ", \"count\": " << Count
      << ", \"jobs\": " << Jobs << ", \"shared_cache\": "
      << (Shared ? "true" : "false") << "},\n"
      << "  \"rows\": [\n";
    for (size_t I = 0; I != Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"name\": \"%s\", \"in_process_s\": %.6f, "
                    "\"no_memo_s\": %.6f, \"discrete_s\": %.6f, "
                    "\"speedup_vs_discrete\": %.4f, "
                    "\"speedup_vs_no_memo\": %.4f, ",
                    R.Name.c_str(), R.InProcess, R.NoMemo, R.Discrete,
                    R.Discrete / R.InProcess, R.NoMemo / R.InProcess);
      J << Buf << "\"top_query\": ";
      if (R.HasTop) {
        const QueryCost &Q = R.Top;
        J << "{\"function\": \"" << Q.Function << "\", \"verdict\": \""
          << Q.Verdict << "\", \"cost\": " << Q.costUnits()
          << ", \"decisions\": " << Q.Decisions
          << ", \"propagations\": " << Q.Propagations
          << ", \"conflicts\": " << Q.Conflicts << ", \"count\": " << Q.Count
          << ", \"symbolic\": " << (Q.Symbolic ? "true" : "false") << "}";
      } else {
        J << "null";
      }
      J << "}" << (I + 1 != Rows.size() ? "," : "") << "\n";
    }
    std::snprintf(Buf, sizeof(Buf),
                  "  \"avg_speedup_vs_discrete\": %.4f,\n"
                  "  \"avg_speedup_vs_no_memo\": %.4f,\n",
                  Avg, MemoAvg);
    J << "  ],\n" << Buf;
    J << "  \"latency\": {\n";
    for (const Latency &L : Latencies) {
      std::snprintf(Buf, sizeof(Buf),
                    "    \"%s\": {\"count\": %zu, \"p50_s\": %.6f, "
                    "\"p90_s\": %.6f, \"p99_s\": %.6f}%s\n",
                    L.Key, Rows.size(), L.P50, L.P90, L.P99,
                    &L == std::end(Latencies) - 1 ? "" : ",");
      J << Buf;
    }
    J << "  },\n";
    // Cost attribution headline: the slowest in-process file (the p99
    // tail's dominator) and the query its verify time went to.
    {
      const Row *Slowest = nullptr;
      for (const Row &R : Rows)
        if (!Slowest || R.InProcess > Slowest->InProcess)
          Slowest = &R;
      J << "  \"profile\": {\"enabled\": true, \"p99_file\": ";
      if (Slowest) {
        J << "\"" << Slowest->Name << "\", \"dominant_query\": ";
        if (Slowest->HasTop) {
          const QueryCost &Q = Slowest->Top;
          J << "{\"function\": \"" << Q.Function << "\", \"verdict\": \""
            << Q.Verdict << "\", \"cost\": " << Q.costUnits()
            << ", \"decisions\": " << Q.Decisions
            << ", \"propagations\": " << Q.Propagations
            << ", \"conflicts\": " << Q.Conflicts
            << ", \"count\": " << Q.Count << "}";
        } else {
          J << "null";
        }
      } else {
        J << "null, \"dominant_query\": null";
      }
      J << "},\n";
    }
    std::snprintf(Buf, sizeof(Buf), "%.4f",
                  Lookups ? (double)Agg.TVCacheHits / Lookups : 0.0);
    J << "  \"totals\": {\"verified\": " << Agg.Verified
      << ", \"verify_skipped\": " << Agg.VerifySkipped
      << ", \"cache_hits\": " << Agg.TVCacheHits
      << ", \"cache_misses\": " << Agg.TVCacheMisses
      << ", \"cache_evictions\": " << Agg.TVCacheEvictions
      << ", \"cache_hit_rate\": " << Buf << ", \"shared_cache\": "
      << (Shared ? "true" : "false") << ", \"not_verified\": "
      << NotVerified << ", \"invalid\": " << Invalid << "}\n"
      << "}\n";
    std::printf("\nJSON report written to %s\n", JsonPath);
  }
  return 0;
}
