//===- perfbench/replay.h - Traced per-layer replay of a workload -*- C++ -*-===//
///
/// \file
/// The benchmark's traced run. It replays every iteration of a workload's
/// campaigns outside-in, through the public calls of each layer (mutate,
/// verifyModule, cloneModule, PassManager, TVCache, FunctionEncoder +
/// BitBlaster, SatSolver, Interpreter), and records one span per call.
/// Spans live in memory and are written out after the replay; per-layer
/// self time is a span's duration minus the part its children cover.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "core/FuzzerLoop.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One campaign of a workload: its input and its configuration.
struct Job {
  std::string Name;
  /// Module text (corpus, table1) or, when Paths is set, the files that
  /// loadCorpus merges (campaign).
  std::string IR;
  std::vector<std::string> Paths;
  alive::FuzzOptions Opts;
  unsigned Jobs = 1;
  /// table1: the one seeded defect this campaign carries.
  const alive::BugInfo *Bug = nullptr;
};

/// One recorded span. Parent is an index into the span list (-1 = root);
/// Id is the mutant seed the span belongs to (the shared request id).
struct Span {
  const char *Name;
  uint64_t StartNs, EndNs;
  int32_t Parent;
  uint64_t Id;
};

/// In-memory span recorder for a single-threaded replay.
class Tracer {
public:
  int32_t begin(const char *Name, uint64_t Id);
  void end(int32_t Index);
  const std::vector<Span> &spans() const { return Spans; }
  /// Self seconds per span name: duration minus the children's durations.
  std::map<std::string, double> selfSeconds() const;
  /// Writes the spans as CSV (name,start_ns,end_ns,parent,id).
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int32_t Current = -1;
};

/// What one traced replay observed, layer by layer.
struct ReplayStats {
  double WallSeconds = 0;
  uint64_t Mutants = 0, Mutations = 0, InvalidMutants = 0, Crashes = 0;
  uint64_t FunctionVisits = 0, Skipped = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, CacheEvictions = 0;
  uint64_t Queries = 0, SymbolicQueries = 0, InterpQueries = 0;
  uint64_t ConcreteChecks = 0; ///< concrete-only checks + budget fallbacks
  uint64_t SatVars = 0, Conflicts = 0, Decisions = 0, Propagations = 0;
  uint64_t LearnedClauses = 0, LearnedLiterals = 0, BudgetStops = 0;
  /// Replayed solve results that disagreed with the verdict they produced.
  uint64_t SolveVerdictMismatches = 0;
  std::map<std::string, uint64_t> VerdictSlugs;
  /// (mutant seed, function) of every incorrect verdict, in replay order.
  std::vector<std::pair<uint64_t, std::string>> Miscompiles;
  /// (mutant seed, issue id) of every simulated optimizer crash.
  std::vector<std::pair<uint64_t, std::string>> CrashIds;
  /// Raw per-query tv.check durations, in microseconds.
  std::vector<double> CheckMicros;
  std::map<std::string, double> SelfSeconds;
};

/// Replays every iteration of \p Jobs (1-worker, blind-schedule
/// campaigns) under \p T. Returns false with \p Error on a setup failure.
bool replayJobs(const std::vector<Job> &Jobs, Tracer &T, ReplayStats &Out,
                std::string &Error);

/// The benchmark's own re-execution of a counterexample: runs \p Args
/// through the interpreter on \p Src and \p Tgt and reports whether the
/// target fails to refine the source on that input (target UB where the
/// source is defined, a non-poison return value changed, or defined bytes
/// of a pointer argument's buffer changed). Pointer buffers are rebuilt
/// the way a concrete trial seeds them; the trial seed is searched.
bool confirmViolation(const alive::Function &Src, const alive::Function &Tgt,
                      const std::vector<alive::ConcVal> &Args,
                      const alive::TVOptions &TV);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
