//===- core/MetricsExporter.h - Live metrics/health HTTP plane -*- C++ -*-===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The embedded observability server behind -metrics-port: a MetricsServer
/// binds the campaign's live state to a handful of HTTP endpoints served
/// by net/HttpServer on a dedicated observer thread.
///
///   GET /metrics  Prometheus text exposition of the merged StatRegistry
///                 snapshot (counters, gauges, histogram summaries) plus
///                 campaign meta-gauges. Metric names derive
///                 deterministically from stat slugs ("bug.crash" ->
///                 alive_bug_crash).
///   GET /status   JSON: config echo, per-shard progress, feedback epoch
///                 and family-weight state, event-queue accounting, the
///                 full registry dump (deterministic + volatile classes).
///   GET /healthz  200 while every live shard makes progress; 503 when a
///                 shard's iteration counter has been stale longer than
///                 MetricsOptions::HealthStaleSeconds (watchdog-style
///                 staleness: completed shards are exempt).
///   GET /readyz   200 once a campaign engine is attached, 503 before.
///   GET /events   Server-Sent Events stream of campaign instants
///                 (bug-found, epoch-barrier, checkpoint, shard-restart,
///                 campaign start/end), fed by the bounded drop-on-full
///                 CampaignEventQueue so workers never block.
///   GET /series   JSON time series: periodic registry samples in a
///                 fixed-capacity ring (oldest evicted first).
///   GET /profile.json    Cost-attribution snapshot (-profile): the
///                 merged top-K most-expensive-query table plus the
///                 volatile sampling/cache-shard data; {"enabled": false}
///                 when profiling is off. Live mid-run, final after run().
///   GET /flamegraph.json Collapsed-stack flamegraph export of the
///                 sampling profiler ({"stacks": [{"stack", "count"}]}).
///   GET /dashboard       A dependency-free live HTML dashboard polling
///                 /status, /series and /profile.json and following the
///                 /events SSE stream. Everything inline; no CDN.
///
/// Observer-only invariant: everything here runs on the server thread and
/// reads the campaign exclusively through CampaignEngine::liveSnapshot()
/// and the event queue. No RandomGenerator, no deterministic-report state
/// is ever touched, so -j1 == -jN byte-identity and -resume byte-equality
/// hold with or without a server attached (tests enforce this).
///
//===----------------------------------------------------------------------===//

#ifndef CORE_METRICSEXPORTER_H
#define CORE_METRICSEXPORTER_H

#include "core/Observability.h"
#include "core/RunReport.h"
#include "net/HttpServer.h"
#include "support/Timer.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace alive {

class CampaignEngine;

struct MetricsOptions {
  /// TCP port to bind on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (resolved port via MetricsServer::port()).
  uint16_t Port = 0;
  /// Seconds between /series samples (-metrics-interval).
  double SnapshotInterval = 1.0;
  /// A live shard whose iteration counter has not advanced for this many
  /// seconds flips /healthz to 503 (-health-stale; <= 0 disables).
  double HealthStaleSeconds = 10.0;
};

/// One /series sample: a flattened counter snapshot at time T.
struct MetricsSample {
  double T = 0; ///< seconds since the server started
  uint64_t Done = 0;
  std::vector<std::pair<std::string, uint64_t>> Counters;
};

/// The metrics endpoint layer. Owns the HTTP server and the campaign
/// event queue; borrows the engine (setEngine may rebind mid-flight, e.g.
/// the bench harness pointing the same server at consecutive per-file
/// campaigns — detach with setEngine(nullptr) before the old engine
/// dies).
class MetricsServer {
public:
  explicit MetricsServer(const MetricsOptions &Opts = MetricsOptions());
  ~MetricsServer();
  MetricsServer(const MetricsServer &) = delete;
  MetricsServer &operator=(const MetricsServer &) = delete;

  /// The queue to hand to CampaignEngine::setEventQueue (and
  /// FuzzOptions::Events for standalone loops).
  CampaignEventQueue &events() { return Queue; }

  /// Attaches/detaches the observed engine. Thread-safe; the engine must
  /// outlive its binding.
  void setEngine(CampaignEngine *E);

  /// Static /status config echo (tool name, passes, seed range...).
  void setConfigEcho(const RunReportConfig &C);

  /// Binds and starts the server thread. \returns false + \p Error on
  /// bind failure.
  bool start(std::string &Error);
  /// Graceful shutdown (final SSE farewell, join). Idempotent.
  void stop();

  uint16_t port() const { return Server.port(); }
  bool running() const { return Server.running(); }

  /// Number of /series samples currently buffered (server-thread ring;
  /// approximate when read concurrently). Test hook.
  size_t seriesSize() const;

private:
  HttpResponse handle(const HttpRequest &Req);
  void tick();
  CampaignLiveSnapshot snapshotNow();
  CampaignProfile profileNow();

  std::string renderMetrics(const CampaignLiveSnapshot &S);
  std::string renderStatus(const CampaignLiveSnapshot &S);
  std::string renderSeries();
  std::string renderProfile();
  std::string renderFlamegraph();
  /// \returns true when healthy; fills \p Body with the JSON verdict.
  bool renderHealth(const CampaignLiveSnapshot &S, std::string &Body);

  /// Ring capacity of the /series buffer (oldest samples evicted).
  static constexpr size_t SeriesCapacity = 600;

  MetricsOptions Opts;
  HttpServer Server;
  /// Bounded at CampaignEventQueue's default capacity (drop-on-full).
  CampaignEventQueue Queue;
  Timer Clock;

  /// Guards the engine binding and config echo (rebindable from outside
  /// the server thread); everything else below is server-thread state.
  mutable std::mutex M;
  CampaignEngine *Engine = nullptr;
  RunReportConfig Config;
  bool HasConfig = false;

  // --- server-thread state ---
  std::vector<MetricsSample> Series; ///< ring: [Head, Head+Size) mod cap
  size_t SeriesHead = 0;
  mutable std::mutex SeriesM; ///< seriesSize() test hook only
  size_t SeriesCount = 0;
  double LastSample = -1e18;
  uint64_t NextEventId = 1; ///< SSE id, monotonically increasing

  /// Per-shard staleness tracking for /healthz: last observed Done value
  /// and when it last changed.
  struct ShardSeen {
    uint64_t Done = 0;
    double Since = 0;
    bool Init = false;
  };
  std::vector<ShardSeen> Seen;
};

/// Formats one campaign event as an SSE frame ("id: N\nevent: ...\n
/// data: {...}\n\n"). Exposed for tests.
std::string formatSSE(uint64_t Id, const CampaignEvent &E);

/// Sanitizes a stat slug into a Prometheus metric name component: every
/// character outside [a-zA-Z0-9_] becomes '_' (deterministic, so slugs
/// map to stable series names). Exposed for tests and check_metrics.py
/// parity.
std::string prometheusName(const std::string &Slug);

} // namespace alive

#endif // CORE_METRICSEXPORTER_H
