//===- core/MetricsExporter.cpp - Live metrics/health HTTP plane ----------===//
//
// Part of the alive-mutate reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/MetricsExporter.h"

#include "core/CampaignEngine.h"
#include "support/FaultPlane.h"

#include <algorithm>
#include <limits>
#include <sstream>

using namespace alive;

std::string alive::prometheusName(const std::string &Slug) {
  std::string Out;
  Out.reserve(Slug.size());
  for (char C : Slug) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out.push_back(Ok ? C : '_');
  }
  if (Out.empty() || (Out[0] >= '0' && Out[0] <= '9'))
    Out.insert(Out.begin(), '_');
  return Out;
}

std::string alive::formatSSE(uint64_t Id, const CampaignEvent &E) {
  std::ostringstream OS;
  OS << "id: " << Id << "\n";
  OS << "event: " << campaignEventName(E.K) << "\n";
  OS << "data: {\"kind\": ";
  writeJSONString(OS, campaignEventName(E.K));
  OS << ", \"seed\": " << E.Seed << ", \"shard\": " << E.Shard
     << ", \"nanos\": " << E.Nanos << ", \"detail\": ";
  writeJSONString(OS, E.Detail);
  OS << "}\n\n";
  return OS.str();
}

namespace {

/// Prometheus sample values: plain shortest-round-trip decimal (the
/// exposition format takes Go-style floats; inf/nan never occur here
/// because Histogram::min() folds its +inf sentinel to 0).
std::string num(double D) {
  std::ostringstream OS;
  OS.precision(std::numeric_limits<double>::max_digits10);
  OS << D;
  return OS.str();
}

/// The /dashboard page: one self-contained HTML document, no external
/// scripts/styles/fonts (works on an air-gapped CI box). It polls
/// /status and /profile.json, and follows the /events SSE stream.
const char *dashboardHTML() {
  return R"HTML(<!doctype html>
<html lang="en"><head><meta charset="utf-8">
<title>alive-mutate dashboard</title>
<style>
 body{font:13px/1.4 ui-monospace,Menlo,Consolas,monospace;margin:1.2em;
      background:#111;color:#ddd}
 h1{font-size:16px} h2{font-size:13px;margin:1.2em 0 .3em;color:#9cf}
 table{border-collapse:collapse} td,th{padding:.15em .7em;text-align:right;
      border-bottom:1px solid #333} th{color:#888} td:first-child,
 th:first-child{text-align:left}
 .bar{background:#247;height:10px;display:inline-block}
 #events div{color:#8a8} .err{color:#f88}
 small{color:#777}
</style></head><body>
<h1>alive-mutate <small id="meta"></small></h1>
<div id="summary">loading&hellip;</div>
<h2>shards</h2><table id="shards"></table>
<h2>top queries <small>(deterministic cost attribution)</small></h2>
<table id="queries"></table>
<h2>hot stacks <small>(wall-clock samples)</small></h2>
<table id="stacks"></table>
<h2>events</h2><div id="events"></div>
<script>
"use strict";
const $=id=>document.getElementById(id);
function row(cells,tag){return "<tr>"+cells.map(c=>"<"+(tag||"td")+">"+c+
  "</"+(tag||"td")+">").join("")+"</tr>";}
async function refresh(){
 try{
  const s=await (await fetch("/status")).json();
  const cfg=s.config||{};
  $("meta").textContent=(cfg.tool||"")+" "+(cfg.passes||"")+
    " seed="+(cfg.base_seed??"?")+" j"+(s.workers||0);
  $("summary").innerHTML=(s.running?"RUNNING":"idle")+
    " &mdash; "+s.done+(s.target?"/"+s.target:"")+" mutants, "+
    (s.elapsed||0).toFixed(1)+"s"+
    (s.elapsed>0?", "+(s.done/s.elapsed).toFixed(0)+"/s":"");
  $("shards").innerHTML=row(["shard","done","range","mutate","optimize",
    "verify","overhead"],"th")+ (s.shards||[]).map(sh=>{
    const n=sh.stage_nanos||{},t=(n.mutate||0)+(n.optimize||0)+
      (n.verify||0)+(n.overhead||0)||1;
    const pct=v=>((100*v/t)|0)+"%";
    return row([sh.index,sh.done,sh.lo+"&ndash;"+sh.hi,pct(n.mutate||0),
      pct(n.optimize||0),pct(n.verify||0),pct(n.overhead||0)]);}).join("");
  const p=await (await fetch("/profile.json")).json();
  if(p.enabled){
   const qs=p.queries||[];
   $("queries").innerHTML=row(["#","function","verdict","cost","dec",
     "prop","confl","seen","first seed"],"th")+qs.slice(0,12).map(q=>
     row([q.rank,q["function"],q.verdict,q.cost,q.decisions,
       q.propagations,q.conflicts,q.count,q.first_seed])).join("");
   const fg=await (await fetch("/flamegraph.json")).json();
   const st=(fg.stacks||[]).slice().sort((a,b)=>b.count-a.count);
   const tot=fg.samples||1;
   $("stacks").innerHTML=row(["stack","samples",""],"th")+
     st.slice(0,15).map(x=>row([x.stack,x.count,
       '<span class="bar" style="width:'+
       Math.max(1,120*x.count/tot)+'px"></span>'])).join("");
  } else {
   $("queries").innerHTML=row(["profiling off &mdash; rerun with -profile"]);
   $("stacks").innerHTML="";
  }
 }catch(e){$("summary").innerHTML='<span class="err">'+e+"</span>";}
}
refresh(); setInterval(refresh,2000);
try{
 const es=new EventSource("/events");
 es.onmessage=es.onerror=null;
 ["campaign-start","campaign-end","bug-found","epoch-barrier","checkpoint",
  "shard-restart","shutdown"].forEach(k=>es.addEventListener(k,ev=>{
   const d=document.createElement("div");
   d.textContent=new Date().toLocaleTimeString()+" "+k+" "+(ev.data||"");
   const log=$("events"); log.prepend(d);
   while(log.childElementCount>50) log.lastChild.remove();
 }));
}catch(e){}
</script></body></html>
)HTML";
}

} // namespace

MetricsServer::MetricsServer(const MetricsOptions &Opts)
    : Opts(Opts), Series(SeriesCapacity) {
  Server.setHandler([this](const HttpRequest &R) { return handle(R); });
  Server.setTick([this] { tick(); });
}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::setEngine(CampaignEngine *E) {
  std::lock_guard<std::mutex> Lock(M);
  Engine = E;
}

void MetricsServer::setConfigEcho(const RunReportConfig &C) {
  std::lock_guard<std::mutex> Lock(M);
  Config = C;
  HasConfig = true;
}

bool MetricsServer::start(std::string &Error) {
  return Server.start(Opts.Port, Error);
}

void MetricsServer::stop() { Server.stop(); }

size_t MetricsServer::seriesSize() const {
  std::lock_guard<std::mutex> Lock(SeriesM);
  return SeriesCount;
}

CampaignLiveSnapshot MetricsServer::snapshotNow() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Engine)
    return CampaignLiveSnapshot();
  return Engine->liveSnapshot();
}

CampaignProfile MetricsServer::profileNow() {
  std::lock_guard<std::mutex> Lock(M);
  if (!Engine)
    return CampaignProfile(); // Enabled=false
  return Engine->profileSnapshot();
}

void MetricsServer::tick() {
  // Drain the bounded queue and fan the events out to every SSE client.
  // Drained order is arrival order, so the ids are monotonic per client.
  std::vector<CampaignEvent> Evs;
  if (Queue.drain(Evs))
    for (const CampaignEvent &E : Evs)
      Server.broadcast(formatSSE(NextEventId++, E));

  bool Bound;
  {
    std::lock_guard<std::mutex> Lock(M);
    Bound = Engine != nullptr;
  }
  if (!Bound)
    return;
  CampaignLiveSnapshot S = snapshotNow();
  double Now = Clock.seconds();

  // Track per-shard progress timestamps for /healthz staleness.
  if (!S.Running) {
    Seen.clear();
  } else {
    if (Seen.size() < S.Shards.size())
      Seen.resize(S.Shards.size());
    for (const ShardLiveState &Sh : S.Shards) {
      if (Sh.Index >= Seen.size())
        continue;
      ShardSeen &SS = Seen[Sh.Index];
      if (!SS.Init || SS.Done != Sh.Done)
        SS = {Sh.Done, Now, true};
    }
  }

  // Periodic /series sample.
  if (Now - LastSample >= Opts.SnapshotInterval) {
    LastSample = Now;
    MetricsSample P;
    P.T = Now;
    P.Done = S.Done;
    S.Stats.forEachCounterAll(
        [&](const std::string &Name, uint64_t V, Volatility) {
          P.Counters.emplace_back(Name, V);
        });
    size_t Cap = Series.size();
    std::lock_guard<std::mutex> Lock(SeriesM);
    if (SeriesCount == Cap) {
      Series[SeriesHead] = std::move(P);
      SeriesHead = (SeriesHead + 1) % Cap;
    } else {
      Series[(SeriesHead + SeriesCount) % Cap] = std::move(P);
      ++SeriesCount;
    }
  }
}

HttpResponse MetricsServer::handle(const HttpRequest &Req) {
  HttpResponse Resp;
  if (Req.Path == "/metrics") {
    Resp.ContentType = "text/plain; version=0.0.4; charset=utf-8";
    Resp.Body = renderMetrics(snapshotNow());
    return Resp;
  }
  if (Req.Path == "/status") {
    Resp.ContentType = "application/json";
    Resp.Body = renderStatus(snapshotNow());
    return Resp;
  }
  if (Req.Path == "/healthz") {
    Resp.ContentType = "application/json";
    bool Healthy = renderHealth(snapshotNow(), Resp.Body);
    Resp.Status = Healthy ? 200 : 503;
    return Resp;
  }
  if (Req.Path == "/readyz") {
    Resp.ContentType = "application/json";
    bool Ready;
    {
      std::lock_guard<std::mutex> Lock(M);
      Ready = Engine != nullptr;
    }
    Resp.Status = Ready ? 200 : 503;
    Resp.Body = Ready ? "{\"ready\": true}\n" : "{\"ready\": false}\n";
    return Resp;
  }
  if (Req.Path == "/events") {
    Resp.Stream = true;
    // The retry hint plus a comment line: clients see bytes immediately,
    // which flushes proxies and lets curl print something before the
    // first real event.
    Resp.Body = "retry: 1000\n: alive-mutate event stream\n\n";
    return Resp;
  }
  if (Req.Path == "/series") {
    Resp.ContentType = "application/json";
    Resp.Body = renderSeries();
    return Resp;
  }
  if (Req.Path == "/profile.json") {
    Resp.ContentType = "application/json";
    Resp.Body = renderProfile();
    return Resp;
  }
  if (Req.Path == "/flamegraph.json") {
    Resp.ContentType = "application/json";
    Resp.Body = renderFlamegraph();
    return Resp;
  }
  if (Req.Path == "/dashboard") {
    Resp.ContentType = "text/html; charset=utf-8";
    Resp.Body = dashboardHTML();
    return Resp;
  }
  if (Req.Path == "/") {
    Resp.Body = "alive-mutate metrics server\n"
                "endpoints: /metrics /status /healthz /readyz /events "
                "/series /profile.json /flamegraph.json /dashboard\n";
    return Resp;
  }
  Resp.Status = 404;
  Resp.Body = "not found\n";
  return Resp;
}

std::string MetricsServer::renderMetrics(const CampaignLiveSnapshot &S) {
  std::ostringstream OS;
  auto Gauge = [&](const std::string &Name, const std::string &Value) {
    OS << "# TYPE " << Name << " gauge\n" << Name << " " << Value << "\n";
  };
  Gauge("alive_up", "1");
  Gauge("alive_campaign_running", S.Running ? "1" : "0");
  Gauge("alive_campaign_elapsed_seconds", num(S.Elapsed));
  Gauge("alive_workers", std::to_string(S.Workers));
  OS << "# TYPE alive_iterations_done counter\nalive_iterations_done "
     << S.Done << "\n";
  Gauge("alive_iterations_target", std::to_string(S.Target));
  OS << "# TYPE alive_events_accepted counter\nalive_events_accepted "
     << Queue.accepted() << "\n";
  OS << "# TYPE alive_events_dropped counter\nalive_events_dropped "
     << Queue.dropped() << "\n";
  Gauge("alive_sse_clients", std::to_string(Server.streamClients()));
  if (S.FeedbackEnabled) {
    OS << "# TYPE alive_feedback_epochs counter\nalive_feedback_epochs "
       << S.FeedbackEpochs << "\n";
    Gauge("alive_feedback_bits_covered", std::to_string(S.FeedbackBits));
    if (!S.FamilyWeights.empty()) {
      OS << "# TYPE alive_feedback_family_weight gauge\n";
      for (const auto &[Name, W] : S.FamilyWeights)
        OS << "alive_feedback_family_weight{family=\""
           << prometheusName(Name) << "\"} " << W << "\n";
    }
  }
  if (!S.Shards.empty()) {
    OS << "# TYPE alive_shard_iterations_done counter\n";
    for (const ShardLiveState &Sh : S.Shards)
      OS << "alive_shard_iterations_done{shard=\"" << Sh.Index << "\"} "
         << Sh.Done << "\n";
    OS << "# TYPE alive_shard_trace_dropped_events counter\n";
    for (const ShardLiveState &Sh : S.Shards)
      OS << "alive_shard_trace_dropped_events{shard=\"" << Sh.Index
         << "\"} " << Sh.TraceDropped << "\n";
  }

  // Registry counters and gauges: the name is a pure function of the stat
  // slug, so dashboards survive restarts and worker-count changes.
  S.Stats.forEachCounterAll(
      [&](const std::string &Name, uint64_t V, Volatility) {
        std::string N = "alive_" + prometheusName(Name);
        OS << "# TYPE " << N << " counter\n" << N << " " << V << "\n";
      });
  S.Stats.forEachGauge([&](const std::string &Name, double V, Volatility) {
    std::string N = "alive_" + prometheusName(Name);
    OS << "# TYPE " << N << " gauge\n" << N << " " << num(V) << "\n";
  });
  // Histograms as Prometheus summaries: quantiles from the log2 buckets
  // (upper-bound estimates, see Histogram::percentile) plus sum/count.
  S.Stats.forEachHistogram([&](const std::string &Name, const Histogram &H) {
    std::string N = "alive_" + prometheusName(Name);
    OS << "# TYPE " << N << " summary\n";
    OS << N << "{quantile=\"0.5\"} " << num(H.percentile(0.50)) << "\n";
    OS << N << "{quantile=\"0.9\"} " << num(H.percentile(0.90)) << "\n";
    OS << N << "{quantile=\"0.99\"} " << num(H.percentile(0.99)) << "\n";
    OS << N << "_sum " << num(H.sum()) << "\n";
    OS << N << "_count " << H.count() << "\n";
    OS << "# TYPE " << N << "_min gauge\n"
       << N << "_min " << num(H.min()) << "\n";
    OS << "# TYPE " << N << "_max gauge\n"
       << N << "_max " << num(H.max()) << "\n";
    // Native histogram exposition alongside the summary. One family
    // cannot be both types, so the cumulative buckets live under
    // "<name>_hist". Totals are derived from the bucket reads themselves
    // (not H.count()) so the family stays internally monotone even when
    // a record() lands between the two loads.
    uint64_t BC[Histogram::NumBuckets];
    uint64_t Total = 0;
    for (unsigned I = 0; I != Histogram::NumBuckets; ++I)
      Total += BC[I] = H.bucketCount(I);
    OS << "# TYPE " << N << "_hist histogram\n";
    uint64_t Cum = 0;
    for (unsigned I = 0; I != Histogram::NumBuckets && Cum != Total; ++I) {
      Cum += BC[I];
      OS << N << "_hist_bucket{le=\"" << num(Histogram::bucketUpperBound(I))
         << "\"} " << Cum << "\n";
    }
    OS << N << "_hist_bucket{le=\"+Inf\"} " << Total << "\n";
    OS << N << "_hist_sum " << num(H.sum()) << "\n";
    OS << N << "_hist_count " << Total << "\n";
  });
  return OS.str();
}

std::string MetricsServer::renderStatus(const CampaignLiveSnapshot &S) {
  std::ostringstream OS;
  OS << "{\n";
  {
    std::lock_guard<std::mutex> Lock(M);
    if (HasConfig) {
      OS << "  \"config\": {\"tool\": ";
      writeJSONString(OS, Config.Tool);
      OS << ", \"passes\": ";
      writeJSONString(OS, Config.Passes);
      OS << ", \"iterations\": " << Config.Iterations
         << ", \"base_seed\": " << Config.BaseSeed
         << ", \"jobs\": " << Config.Jobs << ", \"feedback\": "
         << (Config.FeedbackOn ? "true" : "false") << "},\n";
    } else {
      OS << "  \"config\": null,\n";
    }
  }
  OS << "  \"running\": " << (S.Running ? "true" : "false") << ",\n";
  OS << "  \"elapsed\": ";
  writeJSONDouble(OS, S.Elapsed);
  OS << ",\n";
  OS << "  \"done\": " << S.Done << ",\n";
  OS << "  \"target\": " << S.Target << ",\n";
  OS << "  \"workers\": " << S.Workers << ",\n";
  OS << "  \"isolated\": " << (S.Isolated ? "true" : "false") << ",\n";
  OS << "  \"degraded\": " << (S.Degraded ? "true" : "false") << ",\n";
  {
    // Chaos accounting: per-point call/trigger counters of the armed
    // fault-injection table (empty when nothing is armed).
    std::vector<FaultPointCounters> FC = FaultPlane::instance().counters();
    OS << "  \"fault_injection\": {\"armed\": "
       << (FC.empty() ? "false" : "true") << ", \"points\": [";
    for (size_t I = 0; I != FC.size(); ++I) {
      OS << (I ? ", " : "") << "{\"point\": ";
      writeJSONString(OS, FC[I].Point);
      OS << ", \"spec\": ";
      writeJSONString(OS, FC[I].Spec);
      OS << ", \"calls\": " << FC[I].Calls
         << ", \"triggers\": " << FC[I].Triggers << "}";
    }
    OS << "]},\n";
  }
  OS << "  \"shards\": [";
  for (size_t I = 0; I != S.Shards.size(); ++I) {
    const ShardLiveState &Sh = S.Shards[I];
    OS << (I ? ", " : "") << "{\"index\": " << Sh.Index
       << ", \"lo\": " << Sh.Lo << ", \"hi\": " << Sh.Hi
       << ", \"done\": " << Sh.Done << ", \"stage_nanos\": {\"mutate\": "
       << Sh.StageNanos[0] << ", \"optimize\": " << Sh.StageNanos[1]
       << ", \"verify\": " << Sh.StageNanos[2] << ", \"overhead\": "
       << Sh.StageNanos[3] << "}, \"trace_dropped_events\": "
       << Sh.TraceDropped << ", \"live_registry\": "
       << (Sh.HasRegistry ? "true" : "false") << "}";
  }
  OS << "],\n";
  OS << "  \"feedback\": {\"enabled\": "
     << (S.FeedbackEnabled ? "true" : "false")
     << ", \"epochs\": " << S.FeedbackEpochs
     << ", \"bits_covered\": " << S.FeedbackBits << ", \"weights\": {";
  for (size_t I = 0; I != S.FamilyWeights.size(); ++I) {
    OS << (I ? ", " : "");
    writeJSONString(OS, S.FamilyWeights[I].first);
    OS << ": " << S.FamilyWeights[I].second;
  }
  OS << "}},\n";
  OS << "  \"events\": {\"accepted\": " << Queue.accepted()
     << ", \"dropped\": " << Queue.dropped()
     << ", \"capacity\": " << Queue.capacity()
     << ", \"stream_clients\": " << Server.streamClients() << "},\n";
  OS << "  \"series\": {\"interval\": ";
  writeJSONDouble(OS, Opts.SnapshotInterval);
  OS << ", \"capacity\": " << Series.size() << ", \"size\": " << seriesSize()
     << "},\n";
  // The registry dump carries the rest of the campaign state surface —
  // survive.checkpoint.*, quarantine, feedback.* — in both classes.
  OS << "  \"stats\": {\n    \"deterministic\": ";
  S.Stats.writeJSON(OS, Volatility::Deterministic, "    ");
  OS << ",\n    \"volatile\": ";
  S.Stats.writeJSON(OS, Volatility::Volatile, "    ");
  OS << "\n  }\n";
  OS << "}\n";
  return OS.str();
}

std::string MetricsServer::renderProfile() {
  CampaignProfile P = profileNow();
  std::ostringstream OS;
  OS << "{\"enabled\": " << (P.Enabled ? "true" : "false");
  if (P.Enabled) {
    OS << ",\n \"topk\": " << P.TopK << ",\n \"queries\": ";
    writeTopQueriesJSON(OS, P.TopQueries, " ");
    OS << ",\n \"volatile\": ";
    writeProfileVolatileJSON(OS, P, " ");
  }
  OS << "}\n";
  return OS.str();
}

std::string MetricsServer::renderFlamegraph() {
  std::ostringstream OS;
  writeFlamegraphJSON(OS, profileNow());
  return OS.str();
}

std::string MetricsServer::renderSeries() {
  std::ostringstream OS;
  OS << "{\"interval\": ";
  writeJSONDouble(OS, Opts.SnapshotInterval);
  OS << ", \"capacity\": " << Series.size() << ", \"points\": [";
  size_t Cap = Series.size();
  for (size_t I = 0; I != SeriesCount; ++I) {
    const MetricsSample &P = Series[(SeriesHead + I) % Cap];
    OS << (I ? ", " : "") << "{\"t\": ";
    writeJSONDouble(OS, P.T);
    OS << ", \"done\": " << P.Done << ", \"counters\": {";
    for (size_t C = 0; C != P.Counters.size(); ++C) {
      OS << (C ? ", " : "");
      writeJSONString(OS, P.Counters[C].first);
      OS << ": " << P.Counters[C].second;
    }
    OS << "}}";
  }
  OS << "]}\n";
  return OS.str();
}

bool MetricsServer::renderHealth(const CampaignLiveSnapshot &S,
                                 std::string &Body) {
  double Now = Clock.seconds();
  std::vector<unsigned> Stale;
  if (S.Running && Opts.HealthStaleSeconds > 0) {
    for (const ShardLiveState &Sh : S.Shards) {
      if (Sh.Index >= Seen.size() || !Seen[Sh.Index].Init)
        continue;
      // A shard that finished its slice legitimately stops advancing.
      if (Sh.Hi > Sh.Lo && Sh.Done >= Sh.Hi - Sh.Lo)
        continue;
      if (Now - Seen[Sh.Index].Since > Opts.HealthStaleSeconds)
        Stale.push_back(Sh.Index);
    }
  }
  // A degraded campaign (permanently lost shard lease) is unhealthy even
  // when every surviving shard is making progress: the gap is permanent.
  bool Healthy = Stale.empty() && !S.Degraded;
  std::ostringstream OS;
  OS << "{\"healthy\": " << (Healthy ? "true" : "false")
     << ", \"degraded\": " << (S.Degraded ? "true" : "false")
     << ", \"stale_seconds\": ";
  writeJSONDouble(OS, Opts.HealthStaleSeconds);
  OS << ", \"stale_shards\": [";
  for (size_t I = 0; I != Stale.size(); ++I)
    OS << (I ? ", " : "") << Stale[I];
  OS << "]}\n";
  Body = OS.str();
  return Healthy;
}
