#!/usr/bin/env python3
"""Validate an alive-mutate -stats-json run report.

Usage: check_stats_json.py <report.json> [<other.json>]

Checks the schema (version, required sections) and the internal
invariants the telemetry subsystem guarantees:

  - per-family applied counts sum to the summary's mutations_applied;
  - per-verdict counts sum to the summary's verified;
  - cache hits + misses == verified (when the cache is enabled);
  - every histogram's count equals the sum of its bucket counts and its
    percentiles are ordered (p50 <= p90 <= p99);
  - the stage-time-sum invariant: mutate + optimize + verify + overhead
    matches the summed worker wall time within tolerance;
  - the v3 survivability block is present and sane (interrupted is a
    bool);
  - the v4 feedback block is present and — when config.feedback is true —
    config.epoch_length is positive, the epoch/coverage counters are
    non-negative ints,
    every rule row's iteration count is positive, bits_covered matches
    the feedback counters in stats, and every family weight lies in the
    schedule's [1, 16] clamp range;
  - the v5 trace block is present in the volatile section, its
    dropped_events total is a non-negative int, and it equals the sum of
    the per-track dropped_events;
  - the v7 degradation ladder: survivability carries a bool degraded
    flag, a non-negative fanout child count (when positive, volatile.jobs
    must equal it: the children are the workers), and a lost_shards list
    whose rows name a shard index and a non-negative lost-iteration count
    (a non-empty list forces degraded == true); the volatile fault_injection
    block carries a bool armed flag and, per armed point, call/trigger
    counters with triggers <= calls;
  - the v6 profile blocks are present in BOTH sections with a bool
    enabled flag; when enabled, every deterministic top-K query row is
    internally consistent (cost == decisions + propagations + conflicts,
    count positive, rank dense from 1) and the rows are sorted by the
    documented total order (cost desc, then key asc);
  - the v8 span folds: every volatile profile stack starts at a worker
    root "w<i>;" with a positive integer self_us, and the folded self
    time adds up to at most the summed worker wall time. The folds are
    exact; the tolerance covers each worker's one "preprocess" span,
    which runs at setup, outside the slices worker_total times;
  - the v9 stats blocks: deterministic.stats carries only "counters" and
    volatile.stats only "counters" and "histograms";
  - v10: no "cache_shards" key anywhere (the shared verdict cache is one
    LRU; its counters are the volatile "cache" block);
  - v11: the summary carries "timeouts", a non-negative int (the step
    budget is the only watchdog, so timeouts are deterministic), and the
    survivability block no longer does;
  - v12: every deterministic profile query row carries "vars" and
    "clauses", non-negative ints (the formula its solver received);
  - v13: the config is the campaign config record (the one bug bundles
    and checkpoint meta.json share) plus iterations, base_seed,
    corpus_files and corpus_skipped, each key present; injected_bugs is
    the list of enabled issue ids, or "per-defect" for bench_campaign,
    whose rows each run one defect.

With a second report, additionally asserts the two "deterministic"
subtrees are equal — the -j4 == -j1 guarantee (run the two reports with
different -j over the same corpus/seed range).

Exits non-zero with a message on the first violation.
"""

import json
import re
import sys

SCHEMA_VERSION = 13

# campaignConfig's keys (core/FuzzerLoop.h), then the report's own.
CONFIG_KEYS = (
    "passes", "max_mutations_per_function", "value_source", "enabled_kinds",
    "tv", "skip_unchanged", "step_budget", "injected_bugs", "feedback",
    "epoch_length", "canonical_pairs",
    "iterations", "base_seed", "corpus_files", "corpus_skipped",
)


def fail(msg):
    print("check_stats_json: FAIL: " + msg)
    sys.exit(1)


def keys_named(node, name):
    """Counts the object keys called name anywhere under node."""
    if isinstance(node, dict):
        return (name in node) + sum(keys_named(v, name) for v in node.values())
    if isinstance(node, list):
        return sum(keys_named(v, name) for v in node)
    return 0


def check_report(path):
    with open(path) as f:
        r = json.load(f)

    if r.get("schema_version") != SCHEMA_VERSION:
        fail("%s: schema_version %r != %d" % (path, r.get("schema_version"), SCHEMA_VERSION))
    for key in ("tool", "deterministic", "volatile"):
        if key not in r:
            fail("%s: missing top-level %r" % (path, key))
    if keys_named(r, "cache_shards"):
        fail("%s: retired 'cache_shards' key present" % path)

    det = r["deterministic"]
    vol = r["volatile"]
    for key in ("config", "summary", "per_pass", "per_family", "tv_verdicts", "feedback", "profile", "stats", "bugs"):
        if key not in det:
            fail("%s: missing deterministic.%r" % (path, key))
    for key in ("jobs", "stage_seconds", "cache", "survivability", "trace", "profile", "stats"):
        if key not in vol:
            fail("%s: missing volatile.%r" % (path, key))

    for name, allowed in (("deterministic", {"counters"}),
                          ("volatile", {"counters", "histograms"})):
        keys = set(r[name]["stats"])
        if "counters" not in keys or keys - allowed:
            fail("%s: %s.stats keys %s, expected %s"
                 % (path, name, sorted(keys), sorted(allowed)))

    cfg = det["config"]
    missing = [key for key in CONFIG_KEYS if key not in cfg]
    if missing:
        fail("%s: config lacks %s" % (path, ", ".join(missing)))
    for key in ("iterations", "base_seed", "corpus_files", "corpus_skipped",
                "step_budget", "epoch_length"):
        if not isinstance(cfg[key], int) or cfg[key] < 0:
            fail("%s: config.%s not a non-negative int" % (path, key))
    for key in ("skip_unchanged", "feedback", "canonical_pairs"):
        if not isinstance(cfg[key], bool):
            fail("%s: config.%s not a bool" % (path, key))
    bugs_cfg = cfg["injected_bugs"]
    if bugs_cfg != "per-defect" and not (
        isinstance(bugs_cfg, list) and all(isinstance(b, str) for b in bugs_cfg)
    ):
        fail("%s: config.injected_bugs neither a list of ids nor 'per-defect'" % path)

    fb = det["feedback"]
    if cfg["feedback"] != bool(fb):
        fail("%s: feedback block %s but config.feedback is %s"
             % (path, "filled" if fb else "empty", cfg["feedback"]))
    if cfg["feedback"]:
        if cfg["epoch_length"] == 0:
            fail("%s: config.epoch_length must be positive with feedback on" % path)
        for key in ("epochs", "bits_covered", "functions_tracked", "energy_skips"):
            if not isinstance(fb.get(key), int) or fb[key] < 0:
                fail("%s: feedback.%s missing or not a non-negative int" % (path, key))
        for row in fb.get("rules", []):
            if not isinstance(row.get("rule"), str) or row.get("iterations", 0) <= 0:
                fail("%s: malformed feedback rule row %r" % (path, row))
        counters = det["stats"].get("counters", {})
        if fb["bits_covered"] != counters.get("feedback.bits_covered", fb["bits_covered"]):
            fail("%s: feedback.bits_covered disagrees with stats counter" % path)
        for family, weight in fb.get("weights", {}).items():
            if not isinstance(weight, int) or not 1 <= weight <= 16:
                fail("%s: feedback weight for %s outside [1, 16]: %r" % (path, family, weight))

    trace = vol["trace"]
    if not isinstance(trace.get("dropped_events"), int) or trace["dropped_events"] < 0:
        fail("%s: trace.dropped_events missing or not a non-negative int" % path)
    track_sum = sum(t.get("dropped_events", 0) for t in trace.get("tracks", []))
    if track_sum != trace["dropped_events"]:
        fail(
            "%s: trace.dropped_events (%d) != per-track sum (%d)"
            % (path, trace["dropped_events"], track_sum)
        )

    prof = det["profile"]
    vprof = vol["profile"]
    for where, block in (("deterministic", prof), ("volatile", vprof)):
        if not isinstance(block.get("enabled"), bool):
            fail("%s: %s.profile.enabled missing or not a bool" % (path, where))
    if prof["enabled"] != vprof["enabled"]:
        fail("%s: profile.enabled disagrees between sections" % path)
    if prof["enabled"]:
        if not isinstance(prof.get("topk"), int) or prof["topk"] <= 0:
            fail("%s: profile.topk missing or not a positive int" % path)
        queries = prof.get("queries")
        if not isinstance(queries, list):
            fail("%s: profile.queries missing" % path)
        if len(queries) > prof["topk"]:
            fail("%s: %d profile queries exceed topk %d" % (path, len(queries), prof["topk"]))
        prev = None
        for i, q in enumerate(queries):
            for key in ("cost", "decisions", "propagations", "conflicts",
                        "learned_clauses", "learned_literals", "restarts",
                        "vars", "clauses", "count", "first_seed"):
                if not isinstance(q.get(key), int) or q[key] < 0:
                    fail("%s: profile query %d field %s not a non-negative int" % (path, i, key))
            if q["rank"] != i + 1:
                fail("%s: profile query ranks not dense from 1" % path)
            if q["count"] == 0:
                fail("%s: profile query %d seen zero times" % (path, i))
            if q["cost"] != q["decisions"] + q["propagations"] + q["conflicts"]:
                fail(
                    "%s: profile query %d cost %d != decisions+propagations+conflicts"
                    % (path, i, q["cost"])
                )
            # The documented total order: cost desc, key-hash asc (the
            # merge-determinism proof depends on this being total).
            this = (-q["cost"], q["key"])
            if prev is not None and this < prev:
                fail("%s: profile queries not sorted by (cost desc, key asc)" % path)
            prev = this
        data = vprof.get("data")
        if not isinstance(data, dict):
            fail("%s: volatile.profile.data missing" % path)
        stacks = data.get("spans", {}).get("stacks")
        if not isinstance(stacks, list):
            fail("%s: volatile.profile.data.spans.stacks missing" % path)
        for st in stacks:
            if not isinstance(st.get("stack"), str) or not re.match(r"w\d+;", st["stack"]):
                fail("%s: span stack without a w<i>; root: %r" % (path, st))
            if not isinstance(st.get("self_us"), int) or st["self_us"] <= 0:
                fail("%s: span stack self_us not a positive int: %r" % (path, st))
        folded = sum(st["self_us"] for st in stacks) / 1e6
        worker = vol["stage_seconds"]["worker_total"]
        if folded > worker + max(0.05 * worker, 0.002):
            fail(
                "%s: folded span self time %.6fs exceeds worker_total %.6fs"
                % (path, folded, worker)
            )

    surv = vol["survivability"]
    if "timeouts" in surv:
        fail("%s: retired survivability.timeouts key present" % path)
    if not isinstance(surv.get("interrupted"), bool):
        fail("%s: survivability.interrupted missing or not a bool" % path)
    if not isinstance(surv.get("degraded"), bool):
        fail("%s: survivability.degraded missing or not a bool" % path)
    if not isinstance(surv.get("fanout"), int) or surv["fanout"] < 0:
        fail("%s: survivability.fanout missing or not a non-negative int" % path)
    if surv["fanout"] > 0 and vol["jobs"] != surv["fanout"]:
        fail(
            "%s: volatile.jobs is %r but survivability.fanout is %d"
            % (path, vol["jobs"], surv["fanout"])
        )
    lost = surv.get("lost_shards")
    if not isinstance(lost, list):
        fail("%s: survivability.lost_shards missing or not a list" % path)
    for row in lost:
        if not isinstance(row.get("shard"), int) or row["shard"] < 0:
            fail("%s: lost_shards row missing non-negative 'shard': %r" % (path, row))
        if not isinstance(row.get("lost_iterations"), int) or row["lost_iterations"] < 0:
            fail(
                "%s: lost_shards row missing non-negative 'lost_iterations': %r"
                % (path, row)
            )
    if lost and not surv["degraded"]:
        fail("%s: lost_shards non-empty but survivability.degraded is false" % path)

    faults = vol.get("fault_injection")
    if not isinstance(faults, dict) or not isinstance(faults.get("armed"), bool):
        fail("%s: volatile.fault_injection missing or armed not a bool" % path)
    points = faults.get("points", [])
    if faults["armed"] and not isinstance(points, list):
        fail("%s: fault_injection.points missing" % path)
    for pt in points:
        for key in ("calls", "triggers"):
            if not isinstance(pt.get(key), int) or pt[key] < 0:
                fail("%s: fault point %r field %s not a non-negative int" % (path, pt.get("point"), key))
        if pt["triggers"] > pt["calls"]:
            fail(
                "%s: fault point %r fired %d times in only %d calls"
                % (path, pt.get("point"), pt["triggers"], pt["calls"])
            )

    s = det["summary"]
    if not isinstance(s.get("timeouts"), int) or s["timeouts"] < 0:
        fail("%s: summary.timeouts missing or not a non-negative int" % path)

    fam_applied = sum(row["applied"] for row in det["per_family"])
    if fam_applied != s["mutations_applied"]:
        fail(
            "%s: per_family applied sum (%d) != mutations_applied (%d)"
            % (path, fam_applied, s["mutations_applied"])
        )

    verdicts = sum(det["tv_verdicts"].values())
    if verdicts != s["verified"]:
        fail(
            "%s: tv_verdicts sum (%d) != verified (%d)"
            % (path, verdicts, s["verified"])
        )

    for row in det["per_pass"]:
        if row["changed"] > row["invocations"]:
            fail(
                "%s: pass %s changed (%d) > invocations (%d)"
                % (path, row["pass"], row["changed"], row["invocations"])
            )

    bugs = det["bugs"]
    if bugs["total"] != len(bugs["records"]):
        fail("%s: bugs.total (%d) != len(records)" % (path, bugs["total"]))
    if bugs["miscompiles"] + bugs["crashes"] != bugs["total"]:
        fail("%s: miscompiles + crashes != bugs.total" % path)
    for rec in bugs["records"]:
        if "bundle" not in rec:
            fail("%s: bug record for seed %s missing 'bundle'" % (path, rec.get("seed")))
    linked = sum(1 for rec in bugs["records"] if rec["bundle"])
    if linked and s["bundles"] < linked:
        fail(
            "%s: %d bug records link bundles but summary counts only %d written"
            % (path, linked, s["bundles"])
        )

    cache = vol["cache"]
    lookups = cache["hits"] + cache["misses"]
    if lookups > 0 and lookups != s["verified"]:
        fail(
            "%s: cache hits (%d) + misses (%d) != verified (%d)"
            % (path, cache["hits"], cache["misses"], s["verified"])
        )

    for name, h in vol["stats"]["histograms"].items():
        bucket_sum = sum(b["count"] for b in h["buckets"])
        if bucket_sum != h["count"]:
            fail(
                "%s: histogram %s count (%d) != bucket sum (%d)"
                % (path, name, h["count"], bucket_sum)
            )
        if not h["p50_s"] <= h["p90_s"] <= h["p99_s"]:
            fail(
                "%s: histogram %s percentiles unordered: p50=%g p90=%g p99=%g"
                % (path, name, h["p50_s"], h["p90_s"], h["p99_s"])
            )
        if h["count"] and not h["min_s"] <= h["p50_s"] <= h["max_s"]:
            fail("%s: histogram %s p50 outside [min, max]" % (path, name))

    ss = vol["stage_seconds"]
    staged = ss["mutate"] + ss["optimize"] + ss["verify"] + ss["overhead"]
    worker = ss["worker_total"]
    # Absolute floor for near-instant smoke runs, relative bound otherwise.
    tol = max(0.05 * worker, 0.002)
    if abs(staged - worker) > tol:
        fail(
            "%s: stage-time sum %.6fs deviates from worker_total %.6fs by "
            "more than %.6fs" % (path, staged, worker, tol)
        )

    return r


def main():
    if len(sys.argv) not in (2, 3):
        fail("usage: check_stats_json.py <report.json> [<other.json>]")

    first = check_report(sys.argv[1])
    msg = "%d mutants, %d verified, %d bugs" % (
        first["deterministic"]["summary"]["mutants"],
        first["deterministic"]["summary"]["verified"],
        first["deterministic"]["bugs"]["total"],
    )

    if len(sys.argv) == 3:
        second = check_report(sys.argv[2])
        if first["deterministic"] != second["deterministic"]:
            d1, d2 = first["deterministic"], second["deterministic"]
            diff = [k for k in d1 if d1[k] != d2.get(k)]
            fail(
                "deterministic sections differ between %s (-j=%s) and %s "
                "(-j=%s): %s"
                % (
                    sys.argv[1],
                    first["volatile"]["jobs"],
                    sys.argv[2],
                    second["volatile"]["jobs"],
                    ", ".join(diff) or "key sets",
                )
            )
        msg += "; deterministic sections identical (jobs %s vs %s)" % (
            first["volatile"]["jobs"],
            second["volatile"]["jobs"],
        )

    print("check_stats_json: OK (%s)" % msg)


if __name__ == "__main__":
    main()
