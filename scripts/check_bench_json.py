#!/usr/bin/env python3
"""Validate a bench_throughput JSON report against BENCH_baseline.json.

Usage: check_bench_json.py <fresh.json> <baseline.json>

CI runs the bench with tiny knobs, so absolute timings are noise; what must
hold is the report *shape* (the baseline documents the schema) plus the
internal invariants of the counters. Exits non-zero with a message when
either is violated.
"""

import json
import sys


def fail(msg):
    print("check_bench_json: FAIL: " + msg)
    sys.exit(1)


def key_shape(value):
    """Recursive key structure; lists are described by their first element
    (rows all share one schema). The cost-attribution fields (top_query,
    dominant_query) are null-or-object by design — which file happens to
    track a query is timing-dependent — so they are shape-checked
    separately in check_profile, not here."""
    if isinstance(value, dict):
        return {
            k: "top_query" if k in ("top_query", "dominant_query") else key_shape(v)
            for k, v in sorted(value.items())
        }
    if isinstance(value, list):
        return [key_shape(value[0])] if value else []
    return type(value).__name__


QUERY_FIELDS = ("function", "verdict", "cost", "decisions", "propagations",
                "conflicts", "count")


def check_query(where, q):
    """One top_query/dominant_query object: required fields, counters
    consistent (cost is by definition decisions+propagations+conflicts)."""
    for k in QUERY_FIELDS:
        if k not in q:
            fail("%s: top_query missing field %r" % (where, k))
    for k in ("cost", "decisions", "propagations", "conflicts", "count"):
        if not isinstance(q[k], int) or q[k] < 0:
            fail("%s: top_query.%s is %r, not a non-negative int" % (where, k, q[k]))
    if q["count"] == 0:
        fail("%s: top_query seen zero times" % where)
    if q["cost"] != q["decisions"] + q["propagations"] + q["conflicts"]:
        fail(
            "%s: top_query cost %d != decisions %d + propagations %d + "
            "conflicts %d"
            % (where, q["cost"], q["decisions"], q["propagations"], q["conflicts"])
        )


def check_profile(fresh):
    prof = fresh.get("profile")
    if not isinstance(prof, dict) or prof.get("enabled") is not True:
        fail("profile block missing or disabled")
    if prof.get("p99_file"):
        if prof["p99_file"] not in {r["name"] for r in fresh["rows"]}:
            fail("profile.p99_file %r is not a benchmark row" % prof["p99_file"])
        dq = prof.get("dominant_query")
        if isinstance(dq, dict):
            check_query("profile.dominant_query", dq)
    attributed = 0
    for row in fresh["rows"]:
        if "top_query" not in row:
            fail("%s: row lacks the top_query field" % row["name"])
        q = row["top_query"]
        if q is None:
            continue
        check_query(row["name"], q)
        attributed += 1
        # test3.ll is the corpus's heavy tail: its dominant query must show
        # actual solver effort, or the attribution is not measuring.
        if row["name"] == "test3.ll" and q["cost"] == 0:
            fail("test3.ll dominant query reports zero solver effort")
    if attributed == 0:
        fail("no row carries a top_query cost attribution")
    for row in fresh["rows"]:
        if row["name"] == "test3.ll" and row["top_query"] is None:
            fail("test3.ll (the p99 dominator) has no top_query")


def main():
    if len(sys.argv) != 3:
        fail("usage: check_bench_json.py <fresh.json> <baseline.json>")
    with open(sys.argv[1]) as f:
        fresh = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    if key_shape(fresh) != key_shape(base):
        fail(
            "report schema drifted from baseline:\n  fresh:    %r\n  baseline: %r"
            % (key_shape(fresh), key_shape(base))
        )

    t = fresh["totals"]
    # The hit-rate field is load-bearing for the CI trend comparison: fail
    # with a message, not a KeyError, when a report stops emitting it.
    if "cache_hit_rate" not in t:
        fail("totals missing required cache_hit_rate field")
    if not fresh["rows"]:
        fail("no benchmark rows: every corpus file was discarded")
    if t["verified"] + t["verify_skipped"] <= 0:
        fail("no verification happened at all")
    if t["verify_skipped"] <= 0:
        fail("change-tracking never skipped a function")
    # Misses count actual checkRefinement calls: they can never exceed the
    # number of established verdicts.
    if t["cache_hits"] + t["cache_misses"] != t["verified"]:
        fail(
            "cache hits (%d) + misses (%d) != verified (%d)"
            % (t["cache_hits"], t["cache_misses"], t["verified"])
        )
    if not 0.0 <= t["cache_hit_rate"] <= 1.0:
        fail("cache_hit_rate %r outside [0, 1]" % t["cache_hit_rate"])
    for row in fresh["rows"]:
        for k in ("in_process_s", "no_memo_s", "discrete_s"):
            if row[k] < 0:
                fail("%s: negative timing %s" % (row["name"], k))
        if row["speedup_vs_discrete"] <= 0:
            fail("%s: non-positive speedup" % row["name"])
    # Every latency percentile is an exact nearest-rank sample: it must be
    # one row's time for that condition, and the very row the rank picks.
    # A bucket bound (0.016384 s = 2^14 us) or an interpolation is not a
    # measurement.
    for name, block in sorted(fresh.get("latency", {}).items()):
        samples = sorted(row[name + "_s"] for row in fresh["rows"])
        if block["count"] != len(samples):
            fail("%s latency count %r != %d rows"
                 % (name, block["count"], len(samples)))
        for pct in (50, 90, 99):
            got = block["p%d_s" % pct]
            want = samples[max(-(-pct * len(samples) // 100), 1) - 1]
            if got != want:
                fail("%s p%d %r is not the nearest-rank row's %s_s %r"
                     % (name, pct, got, name, want))

    check_profile(fresh)

    print(
        "check_bench_json: OK (%d rows, %d verified, %d skipped, "
        "hit rate %.1f%%, avg speedup vs discrete %.2fx, vs no-memo %.2fx)"
        % (
            len(fresh["rows"]),
            t["verified"],
            t["verify_skipped"],
            100.0 * t["cache_hit_rate"],
            fresh["avg_speedup_vs_discrete"],
            fresh["avg_speedup_vs_no_memo"],
        )
    )


if __name__ == "__main__":
    main()
