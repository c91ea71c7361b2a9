#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads corpus,table1]
                                [--seconds N] [--trace 0]

For every metric: the median over seeds, the quartiles as
statistics.quantiles(n=4) gives them, and the spread (q3 - q1) / median.
An end-to-end metric is flagged when its spread exceeds a third of the
bound BENCHMARK.json fixes for it (setup_s is exempt: only its median is
gated).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for w in a.workloads.split(","):
        values = {}
        for s in seeds(a.seeds):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                   "--workload", w, "--seed", str(s),
                                   "--seconds", str(a.seconds), "--trace", str(a.trace)],
                                  cwd=ROOT, capture_output=True, text=True)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(line) if line.startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {s}: exit {proc.returncode}, {line[:200]}")
                print(proc.stderr[-2000:])
                bad = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {s}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = f"  <-- above bound/3 ({bound / 3:.3f})"
                bad = True
            print(f"  {w:9s} {name:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}  n={len(v)}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
