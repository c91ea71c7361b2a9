#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs it.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so do the generated inputs
and the span files of traced runs. The last line of stdout is the JSON
result. --smoke runs every workload at tiny size, traced and untraced, and
checks that each metric BENCHMARK.json names is printed with its unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run may take 180 s; keep clear of it so the harness is never orphaned.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run(cmd, timeout, **kw):
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: timed out: {' '.join(cmd)}")


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources (src/CMakeLists.txt) in this checkout")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the result.
        if run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed")
    return os.path.join(out, "perfbench")


def harness(binary, workload, seed, seconds, trace, size="full"):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work"), "--size", size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: {workload} timed out")
    return proc.returncode, out


def smoke(binary):
    """Every workload at tiny size: each named metric printed with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = harness(binary, w["name"], 1, 1, trace, size="tiny")
            result = json.loads(out.strip().splitlines()[-1])
            got = result["metrics"]
            problems = [f"{m['name']} [{m['unit']}] missing or mis-united: "
                        f"{got.get(m['name'])}"
                        for m in bench[key]
                        if got.get(m["name"], {}).get("unit") != m["unit"]]
            extra = set(got) - {m["name"] for m in bench[key]}
            if extra:
                problems.append(f"unlisted metrics {sorted(extra)}")
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"exit {code}: {out.strip()}")
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} trace={trace}: "
                  f"{len(got)} metrics")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and not a.workload:
        ap.error("--workload is required")
    binary = build()
    if a.smoke:
        return smoke(binary)
    code, out = harness(binary, a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
