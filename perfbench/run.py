#!/usr/bin/env python3
"""Repository benchmark: build raftbench from this checkout and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/;
later calls reuse that build. The last line of standard output is the
result, {"correct", "attempted", "failed", "metrics"}; the line before it
records the host fingerprint, the raw per-rep samples and run details.
Build logs go to standard error. The exit status is 0 only when every rep
passed its oracle; without the library sources, or when the build or the
run breaks, the script prints no result and exits non-zero.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
# raftbench stops starting reps 60 s past --seconds and gives a rep 30 s;
# this is the backstop if the process itself stops answering.
RUN_GRACE_S = 150
RUN_LIMIT_S = 175
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}", 2)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 2)
    return BUILD_DIR / "raftbench"


def cache_value(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def first_line(cmd, cwd=None):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def tree_digest(*dirs):
    """sha256 over the relative paths and bytes of every file in dirs."""
    h = hashlib.sha256()
    for d in dirs:
        for p in sorted(q for q in d.rglob("*") if q.is_file()):
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def host_fingerprint():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "compiler": first_line([cache_value("CMAKE_CXX_COMPILER"), "--version"]),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_sha": (first_line(["git", "rev-parse", "HEAD"], cwd=ROOT)
                    if (ROOT / ".git").exists() else "unknown (not a git checkout)"),
        "source_sha256": tree_digest(ROOT / "src", BENCH_DIR),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    binary = build()
    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=min(a.seconds + RUN_GRACE_S, RUN_LIMIT_S))
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising
        fail("raftbench did not finish in time")
    sys.stderr.write(run.stderr)
    if run.returncode not in (0, 1):
        fail(f"raftbench exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("raftbench printed no result")
    out = json.loads(lines[-1])

    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != want:
        fail(f"metric set differs from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in out["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"metric {name} has no finite value (failed reps: {out['failed']})")

    print(json.dumps({
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "host": host_fingerprint(),
        "samples": out["samples"], "detail": out["detail"],
    }))
    print(json.dumps({k: out[k] for k in RESULT_KEYS}))
    ok = out["correct"] and out["failed"] == 0 and run.returncode == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
