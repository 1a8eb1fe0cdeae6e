#!/usr/bin/env python3
"""Runs one workload of the darkmenace benchmark and prints its metrics.

    python3 perfbench/run.py --workload study_batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script

1. builds the harness (perfbench/CMakeLists.txt, Release) from the checkout's
   sources into .bench_build/perfbench,
2. runs the harness self-tests,
3. prepares the workload's inputs and output oracle from the seed, in a
   process of its own, under .bench_build/work/,
4. measures in a second process (so peak RSS is the measured run's alone),
   which checks every output against the oracle,
5. prints a host fingerprint line, one line per metric, and, as the last
   line, the result JSON object.

With --trace 0 the result holds every end-to-end metric of BENCHMARK.json;
with --trace 1 every per-layer metric (0 for a layer the workload does not
call). Exit status: 0 all output checks passed, 1 an output check failed,
2 the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD / "dm_perfbench"
RUN_BUDGET_S = 170  # every step after the build, inside the 180 s limit
BUILD_BUDGET_S = 850


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_step(cmd, timeout, log_path=None):
    """Runs one child process to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(map(str, cmd[:2]))} timed out after {exc.timeout:.0f} s")
    if log_path is not None:
        log_path.write_text(proc.stdout + proc.stderr)
    return proc


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no darkmenace sources under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        proc = run_step(cmd, deadline - time.monotonic(), BUILD / "configure.log")
        if proc.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            raise BenchError(f"configure failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    jobs = str(min(4, os.cpu_count() or 1))
    proc = run_step(["cmake", "--build", str(BUILD), "--target", "dm_perfbench", "-j", jobs],
                    deadline - time.monotonic(), BUILD / "build.log")
    if proc.returncode != 0:
        raise BenchError(f"build failed:\n{proc.stdout[-3000:]}{proc.stderr[-2000:]}")


def source_fingerprint():
    """The git commit when there is one, and a digest of the sources."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def load_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def complete_metrics(metrics, expected, trace):
    """Checks the harness's metrics against the catalogue. A traced run
    reports 0 for layers its workload does not call."""
    for name, metric in metrics.items():
        if name not in expected:
            raise BenchError(f"metric {name} is not in BENCHMARK.json")
        if metric["unit"] != expected[name]:
            raise BenchError(f"metric {name} has unit {metric['unit']}, "
                             f"BENCHMARK.json says {expected[name]}")
    missing = sorted(set(expected) - set(metrics))
    if missing and not trace:
        raise BenchError(f"end-to-end metrics missing: {', '.join(missing)}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": expected[name]}
    return {name: metrics[name] for name in sorted(metrics)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    start = time.monotonic()
    workloads, end_to_end, per_layer = load_catalogue()
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload}; BENCHMARK.json has "
                         f"{', '.join(sorted(workloads))}")

    proc = run_step([str(HARNESS), "selftest"], 60)
    if proc.returncode != 0:
        raise BenchError(f"self-tests failed:\n{proc.stdout}{proc.stderr}")

    threads = str(min(4, os.cpu_count() or 1))
    work = ROOT / ".bench_build" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work", str(work), "--threads", threads]
    try:
        proc = run_step([str(HARNESS), "prepare", *common],
                        RUN_BUDGET_S - (time.monotonic() - start))
        if proc.returncode != 0:
            raise BenchError(f"prepare failed:\n{proc.stdout}{proc.stderr}")
        spans = ROOT / ".bench_build" / f"spans-{args.workload}.json"
        proc = run_step([str(HARNESS), "run", *common, "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--spans-out", str(spans)],
                        RUN_BUDGET_S - (time.monotonic() - start))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(f"measurement failed (exit {proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["metrics"] = complete_metrics(result["metrics"],
                                         per_layer if args.trace else end_to_end,
                                         args.trace)
    for line in lines[:-1]:
        if line.startswith("host "):
            host = json.loads(line[len("host "):])
            host.update(source_fingerprint())
            line = "host " + json.dumps(host)
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        log(str(exc))
        sys.exit(2)
