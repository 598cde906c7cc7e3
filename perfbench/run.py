"""Benchmark of coarseops.

    python3 perfbench/run.py --workload staged-exact --seed 1 --seconds 25 --trace 0

runs one workload (or, without --workload, all four in turn) and prints a
header, one line per metric with its unit, and as the last line one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones.  Each workload runs in its own
single-threaded process (worker.py).  wall_s is the median pass of the
run and setup_s the median of several fresh processes that import the
program and make the inputs; both are scaled to the reference speed by
the calibration loop run around each (calibrate.py; README.md says why).

Run it from the root of a source tree: it uses the program under src/ and
exits with code 2 if there is none.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("staged-exact", "mc-sample", "classify-grid", "verify-suite")
SETUP_REPEATS = 7
# Throughput printed beside wall_s, from the items one pass handles.
THROUGHPUT = {"mc-sample": "mc_samples_per_s", "classify-grid": "cells_per_s"}


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, timeout):
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=_worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=timeout)


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def header() -> list[str]:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return [
        f"# git_sha: {_git_sha()}",
        f"# src_sha256: {digest.hexdigest()[:16]}",
        f"# src_lines: {lines} in {len(sources)} files",
        f"# python: {platform.python_version()}  numpy: {numpy_version}",
        f"# nproc: {len(os.sched_getaffinity(0))} of {os.cpu_count()}",
    ]


def setup_seconds(workload: str, seed: int) -> list[tuple]:
    """Wall times of fresh processes that import the program and make the
    workload's inputs, each as (seconds, calibration loop before, loop
    after).  A first, untimed one fills the bytecode cache."""
    args = ["--workload", workload, "--seed", str(seed), "--setup"]
    samples, loop = [], None
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = _worker(args, timeout=60)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        after = calibrate.loop()
        if i:
            samples.append((elapsed, loop, after))
        loop = after
    return samples


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 units: dict) -> dict:
    setup = None if trace else setup_seconds(workload, seed)
    done = _worker(["--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)],
                   timeout=seconds + 120)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = calibrate.scaled(setup)
    passes = result["passes"]
    print(f"## {workload} seed={seed} trace={trace} passes={len(passes)} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    if setup is not None:
        print(f"   setup times: median "
              f"{statistics.median(t for t, _, _ in setup):.4g} s; calibration "
              f"loop median {statistics.median(a for _, _, a in setup):.4g} s")
    if result["unexpected"]:
        print(f"   unexpected failures: {', '.join(result['unexpected'])}")
    if len(passes) > 1:
        q1, q2, q3 = statistics.quantiles(passes, n=4)
        print(f"   pass times: min {min(passes):.4g} s, quartiles {q1:.4g} "
              f"{q2:.4g} {q3:.4g} s, max {max(passes):.4g} s; calibration "
              f"loop median {statistics.median(result['loops']):.4g} s")
    for name, value in sorted(metrics.items()):
        print(f"   {name} = {value:.6g} {units[name]}")
    if not trace and workload in THROUGHPUT:
        rate = result["items_per_pass"] / metrics["wall_s"]
        print(f"   {THROUGHPUT[workload]} = {rate:.6g} (wall_s of "
              f"{result['items_per_pass']} per pass)")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coarseops" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'coarseops'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds or spec["run_seconds"]
    print("\n".join(header()))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, seconds, args.trace,
                                         units)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
