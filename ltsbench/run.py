#!/usr/bin/env python3
"""Layered LTS benchmark: one command per workload run.

    python3 ltsbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of an ltswave checkout. Builds the library and the
`ltsbench` binary from source into .bench_build/ltsbench (configure once,
incremental afterwards; build output goes to stderr), then:

  1. computes the gate's reference: W's spec run once, untimed, on the other
     executor family, in its own process so it does not touch this run's
     peak RSS;
  2. --trace 0: measures the end-to-end metrics for T seconds (tracing off);
     --trace 1: runs the traced per-layer pass and writes its spans to
     .bench_build/traces/<workload>-seed<N>.json.

The binary's last stdout line is the result JSON, which this script re-prints
as its own last line. Any build or run failure exits non-zero without a
result line. See ltsbench/README.md for workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# Wall-clock budget for the reference and measured processes together,
# counted after the build (a cold build may take longer on its own).
RUN_BUDGET_S = 170


def fail(msg: str) -> None:
    print(f"ltsbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd: list[str], timeout: float, capture: bool = False) -> str:
    """Runs cmd to completion (killing and reaping it on timeout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout:.0f} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return out or ""


def build(root: Path) -> Path:
    build_dir = root / ".bench_build" / "ltsbench"
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(build_dir), "--target", "ltsbench", "-j", jobs],
                timeout=900)
    return build_dir / "ltsbench"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = BENCH_DIR.parent
    exe = build(root)
    deadline = time.monotonic() + RUN_BUDGET_S
    work = root / ".bench_build" / "runs"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    ref = work / f"{tag}.{os.getpid()}.ref"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run_checked([str(exe), "reference", *common, "--out", str(ref)],
                    deadline - time.monotonic())
        if args.trace:
            traces = root / ".bench_build" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            cmd = [str(exe), "trace", *common, "--reference", str(ref),
                   "--trace-out", str(traces / f"{tag}.json")]
        else:
            cmd = [str(exe), "measure", *common, "--seconds", str(args.seconds),
                   "--reference", str(ref)]
        out = run_checked(cmd, deadline - time.monotonic(), capture=True)
    finally:
        ref.unlink(missing_ok=True)

    lines = out.strip().splitlines()
    if not lines:
        fail("ltsbench printed nothing")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
