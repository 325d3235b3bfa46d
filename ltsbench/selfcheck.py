#!/usr/bin/env python3
"""Self-checks of the layered LTS benchmark.

    python3 ltsbench/selfcheck.py [--seconds T] [--workload W ...]

Run from the root of an ltswave checkout. For every workload it makes one
untraced run (seed 1) and two traced runs (seeds 1 and 2) through run.py and
checks that:

  * every metric BENCHMARK.json names is emitted, finite, and the run is
    correct with no failed repetition;
  * partition.* and runtime.* are non-zero only on trench-steal-r2 (the serial
    workloads bypass both layers, so their per-rank vectors are empty);
  * the core.* work counts repeat exactly across the two traced runs of
    different seeds, and across the untraced and traced pass inside each;
  * the gate's 10x-Courant negative control is counted as failed;
  * the traced setup spans sum to the untraced setup_s within SETUP_GAP_TOL.

Prints every failure and exits 1 if any workload failed a check. Takes about
five minutes with the default run length.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREADED = "trench-steal-r2"
COUNTS = ("core.element_applies", "core.blocks_applied", "core.applies_per_cycle",
          "core.cycles_per_run")
# Setup spans vs untraced setup_s: the tracing overhead this benchmark states.
SETUP_GAP_TOL = 0.15


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "ltsbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=900).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_workload(workload: str, seconds: float, spec: dict) -> list[str]:
    errors: list[str] = []

    def expect(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(msg)

    def check_result(res: dict, names: list[str], label: str) -> None:
        expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
               f"{label}: correct={res['correct']} attempted={res['attempted']} "
               f"failed={res['failed']}")
        expect(sorted(res["metrics"]) == sorted(names),
               f"{label}: metric names differ from BENCHMARK.json: "
               f"{sorted(set(res['metrics']) ^ set(names))}")
        for name, m in res["metrics"].items():
            expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                   f"{label}: {name} is not finite")

    e2e = run(workload, 1, seconds, 0)
    check_result(e2e, [m["name"] for m in spec["end_to_end"]], "untraced")
    for name, m in e2e["metrics"].items():
        expect(m["value"] > 0, f"untraced: end-to-end metric {name} reads 0")

    layer_names = [m["name"] for m in spec["per_layer"]]
    traced = [run(workload, seed, seconds, 1) for seed in (1, 2)]
    for seed, res in zip((1, 2), traced):
        label = f"traced seed {seed}"
        check_result(res, layer_names, label)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        for name in layer_names:
            if name.startswith(("partition.", "runtime.")):
                nonzero = m[name] != 0
                # A steal-free level-aware run may legitimately steal nothing.
                if name != "runtime.steals" or workload != THREADED:
                    expect(nonzero == (workload == THREADED),
                           f"{label}: {name}={m[name]} (non-zero only on {THREADED})")
        expect(m["check.counts_repeat"] == 1, f"{label}: counts differ between two runs")
        expect(m["check.negative_control_failed"] == 1,
               f"{label}: the 10x-Courant negative control passed the gate")
        expect(abs(m["trace.setup_gap_frac"]) <= SETUP_GAP_TOL,
               f"{label}: setup spans miss setup_s by {m['trace.setup_gap_frac']:+.3f}")
    for name in COUNTS:
        a, b = (res["metrics"][name]["value"] for res in traced)
        expect(a == b, f"{name} differs across seeds: {a} vs {b}")
    return errors


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    failed = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        errors = check_workload(workload, args.seconds, spec)
        print(f"{workload}: {'ok' if not errors else 'FAILED'}")
        for e in errors:
            print(f"  - {e}")
        failed |= bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
