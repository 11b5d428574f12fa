#!/usr/bin/env python3
"""Print every end-to-end metric of every benchmark workload in one table.

Usage (from the root of a source checkout):

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py once per workload, one after another, and prints
setup_s, op_p50_s, hyp_per_s, reps_per_s (panel only), peak_rss_mb and
fail_frac by name with their units and sample counts.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS, WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(next(x for x in lines if x.startswith("detail: "))[len("detail: "):])
        samples = detail["samples"]
        print(f"{name} (seed {args.seed}, correct={result['correct']})")
        for metric, unit in E2E_UNITS.items():
            n = samples["setup"] if metric == "setup_s" else samples["ops"]
            print(f"  {metric:<12} {result['metrics'][metric]['value']:>14.6g} {unit:<6} n={n}")
        if "reps_per_s" in detail["extra"]:
            print(f"  {'reps_per_s':<12} {detail['extra']['reps_per_s']:>14.6g} reps/s n={samples['ops']}")
        print(f"  {'fail_frac':<12} {detail['extra']['fail_frac']:>14.6g} ratio  "
              f"{result['failed']}/{result['attempted']}")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
