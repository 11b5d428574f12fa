#!/usr/bin/env python3
"""Run a scenario grid through the full procedure panel and write metrics TSV.

Defaults to the shipped desk-scale grid (scenarios/default_panel.scenario):
six (n, r) configurations x two sparsity levels x two correlation block
sizes, 20 replications each. One output row per (scenario, procedure).
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from adafilter import (
    AdaFilterError,
    default_panel_procedures,
    load_scenarios,
    run_panels,
    write_metrics_tsv,
)
from adafilter.tables import atomic_output

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCENARIOS = REPO_ROOT / "scenarios" / "default_panel.scenario"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", type=Path, default=DEFAULT_SCENARIOS)
    parser.add_argument("--output", type=Path, default=Path("panel_metrics.tsv"))
    parser.add_argument(
        "--alpha-pfer",
        type=float,
        default=1.0,
        help="nominal level of the Bonferroni-family procedures",
    )
    parser.add_argument(
        "--alpha-fdr",
        type=float,
        default=0.2,
        help="nominal level of the BH-family procedures",
    )
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> int:
    """Run the panel and write its metrics; bad input ends in one error line and 1."""
    try:
        scenarios = load_scenarios(str(args.scenario))
        if args.seed is not None:
            scenarios = [replace(sc, master_seed=args.seed) for sc in scenarios]
        procedures = default_panel_procedures(
            alpha_pfer=args.alpha_pfer, alpha_fdr=args.alpha_fdr
        )
        reports = []
        start = time.perf_counter()
        for i, report in enumerate(run_panels(scenarios, procedures, args.threads), start=1):
            reports.append(report)
            sc = report.scenario
            print(
                f"[{i}/{len(scenarios)}] n={sc.n} r={sc.r} pi0={sc.pi0} "
                f"b={sc.block_size} done ({time.perf_counter() - start:.1f}s)",
                file=sys.stderr,
            )
        with atomic_output(args.output) as fh:
            write_metrics_tsv(reports, fh)
    except (AdaFilterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(scenarios) * len(procedures)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
