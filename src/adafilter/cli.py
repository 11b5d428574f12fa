"""Command-line front end.

Three subcommands: `test` runs one procedure on a CSV p-value matrix,
`curve` emits the estimated-V/FDP table for a matrix, and `simulate` runs a
scenario file through the Monte Carlo panel. File inputs and outputs go
through `tables`; stdout carries a short human summary that is not part of
the file contract.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .baselines import run_procedure
from .errors import AdaFilterError, ValidationError
from .pc_core import PCCombinerKind
from .procedures import Procedure, ProcedureKind, compute_filter_select, curves
from .simlab import default_panel_procedures, run_panels
from .tables import atomic_output, format_float, ingest_csv, load_scenarios
from .tables import write_curves_tsv, write_decisions_tsv, write_metrics_tsv

__all__ = ["ingest_csv", "cmd_test", "cmd_simulate", "cmd_curve", "main"]


def cmd_test(args: argparse.Namespace) -> int:
    """Run one procedure on an input matrix and write the per-hypothesis TSV."""
    alpha = 0.05 if args.alpha is None else args.alpha
    combiner = None if args.combiner is None else PCCombinerKind(args.combiner)
    proc = Procedure(ProcedureKind(args.method), alpha, combiner)

    matrix = ingest_csv(args.input)
    stats = compute_filter_select(matrix, args.r)
    result = run_procedure(matrix, args.r, proc)

    pc_pvalues = None if combiner is None else matrix.pc_pvalues(args.r, combiner)
    with atomic_output(args.output) as fh:
        write_decisions_tsv(matrix.ids, stats, pc_pvalues, result, fh)

    print(f"gamma0 = {format_float(result.gamma0)}")
    if result.filtered_count is not None:
        print(f"filtered_m = {result.filtered_count}")
    print(f"rejections = {result.n_rejected}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    """Write the estimated-V/FDP table of an input matrix over the default grid."""
    matrix = ingest_csv(args.input)
    stats = compute_filter_select(matrix, args.r)
    table = curves(stats, grid=None, alpha=args.alpha)
    with atomic_output(args.output) as fh:
        write_curves_tsv(table, fh)
    print(f"grid_points = {table.gamma.shape[0]}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the scenario file through the default procedure panel, write metrics TSV."""
    threads = _resolve_threads(args.threads)
    scenarios = load_scenarios(args.scenario)
    if args.seed is not None:
        scenarios = [replace(sc, master_seed=args.seed) for sc in scenarios]
    if args.alpha is not None:
        procedures = default_panel_procedures(alpha_pfer=args.alpha, alpha_fdr=args.alpha)
    else:
        procedures = default_panel_procedures()
    reports = list(run_panels(scenarios, procedures, threads))
    with atomic_output(args.output) as fh:
        write_metrics_tsv(reports, fh)
    for seed in dict.fromkeys(sc.master_seed for sc in scenarios):
        print(f"master_seed = {seed}")
    print(f"scenarios = {len(scenarios)}")
    print(f"rows = {len(scenarios) * len(procedures)}")
    return 0


def _resolve_threads(value: int | None) -> int:
    source = "--threads"
    if value is None:
        source = "ADAFILTER_THREADS"
        env = os.environ.get(source)
        if env is None:
            return 1
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"{source} must be an integer, got {env!r}") from None
    if value < 1:
        raise ValidationError(f"{source} must be >= 1, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """Ends a malformed command line like any bad input: exit 1, one error: line."""

    def error(self, message: str):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adafilter",
        description="Adaptive filtering procedures for partial-conjunction hypotheses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one procedure on a CSV p-value matrix")
    p_test.add_argument("--input", required=True)
    p_test.add_argument("--output", required=True)
    p_test.add_argument("--method", required=True, choices=[k.value for k in ProcedureKind])
    p_test.add_argument("--combiner", choices=[k.value for k in PCCombinerKind])
    p_test.add_argument("--r", required=True, type=int)
    p_test.add_argument("--alpha", type=float)

    p_sim = sub.add_parser("simulate", help="run a scenario file through the panel")
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--output", required=True)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--threads", type=int)

    p_curve = sub.add_parser("curve", help="emit estimated-V/FDP curve data")
    p_curve.add_argument("--input", required=True)
    p_curve.add_argument("--output", required=True)
    p_curve.add_argument("--r", required=True, type=int)
    p_curve.add_argument("--alpha", type=float)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "test":
            return cmd_test(args)
        if args.command == "simulate":
            return cmd_simulate(args)
        return cmd_curve(args)
    except (AdaFilterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
