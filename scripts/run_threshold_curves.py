#!/usr/bin/env python3
"""Plot-ready threshold curves for a synthetic planted-signal matrix.

Draws an n x m grid of z-scores, shifts a fraction of columns by mu in every
study (so they are non-null at any replicability level up to n), converts to
two-sided p-values, and writes the estimated-V / estimated-FDP step curves
over the default threshold grid. Echoes the data-driven thresholds picked by
both adaptive procedures at the same level for orientation.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np
from scipy.special import erfc

from adafilter import (
    AdaFilterError,
    adafilter_bh,
    adafilter_bonferroni,
    compute_filter_select,
    curves,
    validate_matrix,
)
from adafilter.tables import atomic_output, format_float, write_curves_tsv


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=10000, help="hypotheses")
    parser.add_argument("--n", type=int, default=4, help="studies")
    parser.add_argument("--r", type=int, default=2, help="replicability level")
    parser.add_argument("--alpha", type=float, default=0.05)
    parser.add_argument("--signal-fraction", type=float, default=0.01)
    parser.add_argument("--mu", type=float, default=4.0, help="signal mean shift")
    parser.add_argument("--seed", type=int, default=20260825)
    parser.add_argument("--output", type=Path, default=Path("curves.tsv"))
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> int:
    """Write the curves and echo both thresholds; bad input ends in one error line and 1."""
    try:
        rng = np.random.Generator(np.random.Philox(args.seed))
        z = rng.standard_normal((args.n, args.m))
        n_signal = int(round(args.signal_fraction * args.m))
        signal_cols = rng.choice(args.m, size=n_signal, replace=False)
        z[:, signal_cols] += args.mu
        pvalues = erfc(np.abs(z) / np.sqrt(2.0))

        matrix = validate_matrix(pvalues)
        stats = compute_filter_select(matrix, args.r)
        table = curves(stats, grid=None, alpha=args.alpha)
        with atomic_output(args.output) as fh:
            write_curves_tsv(table, fh)

        bon = adafilter_bonferroni(stats, args.alpha)
        bh = adafilter_bh(stats, args.alpha)
    except (AdaFilterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"planted_signals = {n_signal}", file=sys.stderr)
    print(f"grid_points = {table.gamma.shape[0]}")
    print(f"gamma0_bonferroni = {format_float(bon.gamma0)} ({bon.n_rejected} rejections)")
    print(f"gamma0_bh = {format_float(bh.gamma0)} ({bh.n_rejected} rejections)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args()))
