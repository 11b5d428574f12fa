"""Command-line front end.

Three subcommands: `test` runs one procedure on a CSV p-value matrix,
`curve` emits the estimated-V/FDP table for a matrix, and `simulate` runs a
scenario file through the Monte Carlo panel. All file outputs are TSV with
'.' decimals and LF line endings, put in place only once complete; stdout
carries a short human summary that is not part of the file contract.
"""
from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np
from numpy.typing import NDArray

from .baselines import run_procedure
from .errors import (
    AdaFilterError,
    DuplicateIdentifier,
    OutOfRangeEntry,
    ParseError,
    ValidationError,
)
from .pc_core import PCCombinerKind, PValueMatrix, validate_matrix
from .procedures import Procedure, ProcedureKind, _filter_select, compute_filter_select, curves
from .simlab import (
    atomic_output,
    default_panel_procedures,
    format_float,
    load_scenarios,
    open_input,
    run_panel,
    write_columns,
    write_curves_tsv,
    write_metrics_tsv,
)

__all__ = ["ingest_csv", "cmd_test", "cmd_simulate", "cmd_curve", "main"]

_MISSING_TOKEN = "NA"
_CHUNK_CHARS = 1 << 20  # characters of whole lines per bulk read


def ingest_csv(path: str) -> PValueMatrix:
    """Read a CSV p-value matrix: header row of study names, one row per hypothesis.

    The first column holds hypothesis identifiers; remaining cells are
    decimal p-values or the literal token NA for missing. File rows become
    columns of the internal study-by-hypothesis matrix. A file the bulk pass
    cannot vouch for (quoted cells, CR line endings, any bad cell) is read
    again cell by cell, which gives the same matrix or the error naming the
    offending line.
    """
    matrix = _ingest_bulk(path)
    return _ingest_per_cell(path) if matrix is None else matrix


def _ingest_bulk(path: str) -> PValueMatrix | None:
    """The matrix through np.loadtxt, one chunk of lines at a time, or None.

    Each chunk's ids are split off and its NA cells become nan before
    loadtxt parses it. The result is returned only when it must equal the
    per-cell reader's:
    - no quote, CR or NUL character and no line longer than the csv field
      limit, so every line splits on its commas as csv.reader splits it;
    - every row has as many cells as the header;
    - there is one NaN per NA cell and no other, so a literal nan never
      passes as missing;
    - every other value lies in [0, 1], the ids are unique, and loadtxt gave
      no warning (it warns on a chunk without data rows).
    """
    limit = csv.field_size_limit()

    def plain(text: str, lines: list[str]) -> bool:
        return not ('"' in text or "\r" in text or "\0" in text) and max(map(len, lines)) <= limit

    ids: list[str] = []
    blocks: list[NDArray] = []
    missing = commas = 0
    with open_input(path, newline="") as fh, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header = next((line for line in fh if line != "\n"), "")
        n_studies = header.count(",")
        if n_studies == 0 or not plain(header, [header]):
            return None
        try:
            for lines in iter(lambda: fh.readlines(_CHUNK_CHARS), []):
                text = "".join(lines)
                if not plain(text, lines):
                    return None
                ids += [line.partition(",")[0] for line in lines if line != "\n"]
                # a cell that starts with NA parses only if the rest is whitespace,
                # which the per-cell reader strips as well
                rewritten = text.replace(",NA", ",nan")
                missing += len(rewritten) - len(text)
                commas += text.count(",")
                blocks.append(np.loadtxt(
                    rewritten.split("\n"), delimiter=",", comments=None,
                    usecols=range(1, n_studies + 1), ndmin=2,
                ))
        except ValueError:  # a bad cell or byte: the per-cell reader finds and names it
            return None
    m = len(ids)
    # usecols ignores surplus cells, so the comma count checks every row's width
    if caught or m == 0 or commas != m * n_studies:
        return None
    values = np.concatenate(blocks)
    n_nan = int(np.count_nonzero(np.isnan(values)))
    in_range = int(np.count_nonzero((values >= 0.0) & (values <= 1.0)))
    if (values.shape != (m, n_studies) or n_nan != missing or in_range + n_nan != values.size
            or len(set(ids)) != m):
        return None
    return validate_matrix(values.T, ids=ids)


def _ingest_per_cell(path: str) -> PValueMatrix:
    """ingest_csv through csv.reader and float(), one cell at a time."""
    ids: dict[str, None] = {}  # ids in file order, as dict keys for the duplicate check
    rows: list[list[float]] = []
    n_studies: int | None = None
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            for lineno, record in enumerate(reader, start=1):
                if not record:
                    continue
                if n_studies is None:
                    if len(record) < 2:
                        raise ParseError("header needs an id column and at least one study", lineno)
                    n_studies = len(record) - 1
                    continue
                if len(record) != n_studies + 1:
                    raise ParseError(
                        f"expected {n_studies + 1} cells, got {len(record)}", lineno
                    )
                if record[0] in ids:
                    raise DuplicateIdentifier(record[0], lineno)
                ids[record[0]] = None
                rows.append(_parse_cells(record, lineno, len(ids)))
        except csv.Error as exc:
            raise ParseError(str(exc), reader.line_num) from None
    if n_studies is None or not rows:
        raise ParseError("no data rows found")
    # file rows are hypotheses; the internal layout is studies x hypotheses
    return validate_matrix(np.array(rows, dtype=np.float64).T, ids=ids)


def _parse_cells(record: list[str], lineno: int, row: int) -> list[float]:
    parsed: list[float] = []
    for col, token in enumerate(record[1:], start=1):
        token = token.strip()
        if token == _MISSING_TOKEN:
            parsed.append(math.nan)
            continue
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"bad p-value token {token!r} in column {col + 1}", lineno) from None
        if math.isnan(value):
            raise ParseError(
                f"bad p-value token {token!r} in column {col + 1}; "
                f"write {_MISSING_TOKEN} for a missing entry",
                lineno,
            )
        if not (0.0 <= value <= 1.0):
            raise OutOfRangeEntry(row, col, value)
        parsed.append(value)
    return parsed


def _capped(values: NDArray) -> list[str]:
    """Reported p-values: capped at 1 for display, NaN as NA."""
    return list(map(format_float, np.minimum(values, 1.0).tolist()))


def _flags(values: NDArray) -> list[str]:
    return ["1" if v else "0" for v in values.tolist()]


def cmd_test(args: argparse.Namespace) -> int:
    """Run one procedure on an input matrix and write the per-hypothesis TSV."""
    alpha = 0.05 if args.alpha is None else args.alpha
    combiner = None if args.combiner is None else PCCombinerKind(args.combiner)
    proc = Procedure(ProcedureKind(args.method), alpha, combiner)

    matrix = ingest_csv(args.input)
    stats = _filter_select(matrix, args.r)
    result = run_procedure(matrix, args.r, proc)

    columns = {
        "id": matrix.ids,
        "filter_p": _capped(stats.filter_p),
        "select_p": _capped(stats.select_p),
    }
    if combiner is not None:
        columns["pc_pvalue"] = _capped(matrix.pc_pvalues(args.r, combiner))
    columns["rejected"] = _flags(result.rejected)
    columns["untestable"] = _flags(result.untestable)
    with atomic_output(args.output) as fh:
        write_columns(fh, columns)

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
    reports = [run_panel(sc, procedures, threads=threads) for sc in scenarios]
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
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
