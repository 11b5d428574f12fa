"""The file edge, the only module that knows the file formats.

It reads CSV p-value matrices and scenario files, and writes the decisions
table of `adafilter test`, the curves table and the metrics table. Inputs
are UTF-8. Output tables are tab-separated with LF endings and put in place
only once complete; floats carry 12 significant digits, flags are 1/0, and
NA is a missing value both ways.
"""
from __future__ import annotations

import contextlib
import csv
import math
import os
import stat
import sys
import warnings
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import MISSING, fields

import numpy as np
from numpy.typing import NDArray

from .errors import DuplicateIdentifier, OutOfRangeEntry, ParseError
from .pc_core import PValueMatrix, validate_matrix
from .procedures import CurveTable, DecisionResult, FilterSelectStats
from .simlab import MetricsReport, ProcedureMetrics, SimScenario

__all__ = [
    "ingest_csv",
    "load_scenarios",
    "open_input",
    "atomic_output",
    "write_columns",
    "format_float",
    "write_decisions_tsv",
    "write_metrics_tsv",
    "write_curves_tsv",
]

_MISSING_TOKEN = "NA"
_CHUNK_CHARS = 1 << 20  # characters of whole lines per bulk read


def ingest_csv(path: str) -> PValueMatrix:
    """Read a CSV p-value matrix: header row of study names, one row per hypothesis.

    The first column holds hypothesis identifiers; remaining cells are
    decimal p-values or the literal token NA for missing. File rows become
    columns of the internal study-by-hypothesis matrix. A file the bulk pass
    cannot vouch for (quoted cells, any bad cell) is read again cell by cell,
    which gives the same matrix or the error naming the offending line.
    """
    matrix = _ingest_bulk(path)
    return _ingest_per_cell(path) if matrix is None else matrix


def _ingest_bulk(path: str) -> PValueMatrix | None:
    """The matrix through np.loadtxt, one chunk of lines at a time, or None.

    The file is read with universal newlines, so CR and CRLF line endings end
    lines where csv.reader ends records. Each chunk's ids are split off and
    its NA cells become nan before loadtxt parses it. The result is returned
    only when it must equal the per-cell reader's:
    - no NUL character, no line longer than the csv field limit, and no
      quote except pairs that wrap a whole header or id cell (R's write.csv
      layout), so every line splits on its commas as csv.reader splits it;
    - every row has as many cells as the header;
    - there is one NaN per NA cell and no other, so a literal nan never
      passes as missing;
    - loadtxt gave no warning (it warns on a chunk without data rows), and
      validate_matrix finds every other value in [0, 1] and the ids unique.
      Its EmptyColumn, which it checks last, is the per-cell reader's too.
    """
    limit = csv.field_size_limit()

    def plain(text: str, lines: list[str]) -> bool:
        return "\0" not in text and max(map(len, lines)) <= limit

    ids: list[str] = []
    blocks: list[NDArray] = []
    missing = commas = 0
    with open_input(path) as fh, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header = next((line for line in fh if line != "\n"), "")
        n_studies = header.count(",")
        header_cells = _unquoted(header.rstrip("\n").split(","), header.count('"'))
        if n_studies == 0 or header_cells is None or not plain(header, [header]):
            return None
        try:
            for lines in iter(lambda: fh.readlines(_CHUNK_CHARS), []):
                text = "".join(lines)
                chunk_ids = [line.partition(",")[0] for line in lines if line != "\n"]
                if '"' in text:
                    chunk_ids = _unquoted(chunk_ids, text.count('"'))
                if not plain(text, lines) or chunk_ids is None:
                    return None
                ids += chunk_ids
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
    if values.shape != (m, n_studies) or np.count_nonzero(np.isnan(values)) != missing:
        return None
    try:
        return validate_matrix(values.T, ids=ids)
    except (OutOfRangeEntry, DuplicateIdentifier):  # the per-cell reader names the line
        return None


def _unquoted(cells: list[str], quotes: int) -> list[str] | None:
    """The cells as csv.reader reads them, where the text they come from holds
    `quotes` quote characters; None unless each of those is one of a pair
    that wraps a whole cell."""
    out = [c[1:-1] if len(c) > 1 and c[0] == c[-1] == '"' else c for c in cells]
    unwrapped = sum(len(c) - len(o) for c, o in zip(cells, out))
    return out if unwrapped == quotes else None


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


# Scenario files: "key = value" lines and # comments. The keys are the SimScenario
# fields, required where there is no default, int where annotated "int", else float.
# n and r lists are paired, pi0 and block_size lists crossed, power_targets 4 values.
_SCENARIO_TYPES = {f.name: int if f.type == "int" else float for f in fields(SimScenario)}
_SCENARIO_COLUMNS = tuple(f.name for f in fields(SimScenario) if f.default is MISSING)
_SCENARIO_LISTS = ("n", "r", "pi0", "block_size", "power_targets")


def load_scenarios(path: str) -> list[SimScenario]:
    """Parse a scenario file, expanding list-valued keys into a scenario grid."""
    raw: dict[str, tuple[str, int]] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(f"expected 'key = value', got {text!r}", lineno)
            key, _, value = (part.strip() for part in text.partition("="))
            if key not in _SCENARIO_TYPES:
                raise ParseError(f"unknown scenario key {key!r}", lineno)
            if key in raw:
                raise ParseError(f"duplicate scenario key {key!r}", lineno)
            if not value:
                raise ParseError(f"empty value for {key!r}", lineno)
            raw[key] = value, lineno
    missing = sorted(set(_SCENARIO_COLUMNS) - raw.keys())
    if missing:
        raise ParseError(f"missing scenario keys: {', '.join(missing)}")
    values: dict[str, object] = {}
    for key, (text, lineno) in raw.items():
        tokens = [t.strip() for t in text.split(",")] if key in _SCENARIO_LISTS else [text]
        if key == "power_targets" and len(tokens) != 4:
            raise ParseError("power_targets needs exactly 4 values", lineno)
        parsed = []
        for token in tokens:
            try:
                parsed.append(_SCENARIO_TYPES[key](token))
            except ValueError:
                raise ParseError(f"bad value {token!r} for {key!r}", lineno) from None
        values[key] = tuple(parsed) if key in _SCENARIO_LISTS else parsed[0]
    n_list, r_list, pi0_list, block_list = (values.pop(key) for key in _SCENARIO_LISTS[:4])
    if len(n_list) != len(r_list):
        raise ParseError(
            f"n and r lists must pair up, got {len(n_list)} and {len(r_list)} entries", raw["n"][1]
        )
    return [
        SimScenario(n=n, r=r, pi0=pi0, block_size=block_size, **values)
        for n, r in zip(n_list, r_list) for pi0 in pi0_list for block_size in block_list
    ]


@contextlib.contextmanager
def open_input(path: str, newline: str | None = None) -> Iterator:
    """Open a UTF-8 text input; an undecodable byte becomes a ParseError naming its line."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str) -> ParseError:
    # the text layer decodes ahead in chunks, so a second pass finds the line
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ParseError(
                    f"byte {line[exc.start]:#04x} in column {exc.start + 1} is not UTF-8", lineno
                )
    return ParseError("input is not UTF-8")


@contextlib.contextmanager
def atomic_output(path: str | os.PathLike) -> Iterator:
    """Open an output table for writing (UTF-8, LF); it replaces `path` only on success.

    The text goes to a temporary file beside the destination, renamed over it
    on success and deleted on any exception, so a failed run leaves a previous
    file untouched. New files get the mode a plain open() gives, replaced files
    keep theirs, and a symlink's target is replaced. The process's own stdout,
    also when redirected to a file, is written through its descriptor so that
    later prints follow the table; other non-regular files (a FIFO) directly.
    """
    try:
        st = os.stat(path)
    except FileNotFoundError:
        st = None
    if st is not None and _is_stdout(st):
        sys.stdout.flush()
        with open(sys.stdout.fileno(), "w", encoding="utf-8", newline="", closefd=False) as fh:
            yield fh
        return
    if st is not None and not stat.S_ISREG(st.st_mode):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _is_stdout(st: os.stat_result) -> bool:
    """Whether st is the file behind sys.stdout; a stdout without a descriptor is not."""
    try:
        return os.path.samestat(st, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):
        return False


def write_columns(fh, columns: Mapping[str, NDArray | Sequence[str]]) -> None:
    """Write a TSV table: the keys as header, then one row per position of the columns.

    An ndarray column is formatted by its dtype: floats through format_float,
    booleans as 1/0, anything else through str. Any other column is a
    sequence of strings, written as is.
    """
    cells = [_formatted(column) for column in columns.values()]
    fh.write("\t".join(columns) + "\n")
    fh.writelines("\t".join(row) + "\n" for row in zip(*cells))


def _formatted(column: NDArray | Sequence[str]) -> Sequence[str]:
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind == "b":
        return np.where(column, "1", "0").tolist()
    return list(map(format_float if column.dtype.kind == "f" else str, column.tolist()))


def format_float(x: float) -> str:
    """TSV float formatting: 12 significant digits, NaN as NA."""
    return _MISSING_TOKEN if x != x else "%.12g" % x


# replications is a scenario column already
_PROCEDURE_COLUMNS = tuple(f.name for f in fields(ProcedureMetrics) if f.name != "replications")


def _cell(value: object) -> str:
    # per value: an array of mixed ints would turn a 64-bit seed into a float
    return format_float(value) if isinstance(value, float) else str(value)


def write_decisions_tsv(
    ids: Sequence[str], stats: FilterSelectStats, pc_pvalues: NDArray | None,
    result: DecisionResult, fh,
) -> None:
    """One row per hypothesis: id, F and S capped at 1, the PC p-value if given, and the flags."""
    columns = {
        "id": ids,
        "filter_p": np.minimum(stats.filter_p, 1.0),
        "select_p": np.minimum(stats.select_p, 1.0),
    }
    if pc_pvalues is not None:
        columns["pc_pvalue"] = pc_pvalues
    columns["rejected"] = result.rejected
    columns["untestable"] = result.untestable
    write_columns(fh, columns)


def write_metrics_tsv(reports: list[MetricsReport], fh) -> None:
    """One row per (scenario, procedure); tab-separated, '.' decimals, LF endings."""
    rows = [(report.scenario, pm) for report in reports for pm in report.metrics]
    columns = {name: [_cell(getattr(sc, name)) for sc, _ in rows] for name in _SCENARIO_COLUMNS}
    for name in _PROCEDURE_COLUMNS:
        columns[name] = [_cell(getattr(pm, name)) for _, pm in rows]
    write_columns(fh, columns)


def write_curves_tsv(table: CurveTable, fh) -> None:
    """One row per grid point: gamma, v_hat and fdp_hat."""
    write_columns(fh, {name: getattr(table, name) for name in ("gamma", "v_hat", "fdp_hat")})
