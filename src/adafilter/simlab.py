"""Monte Carlo laboratory for the multiple-testing procedures.

One scenario describes a synthetic panel: M hypotheses tested in n studies,
a truth law giving each hypothesis a per-study non-null pattern, and
block-correlated Gaussian Z-values whose non-null means are calibrated to
hit named detection powers. run_panel replays B independent replications,
runs every requested procedure on the same draws, and reports PFER, FDR and
recall with normal-approximation confidence intervals.

Randomness is counter-based (Philox) and keyed by
(master_seed, replication, stream), where stream 0 draws the truth
assignment and stream i+1 drives study i. Replications are therefore
independent and results do not depend on how work is scheduled.
"""
from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
import stat
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import NoConvergence, ParseError, ValidationError
from .pc_core import PCCombinerKind, PValueMatrix
from .procedures import CurveTable, Procedure, ProcedureKind
from .baselines import run_procedure

__all__ = [
    "SimScenario",
    "TruthAssignment",
    "ProcedureMetrics",
    "MetricsReport",
    "default_panel_procedures",
    "calibrate_mu",
    "sample_truth",
    "sample_pvalues",
    "run_panel",
    "load_scenarios",
    "write_metrics_tsv",
    "write_curves_tsv",
    "format_float",
    "write_columns",
    "atomic_output",
    "open_input",
]


@dataclass(frozen=True)
class SimScenario:
    """Full description of one synthetic experiment cell."""

    M: int
    n: int
    r: int
    pi0: float
    pi_rn: float
    rho: float
    block_size: int
    replications: int
    master_seed: int
    power_targets: tuple[float, float, float, float] = (0.02, 0.2, 0.5, 0.95)
    calibration_alpha: float | None = None

    def __post_init__(self) -> None:
        if self.M < 1:
            raise ValidationError(f"M must be >= 1, got {self.M}")
        if not (2 <= self.r <= self.n):
            raise ValidationError(f"need 2 <= r <= n, got r={self.r}, n={self.n}")
        for name in ("pi0", "pi_rn"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValidationError(f"{name} must be in [0, 1], got {v}")
        if self.pi0 + self.pi_rn > 1.0 + 1e-12:
            raise ValidationError("pi0 + pi_rn must not exceed 1")
        if not (0.0 <= self.rho < 1.0):
            raise ValidationError(f"rho must be in [0, 1), got {self.rho}")
        if self.block_size < 1 or self.M % self.block_size != 0:
            raise ValidationError(
                f"block_size must be >= 1 and divide M, got {self.block_size} for M={self.M}"
            )
        if self.replications < 1:
            raise ValidationError(f"replications must be >= 1, got {self.replications}")
        if not (0 <= self.master_seed < 2**64):
            raise ValidationError("master_seed must be a 64-bit nonnegative integer")
        if len(self.power_targets) != 4 or any(not (0.0 < p < 1.0) for p in self.power_targets):
            raise ValidationError("power_targets must be four values in (0, 1)")
        if self.calibration_alpha is not None and not (0.0 < self.calibration_alpha < 1.0):
            raise ValidationError("calibration_alpha must be in (0, 1)")

    @property
    def effective_calibration_alpha(self) -> float:
        """Per-test level at which the detection powers are measured (default 0.05/M)."""
        if self.calibration_alpha is not None:
            return float(self.calibration_alpha)
        return 0.05 / self.M


@dataclass(frozen=True)
class TruthAssignment:
    """Per-study non-null indicators, one column per hypothesis."""

    nonnull: NDArray[np.bool_]
    r: int

    @property
    def pc_nonnull(self) -> NDArray[np.bool_]:
        """True where at least r studies are non-null (the PC null is false)."""
        return np.count_nonzero(self.nonnull, axis=0) >= self.r


@dataclass(frozen=True)
class ProcedureMetrics:
    procedure: str
    alpha: float
    pfer_mean: float
    pfer_ci95: float
    fdr_mean: float
    fdr_ci95: float
    recall_mean: float
    recall_ci95: float
    replications: int


@dataclass(frozen=True)
class MetricsReport:
    scenario: SimScenario
    metrics: tuple[ProcedureMetrics, ...]


def default_panel_procedures(
    alpha_pfer: float = 1.0, alpha_fdr: float = 0.2
) -> tuple[Procedure, ...]:
    """Both adaptive procedures plus all six direct baselines.

    PFER-type procedures (Bonferroni corrections) run at alpha_pfer and
    FDR-type procedures (BH corrections) at alpha_fdr.
    """
    procs = [
        Procedure(ProcedureKind.ADAFILTER_BONFERRONI, alpha_pfer),
        Procedure(ProcedureKind.ADAFILTER_BH, alpha_fdr),
    ]
    for comb in (PCCombinerKind.SIMES, PCCombinerKind.FISHER, PCCombinerKind.BONFERRONI):
        procs.append(Procedure(ProcedureKind.DIRECT_BONFERRONI, alpha_pfer, comb))
        procs.append(Procedure(ProcedureKind.DIRECT_BH, alpha_fdr, comb))
    return tuple(procs)


def _stream(master_seed: int, rep: int, stream_id: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep, stream_id))
    return np.random.Generator(np.random.Philox(seq))


def calibrate_mu(power: float, calibration_alpha: float) -> float:
    """Mean shift mu >= 0 whose two-sided test at calibration_alpha has the given power.

    Solves ndtr(-z - mu) + ndtr(mu - z) = power with z the upper
    calibration_alpha/2 normal quantile, by bisection to |delta power| <= 1e-10.
    """
    # scipy is imported by the lab alone, so that test and curve start without it
    from scipy.special import ndtr, ndtri

    if not (0.0 < power < 1.0):
        raise ValidationError(f"power must be in (0, 1), got {power}")
    if not (0.0 < calibration_alpha < 1.0):
        raise ValidationError(f"calibration_alpha must be in (0, 1), got {calibration_alpha}")
    z = -float(ndtri(calibration_alpha / 2.0))

    def gap(mu: float) -> float:
        return float(ndtr(-z - mu) + ndtr(mu - z)) - power

    g0 = gap(0.0)
    if abs(g0) <= 1e-10:
        return 0.0
    if g0 > 0:
        raise NoConvergence(
            f"target power {power} is below the level {calibration_alpha} of the test"
        )
    hi = 1.0
    for _ in range(60):
        if gap(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise NoConvergence("failed to bracket the power equation root")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = gap(mid)
        if abs(val) <= 1e-10:
            return mid
        if val < 0.0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence("bisection did not reach the power tolerance")


@lru_cache(maxsize=None)
def _calibrated_mus(powers: tuple[float, ...], calibration_alpha: float) -> tuple[float, ...]:
    return tuple(calibrate_mu(p, calibration_alpha) for p in powers)


def sample_truth(scenario: SimScenario, rep: int) -> TruthAssignment:
    """Draw the per-hypothesis truth vectors for one replication.

    The all-null vector has probability pi0; the vectors with >= r non-null
    studies share pi_rn equally; the remaining vectors share what is left
    equally. Columns are i.i.d.
    """
    g = _stream(scenario.master_seed, rep, 0)
    n, r, m = scenario.n, scenario.r, scenario.M
    p_mid = max(0.0, 1.0 - scenario.pi0 - scenario.pi_rn)
    cat = g.choice(3, size=m, p=np.array([scenario.pi0, p_mid, scenario.pi_rn]))

    k_counts = np.zeros(m, dtype=np.int64)
    for category, ks in ((1, np.arange(1, r)), (2, np.arange(r, n + 1))):
        idx = np.flatnonzero(cat == category)
        if idx.size:
            w = np.array([math.comb(n, int(k)) for k in ks], dtype=np.float64)
            k_counts[idx] = g.choice(ks, size=idx.size, p=w / w.sum())

    # a uniformly random subset of k_j studies per column, via uniform ranks
    u = g.random((n, m))
    ranks = np.argsort(np.argsort(u, axis=0, kind="stable"), axis=0, kind="stable")
    nonnull = ranks < k_counts[None, :]
    nonnull.setflags(write=False)
    return TruthAssignment(nonnull=nonnull, r=r)


def sample_pvalues(truth: TruthAssignment, scenario: SimScenario, rep: int) -> PValueMatrix:
    """Draw the p-value matrix for one replication given the truth assignment.

    Studies are independent. Within study i the Z-values are unit-variance
    Gaussians with correlation rho inside contiguous blocks of block_size
    hypotheses (Z = sqrt(rho) * W_block + sqrt(1-rho) * noise + mean). Each
    non-null (i, j) gets a mean drawn uniformly from the eight values
    +-mu_1..mu_4; p = 2 * Phi(-|Z|).
    """
    from scipy.special import erfc

    n, m, b = scenario.n, scenario.M, scenario.block_size
    mus = np.array(
        _calibrated_mus(tuple(scenario.power_targets), scenario.effective_calibration_alpha)
    )
    sq_blk = math.sqrt(scenario.rho)
    sq_own = math.sqrt(1.0 - scenario.rho)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    values = np.empty((n, m), dtype=np.float64)
    for i in range(n):
        g = _stream(scenario.master_seed, rep, i + 1)
        w = g.standard_normal(m // b)
        eps = g.standard_normal(m)
        pick = g.integers(0, 8, size=m)
        z = sq_blk * np.repeat(w, b) + sq_own * eps
        mean = mus[pick >> 1] * np.where(pick & 1, 1.0, -1.0)
        z += np.where(truth.nonnull[i], mean, 0.0)
        values[i] = erfc(np.abs(z) * inv_sqrt2)
    values.setflags(write=False)
    return PValueMatrix(values=values, ids=None)


def _run_chunk(
    scenario: SimScenario, procedures: tuple[Procedure, ...], reps: range
) -> tuple[NDArray, NDArray, NDArray, NDArray]:
    """Worker: V, R, TP per procedure and the non-null PC count, per replication."""
    n_proc = len(procedures)
    v = np.zeros((len(reps), n_proc), dtype=np.int64)
    rr = np.zeros((len(reps), n_proc), dtype=np.int64)
    tp = np.zeros((len(reps), n_proc), dtype=np.int64)
    npc = np.zeros(len(reps), dtype=np.int64)
    for row, rep in enumerate(reps):
        truth = sample_truth(scenario, rep)
        matrix = sample_pvalues(truth, scenario, rep)
        pc_nonnull = truth.pc_nonnull
        npc[row] = int(np.count_nonzero(pc_nonnull))
        for col, proc in enumerate(procedures):
            rejected = run_procedure(matrix, scenario.r, proc).rejected
            v[row, col] = int(np.count_nonzero(rejected & ~pc_nonnull))
            rr[row, col] = int(np.count_nonzero(rejected))
            tp[row, col] = int(np.count_nonzero(rejected & pc_nonnull))
    return v, rr, tp, npc


def run_panel(
    scenario: SimScenario,
    procedures: tuple[Procedure, ...] | list[Procedure],
    threads: int = 1,
) -> MetricsReport:
    """Run every procedure on B replications and summarize the error metrics.

    Replications are split into contiguous chunks executed by worker
    processes when threads > 1. The chunks' per-replication statistics are
    joined in replication order, so the report is bit-identical for any
    thread count.
    """
    procedures = tuple(procedures)
    if not procedures:
        raise ValidationError("at least one procedure is required")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    b = scenario.replications
    # calibrate here, so that forked workers inherit scipy and the cached means
    # instead of each importing and calibrating on its own
    _calibrated_mus(tuple(scenario.power_targets), scenario.effective_calibration_alpha)
    n_chunks = min(int(threads), b)
    bounds = np.linspace(0, b, n_chunks + 1).astype(int)
    chunks = [range(bounds[i], bounds[i + 1]) for i in range(n_chunks)]
    if n_chunks == 1:
        results = [_run_chunk(scenario, procedures, chunks[0])]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_chunks) as pool:
            futures = [pool.submit(_run_chunk, scenario, procedures, ch) for ch in chunks]
            results = [fut.result() for fut in futures]
    v, rr, tp, npc = (np.concatenate(parts) for parts in zip(*results))

    pfer = v.astype(np.float64)
    fdr = v / np.maximum(rr, 1)
    recall = tp / np.maximum(npc, 1)[:, None]

    def mean_ci(per_rep: NDArray) -> tuple[NDArray, NDArray]:
        means = per_rep.mean(axis=0)
        if b > 1:
            half = 1.96 * per_rep.std(axis=0, ddof=1) / math.sqrt(b)
        else:
            half = np.full(len(procedures), np.nan)
        return means, half

    pfer_m, pfer_h = mean_ci(pfer)
    fdr_m, fdr_h = mean_ci(fdr)
    rec_m, rec_h = mean_ci(recall)
    metrics = tuple(
        ProcedureMetrics(
            procedure=proc.name,
            alpha=proc.alpha,
            pfer_mean=float(pfer_m[i]),
            pfer_ci95=float(pfer_h[i]),
            fdr_mean=float(fdr_m[i]),
            fdr_ci95=float(fdr_h[i]),
            recall_mean=float(rec_m[i]),
            recall_ci95=float(rec_h[i]),
            replications=b,
        )
        for i, proc in enumerate(procedures)
    )
    return MetricsReport(scenario=scenario, metrics=metrics)


# scenario files: flat "key = value" lines, # comments, keys matching SimScenario
# fields; n and r accept comma lists of equal length (paired), pi0 and
# block_size accept comma lists (crossed); power_targets is a 4-value list

_LIST_KEYS = {"n", "r", "pi0", "block_size"}
_INT_KEYS = {"M", "n", "r", "block_size", "replications", "master_seed"}
_REQUIRED_KEYS = {"M", "n", "r", "pi0", "pi_rn", "rho", "block_size", "replications", "master_seed"}
_ALL_KEYS = {f.name for f in fields(SimScenario)}


def load_scenarios(path: str) -> list[SimScenario]:
    """Parse a scenario file, expanding list-valued keys into a scenario grid."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ParseError(f"expected 'key = value', got {text!r}", lineno)
            key, _, value = text.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _ALL_KEYS:
                raise ParseError(f"unknown scenario key {key!r}", lineno)
            if key in raw:
                raise ParseError(f"duplicate scenario key {key!r}", lineno)
            if not value:
                raise ParseError(f"empty value for {key!r}", lineno)
            raw[key] = value
            lines[key] = lineno

    missing = sorted(_REQUIRED_KEYS - raw.keys())
    if missing:
        raise ParseError(f"missing scenario keys: {', '.join(missing)}")

    def parse_one(key: str, token: str) -> object:
        try:
            return int(token) if key in _INT_KEYS else float(token)
        except ValueError:
            raise ParseError(f"bad value {token!r} for {key!r}", lines.get(key)) from None

    values: dict[str, object] = {}
    for key, text in raw.items():
        if key == "power_targets":
            parts = [p.strip() for p in text.split(",")]
            if len(parts) != 4:
                raise ParseError("power_targets needs exactly 4 values", lines[key])
            values[key] = tuple(parse_one(key, p) for p in parts)
        elif key in _LIST_KEYS:
            values[key] = [parse_one(key, p.strip()) for p in text.split(",")]
        else:
            values[key] = parse_one(key, text)

    n_list = values["n"]
    r_list = values["r"]
    if len(n_list) != len(r_list):
        raise ParseError(
            f"n and r lists must pair up, got {len(n_list)} and {len(r_list)} entries",
            lines["n"],
        )
    pi0_list = values["pi0"]
    block_list = values["block_size"]

    fixed = {
        k: v
        for k, v in values.items()
        if k not in ("n", "r", "pi0", "block_size")
    }
    scenarios = []
    for n_val, r_val in zip(n_list, r_list):
        for pi0_val in pi0_list:
            for b_val in block_list:
                scenarios.append(
                    SimScenario(n=n_val, r=r_val, pi0=pi0_val, block_size=b_val, **fixed)
                )
    return scenarios


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


def write_columns(fh, columns: Mapping[str, Sequence[str]]) -> None:
    """Write a TSV table: the keys as header, then one row per position of the columns."""
    fh.write("\t".join(columns) + "\n")
    fh.writelines("\t".join(row) + "\n" for row in zip(*columns.values()))


def format_float(x: float) -> str:
    """TSV float formatting: 12 significant digits, NaN as NA."""
    return "NA" if x != x else "%.12g" % x


_SCENARIO_COLUMNS = ("M", "n", "r", "pi0", "pi_rn", "rho", "block_size", "replications", "master_seed")
_PROCEDURE_COLUMNS = (
    "procedure", "alpha", "pfer_mean", "pfer_ci95", "fdr_mean", "fdr_ci95", "recall_mean", "recall_ci95"
)


def _cell(value: object) -> str:
    return format_float(value) if isinstance(value, float) else str(value)


def write_metrics_tsv(reports: list[MetricsReport], fh) -> None:
    """One row per (scenario, procedure); tab-separated, '.' decimals, LF endings."""
    rows = [(report.scenario, pm) for report in reports for pm in report.metrics]
    columns = {name: [_cell(getattr(sc, name)) for sc, _ in rows] for name in _SCENARIO_COLUMNS}
    for name in _PROCEDURE_COLUMNS:
        columns[name] = [_cell(getattr(pm, name)) for _, pm in rows]
    write_columns(fh, columns)


def write_curves_tsv(table: CurveTable, fh) -> None:
    """One row per grid point: gamma, v_hat and fdp_hat."""
    write_columns(fh, {
        name: list(map(format_float, getattr(table, name).tolist()))
        for name in ("gamma", "v_hat", "fdp_hat")
    })
