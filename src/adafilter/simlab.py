"""Monte Carlo laboratory for the multiple-testing procedures.

One scenario describes a synthetic panel: M hypotheses tested in n studies,
a truth law giving each hypothesis a per-study non-null pattern, and
block-correlated Gaussian Z-values whose non-null means are calibrated to
hit named detection powers. run_panels replays B independent replications
of each scenario, runs every requested procedure on the same draws, and
reports PFER, FDR and recall with normal-approximation confidence intervals.
Scenario files are read, and metrics tables written, by `tables`.

Randomness is counter-based (Philox) and keyed by
(master_seed, replication, stream), where stream 0 draws the truth
assignment and stream i+1 drives study i. Replications are therefore
independent and results do not depend on how work is scheduled.
"""
from __future__ import annotations

import concurrent.futures
import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from .errors import NoConvergence, ValidationError
from .pc_core import PCCombinerKind, PValueMatrix, _sort_columns
from .procedures import Procedure, ProcedureKind, run_procedure

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
    "run_panels",
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

    nonnull = _lowest_k_mask(g.random((n, m)), k_counts)
    nonnull.setflags(write=False)
    return TruthAssignment(nonnull=nonnull, r=r)


def _lowest_k_mask(u: NDArray[np.float64], k_counts: NDArray[np.int64]) -> NDArray[np.bool_]:
    """True at the k_j smallest uniforms of each column j, ties broken by row.

    This is a uniformly random subset of k_j studies per column. A column
    with k_j = 0 stays all False, so only the columns with k_j > 0 are read.
    Without a tie in a column with k_j > 0 it is u <= (k_j-th smallest of
    column j), read from the sorted columns; if such a column holds a tie
    (nearly impossible with Philox doubles), it is rank < k_j with ranks from
    a stable argsort and a scatter.
    """
    cols = np.flatnonzero(k_counts)
    k = k_counts[cols]
    sub = np.take(u, cols, axis=1)
    ascending = sub.copy()
    _sort_columns(ascending)
    if not (ascending[1:] == ascending[:-1]).any():
        picked = sub <= ascending[k - 1, np.arange(cols.size)]
    else:
        order = np.argsort(sub, axis=0, kind="stable")
        picked = np.empty(sub.shape, dtype=bool)
        np.put_along_axis(picked, order, np.arange(u.shape[0])[:, None] < k, axis=0)
    mask = np.zeros(u.shape, dtype=bool)
    mask[:, cols] = picked
    return mask


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
        # all of pick is drawn, so the stream does not depend on the truth
        nz = np.flatnonzero(truth.nonnull[i])
        picked = pick[nz]
        z[nz] += mus[picked >> 1] * np.where(picked & 1, 1.0, -1.0)
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
    """Run every procedure on B replications of one scenario and summarize the error metrics.

    This is run_panels on one scenario, so up to `threads` forked workers run
    contiguous chunks of replications and the report is bit-identical for
    any thread count.
    """
    return next(run_panels([scenario], procedures, threads))


def run_panels(
    scenarios: Sequence[SimScenario],
    procedures: tuple[Procedure, ...] | list[Procedure],
    threads: int = 1,
) -> Iterator[MetricsReport]:
    """Run every procedure on every scenario; yield one report per scenario, in order.

    Each scenario's replications are split into min(threads, B) contiguous
    chunks. With more than one chunk anywhere, one pool of min(threads, max
    chunk count) worker processes takes every chunk at once, forked after
    every scenario's means are calibrated. Chunks are joined in replication
    order, so the reports are bit-identical for any thread count. A failing
    chunk ends the run with its error and cancels the chunks still queued.
    """
    procedures = tuple(procedures)
    if not procedures:
        raise ValidationError("at least one procedure is required")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    for sc in scenarios:
        _calibrated_mus(tuple(sc.power_targets), sc.effective_calibration_alpha)
    chunks = [_chunks(sc.replications, threads) for sc in scenarios]
    workers = max(map(len, chunks), default=1)
    if workers == 1:
        for sc, (reps,) in zip(scenarios, chunks):
            yield _report(sc, procedures, [_run_chunk(sc, procedures, reps)])
        return
    import multiprocessing  # here, so that test and curve start without it

    # fork even where the default is forkserver or spawn, so that workers
    # inherit scipy and the means; a fork pool forks before starting threads
    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if fork else None
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        futures = [
            [pool.submit(_run_chunk, sc, procedures, reps) for reps in sc_chunks]
            for sc, sc_chunks in zip(scenarios, chunks)
        ]
        try:
            for sc, sc_futures in zip(scenarios, futures):
                yield _report(sc, procedures, [fut.result() for fut in sc_futures])
        finally:
            for fut in itertools.chain.from_iterable(futures):
                fut.cancel()


def _chunks(replications: int, threads: int) -> list[range]:
    """min(threads, replications) contiguous, near-equal ranges of replications."""
    n_chunks = min(threads, replications)
    bounds = np.linspace(0, replications, n_chunks + 1).astype(int)
    return [range(bounds[i], bounds[i + 1]) for i in range(n_chunks)]


def _report(
    scenario: SimScenario,
    procedures: tuple[Procedure, ...],
    results: list[tuple[NDArray, NDArray, NDArray, NDArray]],
) -> MetricsReport:
    """PFER, FDR and recall with 95% intervals from the chunks' per-replication counts."""
    b = scenario.replications
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
