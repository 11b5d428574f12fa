"""Shared randomized-instance generators for the test suite.

The generator deliberately mixes uniform noise, shrunken signal columns,
heavy ties from rounding, exact boundary values 0 and 1, and missing
entries, because threshold procedures live and die at ties and grid
boundaries.
"""
from __future__ import annotations

import numpy as np

import adafilter as af


def random_matrix(rng: np.random.Generator, max_m: int = 50, max_n: int = 8):
    """Random p-value matrix and a compatible replicability level.

    Returns (PValueMatrix, r), or None when every column lost too many
    entries to stay testable.
    """
    m = int(rng.integers(1, max_m + 1))
    n = int(rng.integers(2, max_n + 1))
    r = int(rng.integers(2, n + 1))

    p = rng.random((n, m))
    signal = rng.random((n, m)) < 0.3
    scale = rng.choice([1e-6, 1e-3, 0.05], size=(n, m))
    p = np.where(signal, p * scale, p)
    if rng.random() < 0.5:
        p = np.round(p, 2)
    if rng.random() < 0.3:
        spike = rng.random((n, m)) < 0.05
        p = np.where(spike, rng.choice([0.0, 1.0], size=(n, m)), p)
    if rng.random() < 0.3:
        missing = rng.random((n, m)) < 0.2
        alive = missing.sum(axis=0) < n
        p, missing = p[:, alive], missing[:, alive]
        if p.shape[1] == 0:
            return None
        p = np.where(missing, np.nan, p)

    mat = af.PValueMatrix(values=p)
    if not (mat.n_per_hyp >= r).any():
        return None
    return mat, r


def random_stats(rng: np.random.Generator, max_m: int = 50, max_n: int = 8):
    """Random FilterSelectStats instance, or None (see random_matrix)."""
    inst = random_matrix(rng, max_m=max_m, max_n=max_n)
    if inst is None:
        return None
    mat, r = inst
    return af.compute_filter_select(mat, r)


def random_alpha(rng: np.random.Generator) -> float:
    """Alpha levels covering round values, log-uniform draws, and 1."""
    u = rng.random()
    if u < 0.4:
        return float(rng.choice([0.01, 0.05, 0.1, 0.2, 0.5, 1.0]))
    if u < 0.8:
        return float(10.0 ** rng.uniform(-5.0, 0.0))
    return float(rng.uniform(0.0, 1.0)) or 0.5


def results_equal(a: af.DecisionResult, b: af.DecisionResult) -> bool:
    """Bit-level agreement of threshold, filtered count, and decisions."""
    return (
        a.gamma0 == b.gamma0
        and a.filtered_count == b.filtered_count
        and np.array_equal(a.rejected, b.rejected)
        and np.array_equal(a.untestable, b.untestable)
    )


def adafilter_bonferroni_twostep(stats: af.FilterSelectStats, alpha: float) -> af.DecisionResult:
    """Two-step form of the adaptive Bonferroni procedure, an oracle for it.

    Sort the filtering p-values, find m' = min{j : alpha/j < F_(j)} (m' = M_t
    when the set is empty), then keep m = m' if F_(m') <= alpha/(m'-1) and
    back off to m = m'-1 otherwise. The threshold is alpha/m. At m' = 1 the
    back-off guard has no meaning and m = m' is taken; that choice is what
    makes the result agree with adafilter_bonferroni on every input.
    """
    alpha = float(alpha)
    fs = np.sort(stats.filter_p[stats.testable])
    m_t = fs.shape[0]
    thresholds = alpha / np.arange(1, m_t + 1)
    exceed = fs > thresholds
    if exceed.any():
        m_prime = int(np.argmax(exceed)) + 1
        if m_prime == 1:
            m = 1
        elif fs[m_prime - 1] <= float(thresholds[m_prime - 2]):
            m = m_prime
        else:
            m = m_prime - 1
    else:
        m = m_t
    gamma0 = alpha / m
    return af.DecisionResult(
        method=af.ProcedureKind.ADAFILTER_BONFERRONI,
        alpha=alpha,
        gamma0=gamma0,
        filtered_count=m,
        rejected=stats.testable & (stats.select_p <= gamma0),
        untestable=~stats.testable,
        adjusted=np.minimum(1.0, stats.select_p * m),
    )


def read_outcome(read, path: str):
    """What a CSV reader makes of a file: the matrix's value bits, shape and ids,
    or the type and message of the exception it raised."""
    try:
        matrix = read(path)
    except Exception as exc:  # every exception is compared, not only the expected ones
        return type(exc), str(exc)
    return matrix.values.tobytes(), matrix.values.shape, matrix.ids
