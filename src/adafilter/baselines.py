"""Direct multiple-testing baselines on partial-conjunction p-values.

The direct approach computes one PC p-value per hypothesis with a chosen
combiner and then applies a standard correction across the M_t testable
hypotheses: Bonferroni (reject P <= alpha/M_t) or the BH step-up. These are
the comparators the adaptive procedures are measured against; they pay the
full multiplicity cost upfront and are typically very conservative.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .pc_core import PCCombinerKind, PValueMatrix
from .procedures import (
    DecisionResult,
    Procedure,
    ProcedureKind,
    _check_alpha,
    _decision,
    _filter_select,
    adafilter_bh,
    adafilter_bonferroni,
)

__all__ = [
    "AdjustmentKind",
    "DirectProcedureSpec",
    "run_procedure",
    "direct_adjust",
    "bh_stepup",
    "pfer_bound",
]


class AdjustmentKind(Enum):
    BONFERRONI = "bonferroni"
    BH = "bh"


@dataclass(frozen=True)
class DirectProcedureSpec:
    """One direct procedure: a PC combiner plus a correction at level alpha."""

    combiner: PCCombinerKind
    adjustment: AdjustmentKind
    alpha: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)


def run_procedure(matrix: PValueMatrix, r: int, proc: Procedure) -> DecisionResult:
    """Run one procedure on a p-value matrix at replicability level r."""
    if proc.kind is ProcedureKind.ADAFILTER_BONFERRONI:
        return adafilter_bonferroni(_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.ADAFILTER_BH:
        return adafilter_bh(_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.DIRECT_BONFERRONI:
        adjustment = AdjustmentKind.BONFERRONI
    else:
        adjustment = AdjustmentKind.BH
    return direct_adjust(matrix, r, DirectProcedureSpec(proc.combiner, adjustment, proc.alpha))


def bh_stepup(pvalues: NDArray[np.float64], alpha: float) -> tuple[NDArray[np.bool_], float]:
    """Classic BH step-up on a 1-d array of p-values.

    Returns the rejection mask and the p-value cutoff actually applied
    (0.0 when nothing is rejected). Ties at the cutoff are all rejected.
    """
    m = pvalues.shape[0]
    order = np.sort(pvalues)
    thresholds = alpha * (np.arange(1, m + 1) / m)
    ok = order <= thresholds
    if not ok.any():
        return np.zeros(m, dtype=bool), 0.0
    k_star = int(np.flatnonzero(ok)[-1]) + 1
    cutoff = float(order[k_star - 1])
    return pvalues <= cutoff, cutoff


def direct_adjust(matrix: PValueMatrix, r: int, spec: DirectProcedureSpec) -> DecisionResult:
    """Run one direct procedure on a p-value matrix at replicability level r.

    PC p-values are computed per testable column (n_j >= r) with the
    requested combiner; untestable columns are excluded from the correction
    and never rejected. gamma0 reports the PC p-value cutoff in use and
    adjusted holds standard adjusted p-values (min(1, M_t * P) for
    Bonferroni, the monotone step-up adjustment for BH).
    """
    testable = matrix.testable(r)
    alpha = float(spec.alpha)

    pc = matrix.pc_pvalues(r, spec.combiner)
    # r <= max n_j, so at least one column is testable
    p_test = pc[testable]
    m_t = p_test.shape[0]
    adjusted = np.full(pc.shape[0], np.nan)
    if spec.adjustment is AdjustmentKind.BONFERRONI:
        method = ProcedureKind.DIRECT_BONFERRONI
        cutoff = alpha / m_t
        adjusted[testable] = np.minimum(1.0, p_test * m_t)
    else:
        method = ProcedureKind.DIRECT_BH
        # when nothing is rejected the cutoff is 0.0 and no P is 0 (a 0 is
        # always rejected), so P <= cutoff reproduces the step-up's mask
        _, cutoff = bh_stepup(p_test, alpha)
        adjusted[testable] = _bh_adjusted_pvalues(p_test)
    return _decision(method, alpha, cutoff, pc, testable, adjusted)


def _bh_adjusted_pvalues(pvalues: NDArray[np.float64]) -> NDArray[np.float64]:
    """Standard BH adjusted p-values: running minimum of m*P_(i)/i from the top.

    Within a block of tied p-values the running minimum equals its value at
    the block's last position, so any order of the ties gives the same output.
    """
    m = pvalues.shape[0]
    order = np.argsort(pvalues)
    scaled = pvalues[order] * (m / np.arange(1, m + 1))
    adj = np.minimum.accumulate(scaled[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(1.0, adj)
    return out


def pfer_bound(counts: object, alpha: float, m: int, n: int) -> float:
    """Upper bound on the expected false rejections of direct Bonferroni at r = n.

    counts[k] is the number of hypotheses with exactly k non-null studies,
    for k = 0..n-1; the bound is sum_k counts[k] * (alpha/m)^(n-k). The
    k = n-1 term dominates: those hypotheses need a single null study to
    clear the threshold by chance.
    """
    c = np.asarray(counts, dtype=np.float64)
    if c.ndim != 1 or c.shape[0] != n:
        raise ValidationError(f"expected {n} counts (k = 0..n-1), got shape {c.shape}")
    if np.any(c < 0) or np.any(~np.isfinite(c)):
        raise ValidationError("counts must be finite and nonnegative")
    if c.sum() > m:
        raise ValidationError("counts sum to more than the number of hypotheses")
    if m < 1 or not (0.0 < float(alpha) <= 1.0):
        raise ValidationError("need m >= 1 and alpha in (0, 1]")
    base = float(alpha) / m
    powers = base ** (n - np.arange(n, dtype=np.float64))
    return float(np.dot(c, powers))
