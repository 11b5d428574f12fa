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

from .pc_core import PCCombinerKind, PValueMatrix
from .procedures import (
    DecisionResult,
    Procedure,
    ProcedureKind,
    _check_alpha,
    _decision,
    adafilter_bh,
    adafilter_bonferroni,
    compute_filter_select,
)

__all__ = [
    "AdjustmentKind",
    "DirectProcedureSpec",
    "run_procedure",
    "direct_adjust",
    "bh_stepup",
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
        return adafilter_bonferroni(compute_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.ADAFILTER_BH:
        return adafilter_bh(compute_filter_select(matrix, r), proc.alpha)
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
    ascending = np.sort(pvalues)
    k_star = _bh_count(ascending, alpha)
    if k_star == 0:
        return np.zeros(pvalues.shape[0], dtype=bool), 0.0
    cutoff = float(ascending[k_star - 1])
    return pvalues <= cutoff, cutoff


def _bh_count(ascending: NDArray[np.float64], alpha: float) -> int:
    """Step-up rejection count: the largest k with P_(k) <= alpha * (k/m), else 0."""
    m = ascending.shape[0]
    ok = np.flatnonzero(ascending <= alpha * (np.arange(1, m + 1) / m))
    return int(ok[-1]) + 1 if ok.size else 0


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

    # untestable columns have NaN PC p-values, which stay NaN when adjusted
    pc = matrix.pc_pvalues(r, spec.combiner)
    # r <= max n_j, so at least one column is testable
    m_t = int(np.count_nonzero(testable))
    if spec.adjustment is AdjustmentKind.BONFERRONI:
        method = ProcedureKind.DIRECT_BONFERRONI
        cutoff = alpha / m_t
        adjusted = np.minimum(1.0, pc * m_t)
    else:
        method = ProcedureKind.DIRECT_BH
        # allocated before the sort's temporaries: allocated after them, this
        # long-lived array raised peak RSS by about 15 MB at M = 1e6
        adjusted = np.full(pc.shape[0], np.nan)
        # one sort gives both the step-up cutoff and the adjusted values; the
        # untestable columns sort last as +inf (argsort is several times
        # slower on an array holding NaN)
        order = np.argsort(np.where(testable, pc, np.inf))[:m_t]
        ascending = pc[order]
        k_star = _bh_count(ascending, alpha)
        # when nothing is rejected the cutoff is 0.0 and no P is 0 (a 0 is
        # always rejected), so P <= cutoff reproduces the step-up's mask
        cutoff = float(ascending[k_star - 1]) if k_star else 0.0
        # running minimum of m*P_(i)/i from the top; within a block of ties it
        # equals its value at the block's last position, so any tie order
        # gives the same values
        scaled = ascending * (m_t / np.arange(1, m_t + 1))
        adjusted[order] = np.minimum(1.0, np.minimum.accumulate(scaled[::-1])[::-1])
    return _decision(method, alpha, cutoff, pc, testable, adjusted)

