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
    """Run one procedure on a p-value matrix at replicability level r.

    Its callers read only the decisions, so it never builds adjusted values.
    """
    if proc.kind is ProcedureKind.ADAFILTER_BONFERRONI:
        return adafilter_bonferroni(compute_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.ADAFILTER_BH:
        return adafilter_bh(compute_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.DIRECT_BONFERRONI:
        adjustment = AdjustmentKind.BONFERRONI
    else:
        adjustment = AdjustmentKind.BH
    spec = DirectProcedureSpec(proc.combiner, adjustment, proc.alpha)
    return direct_adjust(matrix, r, spec, compute_adjusted=False)


def bh_stepup(pvalues: NDArray[np.float64], alpha: float) -> tuple[NDArray[np.bool_], float]:
    """Classic BH step-up on a 1-d array of p-values at a level alpha in (0, 1].

    Returns the rejection mask and the p-value cutoff actually applied
    (0.0 when nothing is rejected). Ties at the cutoff are all rejected.
    """
    cutoff = _bh_cutoff(pvalues, _check_alpha(alpha), len(pvalues))
    return pvalues <= cutoff, cutoff


def _bh_cutoff(pvalues: NDArray[np.float64], alpha: float, m: int) -> float:
    """BH step-up cutoff among m p-values: P_(k*) for the largest k* with
    P_(k*) <= alpha * (k*/m), else 0.0.

    It sorts only the P <= alpha, since P_(k) <= alpha * (k/m) implies
    P_(k) <= alpha; the first rungs of its ladder are the full ladder's floats.
    NaN fails P <= alpha, so it is never rejected, though m may count it.
    With alpha >= 0 a P = 0 is always rejected, so the cutoff 0.0 rejects none.
    """
    head = np.sort(pvalues[pvalues <= alpha])
    ok = np.flatnonzero(head <= alpha * (np.arange(1, head.shape[0] + 1) / m))
    return float(head[ok[-1]]) if ok.size else 0.0


def direct_adjust(
    matrix: PValueMatrix, r: int, spec: DirectProcedureSpec, compute_adjusted: bool = True
) -> DecisionResult:
    """Run one direct procedure on a p-value matrix at replicability level r.

    PC p-values are computed per testable column (n_j >= r) with the
    requested combiner; untestable columns are excluded from the correction
    and never rejected. gamma0 reports the PC p-value cutoff in use. With
    compute_adjusted (the default, which the benchmark's decision check
    reads), adjusted holds standard adjusted p-values (min(1, M_t * P) for
    Bonferroni, the monotone step-up adjustment for BH); without it adjusted
    is None and the decision costs one pass plus, for BH, a sort of the
    P <= alpha.
    """
    testable = matrix.testable(r)
    alpha = float(spec.alpha)

    # untestable columns have NaN PC p-values, which stay NaN when adjusted
    pc = matrix.pc_pvalues(r, spec.combiner)
    # r <= max n_j, so at least one column is testable
    m_t = int(np.count_nonzero(testable))
    adjusted = None
    if spec.adjustment is AdjustmentKind.BONFERRONI:
        method = ProcedureKind.DIRECT_BONFERRONI
        cutoff = alpha / m_t
        if compute_adjusted:
            adjusted = np.minimum(1.0, pc * m_t)
    else:
        method = ProcedureKind.DIRECT_BH
        cutoff = _bh_cutoff(pc, alpha, m_t)
        if compute_adjusted:
            # allocated before the argsort's temporaries: allocated after them,
            # this long-lived array raised peak RSS by about 15 MB at M = 1e6
            adjusted = np.full(pc.shape[0], np.nan)
            # the untestable columns sort last as +inf (argsort is several
            # times slower on an array holding NaN); the running minimum of
            # m*P_(i)/i from the top equals, within a block of ties, its value
            # at the block's last position, so any tie order gives the same values
            order = np.argsort(np.where(testable, pc, np.inf))[:m_t]
            # one buffer: m/i, then m*P_(i)/i, then its running minimum from the top
            ladder = np.arange(1, m_t + 1, dtype=np.float64)
            np.divide(m_t, ladder, out=ladder)
            np.multiply(pc[order], ladder, out=ladder)
            np.minimum.accumulate(ladder[::-1], out=ladder[::-1])
            adjusted[order] = np.minimum(ladder, 1.0, out=ladder)
    return _decision(method, alpha, cutoff, pc, testable, adjusted)
