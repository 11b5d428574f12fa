"""Direct multiple-testing baselines on partial-conjunction p-values.

The direct approach computes one PC p-value per hypothesis with a chosen
combiner and then applies a standard correction across the M_t testable
hypotheses: Bonferroni (reject P <= alpha/M_t) or the BH step-up. These are
the comparators the adaptive procedures are measured against; they pay the
full multiplicity cost upfront and are typically very conservative.
"""
from __future__ import annotations

from enum import Enum

import numpy as np
from numpy.typing import NDArray

from .errors import ValidationError
from .pc_core import PCCombinerKind, PValueMatrix
from .procedures import (
    DecisionResult,
    Procedure,
    ProcedureKind,
    _breakpoints,
    _bh_scan,
    _check_alpha,
    _decision,
    _smallest_level,
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


def DirectProcedureSpec(
    combiner: PCCombinerKind, adjustment: AdjustmentKind, alpha: float
) -> Procedure:
    """The direct Procedure with this combiner, correction and level: the
    benchmark's spelling, kept until it builds a Procedure (ROADMAP item 3)."""
    return Procedure(ProcedureKind("direct-" + adjustment.value), alpha, combiner)


def run_procedure(matrix: PValueMatrix, r: int, proc: Procedure) -> DecisionResult:
    """Run one procedure on a p-value matrix at replicability level r.

    Its callers read only the decisions, so it never builds adjusted values.
    """
    if proc.kind is ProcedureKind.ADAFILTER_BONFERRONI:
        return adafilter_bonferroni(compute_filter_select(matrix, r), proc.alpha)
    if proc.kind is ProcedureKind.ADAFILTER_BH:
        return adafilter_bh(compute_filter_select(matrix, r), proc.alpha)
    return direct_adjust(matrix, r, proc, compute_adjusted=False)


def bh_stepup(pvalues: NDArray[np.float64], alpha: float) -> tuple[NDArray[np.bool_], float]:
    """Classic BH step-up on a 1-d array of p-values at a level alpha in (0, 1].

    Returns the rejection mask and the p-value cutoff actually applied
    (0.0 when nothing is rejected). Ties at the cutoff are all rejected, and
    the rungs k*alpha/m are correctly rounded.
    """
    cutoff = _bh_cutoff(pvalues, _check_alpha(alpha), len(pvalues))
    return pvalues <= cutoff, cutoff


def _bh_cutoff(pvalues: NDArray[np.float64], alpha: float, m: int) -> float:
    """BH step-up cutoff among m p-values: P_(k*) for the largest k* with
    P_(k*) <= fl(k*alpha/m), else 0.0 (a P = 0 is always rejected, so 0.0 rejects
    none). It is _bh_threshold's body with every F_j = 0, a zero-stride view of 0.0
    (kept apart so the traced _bh_threshold calls stay adaptive BH's), on a table of
    the P <= alpha only. NaN fails P <= alpha: never rejected, though m may count it."""
    head = np.sort(pvalues[pvalues <= alpha])
    gamma = _bh_scan(_breakpoints(np.broadcast_to(0.0, m), head, alpha), alpha)
    k = int(np.searchsorted(head, gamma, "right"))
    return float(head[k - 1]) if k else 0.0


def direct_adjust(
    matrix: PValueMatrix, r: int, proc: Procedure, compute_adjusted: bool = True
) -> DecisionResult:
    """Run one direct procedure on a p-value matrix at replicability level r.

    PC p-values are computed per testable column (n_j >= r) with proc's
    combiner (an adaptive proc, which has none, raises ValidationError);
    untestable columns are excluded from the correction and never rejected.
    gamma0 reports the PC p-value cutoff in use. With compute_adjusted (the
    default, which the benchmark's decision check reads), adjusted holds the
    smallest rejecting alpha for Bonferroni (1 if none up to 1, 0 where P = 0),
    the step-up adjustment for BH, NaN where untestable. BH's values cost one
    value sort plus an argsort of only the P below the ladder's top plateau, a
    few percent of M_t under sparse signal. Without compute_adjusted, adjusted is
    None and the decision costs one pass plus, for BH, a table of the P <= alpha.
    """
    if proc.combiner is None:
        raise ValidationError(f"direct_adjust runs a direct procedure, not {proc.kind.value}")
    testable = matrix.testable(r)
    alpha = float(proc.alpha)

    # untestable columns have NaN PC p-values, which stay NaN when adjusted
    pc = matrix.pc_pvalues(r, proc.combiner)
    # r <= max n_j, so at least one column is testable
    m_t = int(np.count_nonzero(testable))
    adjusted = None
    if proc.kind is ProcedureKind.DIRECT_BONFERRONI:
        cutoff = alpha / m_t
        if compute_adjusted:
            adjusted = np.minimum(_smallest_level(pc, m_t), 1.0)
    else:
        cutoff = _bh_cutoff(pc, alpha, m_t)
        if compute_adjusted:
            # the testable PC p-values sorted, the untestable last as +inf; the
            # buffer then holds the adjusted values, so no second one is allocated
            adjusted = np.where(testable, pc, np.inf)
            adjusted.sort()
            # one buffer: m/i, then m*P_(i)/i, then its running minimum from the
            # top, which never exceeds its top rung P_(m) <= 1, so needs no cap
            ladder = np.arange(1, m_t + 1, dtype=np.float64)
            np.divide(m_t, ladder, out=ladder)
            np.multiply(adjusted[:m_t], ladder, out=ladder)
            np.minimum.accumulate(ladder[::-1], out=ladder[::-1])
            # within a block of ties the running minimum is its value at the
            # block's last position, so the ladder's top plateau [k0, m_t) starts
            # a block: every P > P_(k0) takes its value, and only the few below
            # are ordered, in any tie order (NaN fails both comparisons)
            k0 = int(np.searchsorted(ladder, ladder[-1]))
            below = adjusted[k0 - 1] if k0 else -np.inf
            adjusted.fill(np.nan)
            adjusted[pc > below] = ladder[-1]
            low = np.flatnonzero(pc <= below)
            adjusted[low[np.argsort(pc[low])]] = ladder[:k0]
    return _decision(proc.kind, alpha, cutoff, pc, testable, adjusted)
